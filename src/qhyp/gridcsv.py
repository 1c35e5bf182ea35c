"""CSV output of a field sampled on a rectangular grid.

``write_grid_csv`` writes one ``x,y,value`` line per grid point, with every
number printed exactly as Python's ``format(x, ".17g")`` prints it, but
formats the values with a few numpy passes per block of values instead of
one Python call per value.

The fast path follows the integer approach of Loitsch ("Printing
floating-point numbers quickly and accurately with integers", PLDI 2010):
compute the 17 significant digits approximately, prove from an error bound
that they are the correctly rounded ones, and hand every value that cannot be
proved to Python's exact printer.  The approximation is Dekker's exact
product ("A floating-point technique for extending the available precision",
Numer. Math. 18, 1971) of |x| with a double-double power of ten, so it needs
only float64 and int64 arithmetic on every platform.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .constants import BLOCK

# 10**p for p in [_P_MIN, _P_MAX] as hi + lo, each correctly rounded; built
# with integers, since int / int true division rounds correctly
_P_MIN, _P_MAX = -300, 300


def _pow10_table():
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


def _split(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1, Veltkamp's constant
    hi = c - (c - a)
    return hi, a - hi


_POW_HI, _POW_LO = _pow10_table()
_POW_HI_HI, _POW_HI_LO = _split(_POW_HI)

# The fast path takes finite |x| in [1e-280, 1e280): there every power of ten
# it multiplies by, and every split of such a product, stays normal.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# _scaled is off by less than 1e-14; a scaled value whose fraction lies
# within this distance of one half is left to the fallback
_TIE_MARGIN = 1e-9


def _layout_tables():
    """Per decimal exponent k, how %.17g lays out the 17 digits d0..d16.

    The digits go into 18 slots with the decimal point at slot ``dot``; the
    digits up to d[last_int] are never stripped as trailing zeros.  ``lead``
    indexes the text before the digits ("0.", "0.00", ...) and ``tail`` is
    the exponent text, empty for the fixed form (-4 <= k < 17).
    """
    dot, last_int, lead, tail = [], [], [], []
    for k in range(_P_MIN, _P_MAX + 1):
        fixed = -4 <= k < 17
        dot.append(k + 1 if 0 <= k < 17 else 17 if fixed else 1)
        last_int.append(k if 0 <= k < 17 else 0)
        lead.append(-k if fixed and k < 0 else 0)
        tail.append(b"" if fixed else b"e%+03d" % k)
    return np.array(dot), np.array(last_int), np.array(lead), np.array(tail)


_DOT, _LAST_INT, _LEAD_ZEROS, _TAIL = _layout_tables()
# the text before the digits, indexed by 5 * sign + _LEAD_ZEROS
_LEAD = np.array([b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")
                  for neg in (0, 1) for z in range(5)])


def _digit_tables():
    """Column g: the four decimal digits of g in ASCII; and the index of the
    last non-zero one, or -16 when there is none.  (uint16 keeps the
    temporaries small, so the import does not grow the heap.)"""
    g = np.arange(10000, dtype=np.uint16)
    digits = np.array([48 + g // 10 ** j % 10 for j in (3, 2, 1, 0)], np.uint8)
    last_nonzero = np.full(10000, -16)
    for i in range(4):
        last_nonzero[digits[i] != 48] = i
    return digits, last_nonzero


_DIGITS4, _LAST_NONZERO4 = _digit_tables()

_SLOTS = np.arange(18)[:, None]


def _below_pow10(a, k):
    """a < 10**k exactly, for doubles a > 0 and integers k."""
    hi = _POW_HI[k - _P_MIN]
    return (a < hi) | ((a == hi) & (_POW_LO[k - _P_MIN] > 0.0))


def _scaled(a, k):
    """y = a * 10**(16 - k) as yh + yl, with |y - (yh + yl)| < 1e-14.

    yh = fl(a * hi); Dekker's TwoProduct gives the exact error of that
    product, and a * lo is added to it.  For y < 1e17 the neglected terms are
    a * (10**p - hi - lo) < y * 2**-106 < 2e-15 and the two roundings in
    yl, of numbers below 32, each under 2**-48 < 4e-15: below 1e-14 in all.
    """
    i = 16 - k - _P_MIN
    ah, al = _split(a)
    bh, bl = _POW_HI_HI[i], _POW_HI_LO[i]
    yh = a * _POW_HI[i]
    err = ((ah * bh - yh) + ah * bl + al * bh) + al * bl
    return yh, err + a * _POW_LO[i]


def _digit_slots(n, dot, last_int):
    """The 17 digits of each int64 in [1e16, 1e17) as text with a point.

    Row s of the (18, n.size) result is slot s: digit s before slot ``dot``,
    the point at it, digit s - 1 after it.  Slots after the last digit kept
    (the larger of ``last_int`` and the last non-zero digit) are zero, and so
    is the point when no digit follows it.
    """
    hi, lo = np.divmod(n, 10 ** 8)
    d0, rest = np.divmod(hi, 10 ** 8)
    groups = np.divmod(rest, 10 ** 4) + np.divmod(lo, 10 ** 4)
    # rows 1..17 hold the digits, rows 0 and 18 stay zero
    digits = np.zeros((19, n.size), np.uint8)
    digits[1] = d0 + 48
    last = last_int
    for first, g in zip((2, 6, 10, 14), groups):
        np.take(_DIGITS4, g, axis=1, out=digits[first:first + 4])
        last = np.maximum(last, first - 1 + _LAST_NONZERO4[g])
    last_slot = last + (last >= dot)
    slots = (digits[1:] * (_SLOTS < dot) + digits[:-1] * (_SLOTS > dot)
             + np.uint8(46) * (_SLOTS == dot))
    slots *= _SLOTS <= last_slot
    return slots


def format_17g(values):
    """``format(x, ".17g")`` of each value, as a numpy array of bytes.

    Returns ``(text, fallback)``: ``text[i]`` is the ASCII text of value i
    and ``fallback`` marks the values that Python's formatter printed.

    Contract: ``text[i]`` equals ``format(x, ".17g").encode()`` for every
    float64 x.  For finite |x| in [1e-280, 1e280) the fast path takes
    k = floor(log10 |x|) exactly (by comparing |x| with the double-double
    powers of ten), forms y = |x| * 10**(16 - k) to within 1e-14, and rounds
    y to the 17-digit integer N.  A value goes to Python's formatter when it
    is zero, subnormal, non-finite or outside that range, or when the
    fraction of y lies within 1e-9 of one half: there an exact tie, which %g
    rounds half to even, or a near tie is not decided by the approximation.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(all="ignore"):
        a = np.abs(v)
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
        a[~fast] = 1.0
        k = np.floor(np.log10(a)).astype(np.intp)
        k -= _below_pow10(a, k)
        k += ~_below_pow10(a, k + 1)
        yh, yl = _scaled(a, k)
        floor = np.floor(yl)
        frac = yl - floor
        fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
        n = yh.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry - _P_MIN  # from here on, k indexes the layout tables

    slots = _digit_slots(n, _DOT[k], _LAST_INT[k])
    digits = np.ascontiguousarray(slots.T).view("S18").ravel()
    text = np.char.add(np.char.add(_LEAD[5 * np.signbit(v) + _LEAD_ZEROS[k]], digits),
                       _TAIL[k])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = [format(x, ".17g") for x in v[slow].tolist()]
    return text, ~fast


def write_grid_csv(fh: TextIO, header: str, xs: Sequence[float],
                   ys: Sequence[float], values) -> int:
    """Write ``header`` and one ``x,y,value`` line per grid point to ``fh``.

    ``values`` has shape ``(len(ys), len(xs))``, and the lines run over x
    within each y.  Contract: the bytes are those of printing every number
    with ``format(x, ".17g")``.  The values are formatted by ``format_17g``:
    its fast path knows |x| * 10**(16 - k) to within 1e-14, and a value goes
    to Python's formatter when it is zero, subnormal, non-finite or outside
    [1e-280, 1e280), or when that scaled value lies within 1e-9 of a
    rounding tie.  Returns how many values went to Python's formatter.
    """
    # each line goes out as "\nx,y,value", after the header and before "\n"
    X = np.array([b"\n" + x + b"," for x in format_17g(xs)[0].tolist()])
    Y = np.array([y + b"," for y in format_17g(ys)[0].tolist()])
    V = np.asarray(values, dtype=np.float64)
    if V.shape != (Y.size, X.size):
        raise ValueError(f"values have shape {V.shape}, the grid is {(Y.size, X.size)}")
    V = V.ravel()
    fh.write(header)
    fallback = 0
    for start in range(0, V.size, BLOCK):
        stop = min(start + BLOCK, V.size)
        yi, xi = np.divmod(np.arange(start, stop), X.size)
        text, slow = format_17g(V[start:stop])
        fallback += int(np.count_nonzero(slow))
        lines = np.char.add(np.char.add(X[xi], Y[yi]), text).view(np.uint8)
        fh.write(lines[lines != 0].tobytes().decode("ascii"))
    fh.write("\n")
    return fallback
