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

Each value's text is then assembled in three little-endian 64-bit words, 24
bytes that hold the longest text %.17g prints, with whole-word operations
that act on eight characters at once (Lamport, "Multiple byte processing
with full-word instructions", CACM 18(8), 1975): the digits come from a
table of four-digit groups, trailing zeros are cleared by a mask smeared
down each word, the decimal point enters by shifting the bytes before it
down one place, and the sign, the leading "0.000" and the exponent are
shifted into place, so the words read as the text, left-justified.  Every
step writes into a ``Workspace`` of block-sized arrays that
``write_grid_csv`` makes once and reuses for every block.
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


def _split(a, hi=None, lo=None):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    hi = np.multiply(a, 134217729.0, out=hi)  # 2**27 + 1, Veltkamp's constant
    lo = np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    return hi, np.subtract(a, hi, out=lo)


_POW_HI, _POW_LO = _pow10_table()
_POW_HI_HI, _POW_HI_LO = _split(_POW_HI)
_POW_LO_POSITIVE = _POW_LO > 0.0

# The fast path takes finite |x| in [1e-280, 1e280): there every power of ten
# it multiplies by, and every split of such a product, stays normal.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# _scaled is off by less than 1e-14; a scaled value whose fraction lies
# within this distance of one half is left to the fallback
_TIE_MARGIN = 1e-9

# The text is built in four words, bytes 0-31, bytes in text order and each
# word little-endian; the fourth only takes what the exponent pushes past
# byte 23 before the final shift.  d0 sits in byte 7, digits d1..d16 in bytes
# 8-23, and the sign and leading zeros end at byte 6.  Every shift count is a
# uint64 array or scalar: numpy gives 0 for a shift of 64 bits or more (a
# count that wrapped below zero among them), which the steps below use to
# drop a part that falls wholly outside a word.
_U = np.uint64
_HIGH_BITS = _U(0x8080808080808080)
# byte + 0x4F has its high bit set exactly for the digits '1' to '9'
_NONZERO_ADD = _U(0x4F4F4F4F4F4F4F4F)
# times a word of 0/1 bytes: 8 times their count, in the top byte
_COUNT8 = _U(0x0808080808080808)


def _words(n: int):
    """The low three 64-bit words of the integer n."""
    return [(n >> 64 * j) & 0xFFFFFFFFFFFFFFFF for j in range(3)]


def _text_word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _digit_tables():
    """The four ASCII digits of g < 10**4 as the low half of a word, and
    digit d alone as byte 7."""
    g = np.arange(10000, dtype=np.uint64)
    ascii4 = np.zeros(10000, dtype=np.uint64)
    for j in range(4):
        ascii4 |= (_U(48) + g // _U(10 ** (3 - j)) % _U(10)) << _U(8 * j)
    return ascii4, (_U(48) + np.arange(10, dtype=np.uint64)) << _U(56)


_ASCII4, _D0 = _digit_tables()


def _layout_tables():
    """Per decimal exponent k, indexed by k - _P_MIN, how %.17g lays out d0..d16.

    ``last_int``: the high bit of each byte of words 1 and 2 that holds a
    digit before the point (d1..dk for 0 <= k < 17), which is never stripped
    as a trailing zero.  ``dot8``: 8 times the number of digits before the
    point, 8 * 17 where the point is never among the digits.  ``lead``: 2 z
    for the z = -k zeros of "0.", "0.0", ... before d0 (-4 <= k < 0), else 0.
    ``tail``: the exponent text, 0 in the fixed form (-4 <= k < 17).
    """
    k = np.arange(_P_MIN, _P_MAX + 1)
    fixed = (-4 <= k) & (k < 17)
    integral = (0 <= k) & (k < 17)
    last_int = np.where(integral, k, 0)
    prefix = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64) & _HIGH_BITS
    last_int = np.stack([prefix[np.minimum(last_int, 8)], prefix[np.maximum(last_int - 8, 0)]])
    dot8 = (8 * np.where(integral, k + 1, np.where(fixed, 17, 1))).astype(np.uint64)
    lead = 2 * np.where(fixed & (k < 0), -k, 0)
    tail = np.array([0 if f else _text_word(b"e%+03d" % e)
                     for e, f in zip(k.tolist(), fixed.tolist())], dtype=np.uint64)
    return last_int, dot8, lead, tail


_LAST_INT, _DOT8, _LEAD_INDEX, _TAIL = _layout_tables()


def _lead_tables():
    """Indexed by 2 z + sign: the text before d0 ("-", "0.", "-0.000", ...,
    with z - 1 zeros after "0." for z > 0) as a word that ends at byte 6,
    and the shift, 8 bits per byte, that moves its first byte to byte 0."""
    lead, shift = [], []
    for z in range(5):
        for neg in (0, 1):
            text = b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")
            lead.append(_text_word(text) << 8 * (7 - len(text)))
            shift.append(8 * (7 - len(text)))
    return np.array(lead, dtype=np.uint64), np.array(shift, dtype=np.uint64)


_LEAD, _LEAD_SHIFT = _lead_tables()


def _point_tables():
    """Indexed by 8 p, p = 1..16 the number of digits before the point: the
    three words' masks of the bytes that stay (after the point), of those
    that move down one byte (before it), and the point itself.  p = 0, no
    point, keeps every byte."""
    keep = np.zeros((3, 129), dtype=np.uint64)
    move = np.zeros((3, 129), dtype=np.uint64)
    point = np.zeros((3, 129), dtype=np.uint64)
    keep[:, 0] = 0xFFFFFFFFFFFFFFFF
    for p in range(1, 17):
        at = 6 + p  # the point's byte
        keep[:, 8 * p] = _words((1 << 192) - (1 << 8 * (at + 1)))
        move[:, 8 * p] = _words((1 << 8 * at) - 1)
        point[:, 8 * p] = _words(ord(".") << 8 * at)
    return keep, move, point


_KEEP, _MOVE, _POINT = _point_tables()


class Workspace:
    """Scratch arrays for ``format_17g`` on up to ``size`` values at a time.

    Made once and handed to every call, it spares each call the fresh
    temporaries of its several dozen array operations.  The arrays
    ``format_17g`` returns are views into it, valid until its next use."""

    def __init__(self, size: int):
        self.size = size
        self.floats = np.empty((8, size))
        self.ints = np.empty((7, size), dtype=np.int64)
        self.uints = np.empty((13, size), dtype=np.uint64)
        self.bools = np.empty((5, size), dtype=bool)
        self.text = np.empty((size, 3), dtype="<u8")


def _below_pow10(a, i, out, w, up=0):
    """out = a < 10**(i + up + _P_MIN) exactly, for doubles a > 0 and
    integer arrays i; ``w`` is a tuple of scratch (float, bool, bool)."""
    hi, eq, lo_positive = w
    np.take(_POW_HI[up:], i, out=hi, mode="clip")
    np.less(a, hi, out=out)
    np.equal(a, hi, out=eq)
    eq &= np.take(_POW_LO_POSITIVE[up:], i, out=lo_positive, mode="clip")
    out |= eq
    return out


def _scaled(a, i, f, j):
    """y = a * 10**(16 - k) as yh + yl, with |y - (yh + yl)| < 1e-14, for
    k = i + _P_MIN; ``f`` holds six float scratch arrays, of which the
    first two come back as yh and yl, and ``j`` an integer one.

    yh = fl(a * hi); Dekker's TwoProduct gives the exact error of that
    product, and a * lo is added to it.  For y < 1e17 the neglected terms are
    a * (10**p - hi - lo) < y * 2**-106 < 2e-15 and the two roundings in
    yl, of numbers below 32, each under 2**-48 < 4e-15: below 1e-14 in all.
    """
    yh, yl, ah, al, bh, bl = f
    np.subtract(16 - 2 * _P_MIN, i, out=j)  # the index of 10**(16 - k)
    _split(a, ah, al)
    np.take(_POW_HI_HI, j, out=bh, mode="clip")
    np.take(_POW_HI_LO, j, out=bl, mode="clip")
    np.take(_POW_HI, j, out=yh, mode="clip")
    yh *= a
    # err = ((ah * bh - yh) + ah * bl + al * bh) + al * bl
    np.multiply(ah, bh, out=yl)
    yl -= yh
    yl += np.multiply(ah, bl, out=ah)
    yl += np.multiply(al, bh, out=bh)
    yl += np.multiply(al, bl, out=bl)
    # yl = err + a * lo
    yl += np.multiply(a, np.take(_POW_LO, j, out=bl, mode="clip"), out=bl)
    return yh, yl


def _high_bits_kept(w, last_int, i, h, tmp):
    """h = the high bit of each byte of the digit word w that holds '1' to
    '9' or, by the table ``last_int`` at i, a digit before the point."""
    np.add(w, _NONZERO_ADD, out=h)
    h &= _HIGH_BITS
    h |= np.take(last_int, i, out=tmp, mode="clip")
    return h


def _smear_down(h, tmp):
    """Set the high bit of every byte of h below its highest set one."""
    for s in (8, 16, 32):
        h |= np.right_shift(h, _U(s), out=tmp)


def format_17g(values, work: Workspace | None = None):
    """``format(x, ".17g")`` of each value, as a numpy array of bytes.

    Returns ``(text, fallback)``, both flat: ``text[i]`` (dtype ``S24``) is
    the ASCII text of value i and ``fallback`` marks the values that
    Python's formatter printed.  With a ``work`` of at least ``values.size``
    entries both are views into it, valid until its next use; without one
    the call makes its own.

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
    m = v.size
    if work is None:
        work = Workspace(m)
    elif work.size < m:
        raise ValueError(f"a workspace of {work.size} entries cannot format {m} values")
    a, t, *f = work.floats[:, :m]
    i, j, n, q, r, g2, g3 = work.ints[:, :m]
    w0, w1, w2, w3, h1, h2, s1, s2, s3, tmp, cnt8, pe8, shift = work.uints[:, :m]
    fast, b, neg, eq, lo_positive = work.bools[:, :m]
    below = (t, eq, lo_positive)

    # k, N and the fast-path test
    with np.errstate(all="ignore"):
        np.abs(v, out=a)
        np.greater_equal(a, _FAST_MIN, out=fast)
        fast &= np.less(a, _FAST_MAX, out=b)
        np.copyto(a, 1.0, where=np.logical_not(fast, out=b))
        np.floor(np.log10(a, out=t), out=t)
        np.copyto(i, t, casting="unsafe")
        i -= _P_MIN  # from here on, i = k - _P_MIN indexes the tables
        i -= _below_pow10(a, i, b, below)
        i += np.logical_not(_below_pow10(a, i, b, below, up=1), out=b)
        yh, yl = _scaled(a, i, f, j)
        floor, frac = f[2], f[3]
        np.floor(yl, out=floor)
        np.subtract(yl, floor, out=frac)
        np.abs(np.subtract(frac, 0.5, out=t), out=t)
        fast &= np.greater_equal(t, _TIE_MARGIN, out=b)
        np.copyto(n, yh, casting="unsafe")
        np.copyto(q, floor, casting="unsafe")
        n += q
        n += np.greater(frac, 0.5, out=b)
    np.equal(n, 10 ** 17, out=b)
    np.copyto(n, 10 ** 16, where=b)
    i += b

    # the digits: d0, then d1..d8 and d9..d16 as two words of four-digit groups
    np.floor_divide(n, 10 ** 8, out=q)
    r = np.subtract(n, np.multiply(q, 10 ** 8, out=r), out=r)  # d9..d16
    np.floor_divide(q, 10 ** 8, out=n)                          # d0
    q -= np.multiply(n, 10 ** 8, out=g2)                        # d1..d8
    np.floor_divide(q, 10 ** 4, out=g2)
    q -= np.multiply(g2, 10 ** 4, out=g3)
    np.take(_ASCII4, g2, out=w1, mode="clip")
    w1 |= np.left_shift(np.take(_ASCII4, q, out=tmp, mode="clip"), _U(32), out=tmp)
    np.floor_divide(r, 10 ** 4, out=g3)
    r -= np.multiply(g3, 10 ** 4, out=q)
    np.take(_ASCII4, g3, out=w2, mode="clip")
    w2 |= np.left_shift(np.take(_ASCII4, r, out=tmp, mode="clip"), _U(32), out=tmp)
    np.take(_D0, n, out=w0, mode="clip")

    # trailing zeros: keep the bytes up to the last non-zero digit or the
    # last digit before the point, whichever is later; 8 times their number
    # goes to cnt8
    _smear_down(_high_bits_kept(w2, _LAST_INT[1], i, h2, tmp), tmp)
    _high_bits_kept(w1, _LAST_INT[0], i, h1, tmp)
    h1 |= np.left_shift(h2, _U(56), out=tmp)  # a byte kept in word 2 keeps word 1
    _smear_down(h1, tmp)
    np.right_shift(h1, _U(7), out=h1)
    np.right_shift(h2, _U(7), out=h2)
    np.right_shift(np.multiply(h1, _COUNT8, out=cnt8), _U(56), out=cnt8)
    cnt8 += np.right_shift(np.multiply(h2, _COUNT8, out=tmp), _U(56), out=tmp)
    w1 &= np.multiply(h1, _U(0xFF), out=h1)
    w2 &= np.multiply(h2, _U(0xFF), out=h2)

    # the sign and leading zeros, ending at byte 6
    np.take(_LEAD_INDEX, i, out=j, mode="clip")
    j += np.signbit(v, out=neg)
    w0 |= np.take(_LEAD, j, out=tmp, mode="clip")

    # the exponent, after the last kept digit at byte 7 + cnt8 / 8
    tail = np.take(_TAIL, i, out=s3, mode="clip")
    w1 |= np.left_shift(tail, cnt8, out=tmp)
    w2 |= np.right_shift(tail, np.subtract(_U(64), cnt8, out=shift), out=tmp)
    w2 |= np.left_shift(tail, np.subtract(cnt8, _U(64), out=shift), out=tmp)
    np.right_shift(tail, np.subtract(_U(128), cnt8, out=shift), out=w3)

    # the point, where a digit follows it: the bytes before it move down one
    np.take(_DOT8, i, out=pe8, mode="clip")
    pe8 *= np.greater_equal(cnt8, pe8, out=b)
    np.bitwise_or(np.right_shift(w0, _U(8), out=s1), np.left_shift(w1, _U(56), out=tmp), out=s1)
    np.bitwise_or(np.right_shift(w1, _U(8), out=s2), np.left_shift(w2, _U(56), out=tmp), out=s2)
    np.right_shift(w2, _U(8), out=s3)
    for k, (w, s) in enumerate(((w0, s1), (w1, s2), (w2, s3))):
        w &= np.take(_KEEP[k], pe8, out=tmp, mode="clip")
        s &= np.take(_MOVE[k], pe8, out=tmp, mode="clip")
        w |= s
        w |= np.take(_POINT[k], pe8, out=tmp, mode="clip")

    # left-justify: shift the text down to byte 0, one byte further with a point
    np.take(_LEAD_SHIFT, j, out=shift, mode="clip")
    shift -= np.minimum(pe8, _U(8), out=tmp)
    up = np.subtract(_U(64), shift, out=s1)
    words = work.text[:m]
    for k, (lo, hi) in enumerate(((w0, w1), (w1, w2), (w2, w3))):
        np.bitwise_or(np.right_shift(lo, shift, out=s2), np.left_shift(hi, up, out=tmp),
                      out=words[:, k])
    text = words.view("S24")[:, 0]

    slow = np.logical_not(fast, out=b)
    idx = np.flatnonzero(slow)
    if idx.size:
        text[idx] = [format(x, ".17g") for x in v[idx].tolist()]
    return text, slow


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
    work = Workspace(min(BLOCK, V.size))
    fh.write(header)
    fallback = 0
    for start in range(0, V.size, BLOCK):
        stop = min(start + BLOCK, V.size)
        yi, xi = np.divmod(np.arange(start, stop), X.size)
        text, slow = format_17g(V[start:stop], work)
        fallback += int(np.count_nonzero(slow))
        lines = np.char.add(np.char.add(X[xi], Y[yi]), text).view(np.uint8)
        fh.write(lines[lines != 0].tobytes().decode("ascii"))
    fh.write("\n")
    return fallback
