"""The grid CSV writer prints every float64 exactly as ``format(x, ".17g")``."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp import gridcsv
from qhyp.gridcsv import Workspace, format_17g, write_grid_csv


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    text, _ = format_17g(values)
    got = [t.decode() for t in text.tolist()]
    want = [format(x, ".17g") for x in values.tolist()]
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_format_matches_python_on_any_float(xs):
    assert_formats_like_python(xs)


@pytest.mark.parametrize("seed", range(4))
def test_format_matches_python_on_random_bit_patterns(seed):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, 50000, dtype=np.uint64)
    assert_formats_like_python(bits.view(np.float64))


def test_format_matches_python_at_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_formats_like_python(np.concatenate(
        [p, np.nextafter(p, np.inf), np.nextafter(p, 0.0)]))


def test_format_matches_python_at_powers_of_two():
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_formats_like_python(np.concatenate([p, -p]))


def test_format_matches_python_on_grid_like_data():
    rng = np.random.default_rng(7)
    assert_formats_like_python(np.concatenate([
        rng.normal(size=20000), rng.standard_cauchy(20000) ** 3,
        np.linspace(-2.0, 2.0, 513), rng.uniform(0.0, 1e-3, 2000)]))


def test_exact_ties_round_half_even_through_the_fallback():
    ties = np.array([1234567890123456.25, 203577399034714.625, -203577399034714.625])
    text, fallback = format_17g(ties)
    assert text.tolist() == [b"1234567890123456.2", b"203577399034714.62",
                             b"-203577399034714.62"]
    assert fallback.all()
    # random dyadic values in [2**44, 2**53) include many ties
    rng = np.random.default_rng(3)
    assert_formats_like_python(rng.integers(2 ** 44, 2 ** 53, 20000)
                               + rng.integers(0, 8, 20000) / 8.0)


def test_fallback_marks_exactly_the_values_outside_the_fast_path():
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300,
                       1.5, -2.25, 1e-5, 123456.0])
    text, fallback = format_17g(values)
    assert fallback.tolist() == [True] * 8 + [False] * 4
    assert text.tolist()[:5] == [b"0", b"-0", b"nan", b"inf", b"-inf"]


def _digits_at(x):
    """(k, c): the decimal exponent of x's 17-digit rounding and how many of
    its 17 digits are left once trailing zeros go."""
    mantissa, exponent = format(abs(x), ".16e").split("e")
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def _values_with_every_digit_count():
    """For each k in [-6, 18] and c in [1, 17], values whose 17-digit
    rounding has exponent k and c digits up to its last non-zero one, found
    among c-digit decimals at that exponent and their neighbours.  No
    double rounds to one digit times 1e-6 or 1e-5."""
    rng = np.random.default_rng(11)
    out, missing = [], []
    for k in range(-6, 19):
        for c in range(1, 18):
            found = []
            for _ in range(400):
                m = int(rng.integers(10 ** (c - 1), 10 ** c))
                x = float(f"{m}e{k - c + 1}")
                found += [y for y in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))
                          if _digits_at(float(y)) == (k, c)]
                if len(found) >= 3:
                    break
            if not found:
                missing.append((k, c))
            out += found
    return np.array(out), missing


def test_format_matches_python_at_every_exponent_and_digit_count():
    # both sides of the switch to the exponent form at k = -5 | -4 and
    # 16 | 17, the point after each of d0..d15, and the digits kept in the
    # first, second or third word
    values, missing = _values_with_every_digit_count()
    assert missing == [(-6, 1), (-5, 1)]
    assert_formats_like_python(np.concatenate([values, -values]))
    # the fallback takes only the exact ties, a handful near 1e15
    ties = [x for x in values.tolist()
            if (Fraction(x) * Fraction(10) ** (16 - _digits_at(x)[0])).denominator == 2]
    assert values[format_17g(values)[1]].tolist() == ties and len(ties) < 10


def test_format_matches_python_where_the_digits_round_up_to_a_power_of_ten():
    # 17 nines round to 1e17; so does the double just below 10**K where it
    # lies within half a unit of the 17th digit, as for 13 K in the fast range
    nines = np.array([float(f"99999999999999999e{k}") for k in range(-6, 19)])
    below = []
    for K in range(-279, 281):
        p = Fraction(10) ** K
        x = float(p)
        below.append(x if Fraction(x) < p else float(np.nextafter(x, 0.0)))
    below = np.array(below)
    carried = [x for x in below.tolist() if format(x, ".16e").startswith("1.0000000000000000e")]
    assert len(carried) == 13
    values = np.concatenate([nines, np.nextafter(nines, 0.0), below])
    assert_formats_like_python(np.concatenate([values, -values]))
    assert not format_17g(carried)[1].any()


@pytest.mark.parametrize("values", [
    np.zeros(0),
    np.float64(-2.5e-7),
    np.linspace(-3.0, 7.0, 41)[::3],
    np.logspace(-12, 30, 50)[::-1],
    np.arange(24.0).reshape(4, 6) ** 7 - 1e6,
], ids=["empty", "0-d", "strided", "reversed", "2-D"])
def test_format_takes_any_array_flat(values):
    text, fallback = format_17g(values)
    want = [format(x, ".17g").encode() for x in np.ravel(values).tolist()]
    assert text.shape == fallback.shape == (len(want),)
    assert text.tolist() == want


def test_a_workspace_serves_calls_of_any_size_up_to_its_own():
    work = Workspace(64)
    rng = np.random.default_rng(5)
    for size in (64, 3, 0, 50, 1, 64):
        values = rng.standard_cauchy(size) ** 5
        values[:size // 4] = np.nan  # fallback text into reused words
        text, fallback = format_17g(values, work)
        assert text.tolist() == [format(x, ".17g").encode() for x in values.tolist()]
        assert fallback.tolist() == np.isnan(values).tolist()
    with pytest.raises(ValueError, match="workspace"):
        format_17g(np.zeros(65), work)


def test_numpy_shifts_of_64_bits_or_more_give_zero():
    # format_17g relies on this, both for counts of 64 to 128 and for
    # counts that wrapped below zero
    word = np.array([0xFFFFFFFFFFFFFFFF, 0x2B65], dtype=np.uint64)
    for count in (64, 65, 120, 128, 2 ** 64 - 8):
        counts = np.full(2, count, dtype=np.uint64)
        assert not (word << counts).any() and not (word >> counts).any()
        assert not (word << np.uint64(count)).any() and not (word >> np.uint64(count)).any()


def old_loop(xs, ys, values, header):
    """The per-value loop the writer replaced."""
    out = [header + "\n"]
    for i, y in enumerate(ys):
        for x, v in zip(xs, values[i]):
            out.append(f"{x:.17g},{y:.17g},{v:.17g}\n")
    return "".join(out)


def test_writer_equals_the_per_value_loop_across_chunks():
    xs = np.linspace(-1.0, 3.0, 301)
    ys = np.linspace(-2.0, 0.5, 70)  # 21,070 values: two chunks
    Z = xs[None, :] + 1j * ys[:, None]
    values = 1.0 / np.abs(Z - 0.5)
    values[3, :7] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1234567890123456.25]
    fh = io.StringIO()
    fallback = write_grid_csv(fh, "re,im,value", xs, ys, values)
    assert fh.getvalue() == old_loop(xs.tolist(), ys.tolist(), values.tolist(), "re,im,value")
    assert fallback == 7


@pytest.mark.parametrize("nx, ny", [(7, 5), (3, 4), (10, 2), (0, 3)])
def test_writer_blocks_split_rows_anywhere(monkeypatch, nx, ny):
    # blocks of 10 values: a block ends mid-row, the last one is short (or,
    # at 20 values, full), and an empty grid writes the header alone
    monkeypatch.setattr(gridcsv, "BLOCK", 10)
    xs, ys = np.linspace(-1.0, 2.0, nx), np.linspace(0.5, 3.0, ny)
    values = np.exp(xs[None, :] * ys[:, None]) - 1.0
    fh = io.StringIO()
    assert write_grid_csv(fh, "x,y,v", xs, ys, values) == np.count_nonzero(values == 0.0)
    assert fh.getvalue() == old_loop(xs.tolist(), ys.tolist(), values.tolist(), "x,y,v")


def test_writer_rejects_a_value_grid_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        write_grid_csv(io.StringIO(), "h", [0.0, 1.0], [0.0], np.zeros((2, 1)))
