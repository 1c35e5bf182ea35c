"""The grid CSV writer prints every float64 exactly as ``format(x, ".17g")``."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp.gridcsv import format_17g, write_grid_csv


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


def test_writer_rejects_a_value_grid_of_the_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        write_grid_csv(io.StringIO(), "h", [0.0, 1.0], [0.0], np.zeros((2, 1)))
