"""Sphere geometry primitives: chordal metric, annuli, polylines."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhyp import (
    INF,
    Annulus,
    Polyline,
    chi_arc,
    chordal_distance,
    chordal_distance_field,
    is_infinite,
    segment_point_distance,
)
from qhyp.geometry import _ARC_STEP, as_finite

finite_points = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)
sphere_points = st.one_of(finite_points, st.just(INF))


# ---------------------------------------------------------------------------
# Chordal distance
# ---------------------------------------------------------------------------

def test_chordal_basic_values():
    assert chordal_distance(0.0, INF) == 2.0
    assert chordal_distance(0.0, 0.0) == 0.0
    assert chordal_distance(INF, INF) == 0.0
    # antipodal pair on the unit circle of the plane
    assert chordal_distance(1.0, -1.0) == pytest.approx(2.0, abs=1e-15)
    # a unit-modulus point and infinity sit at chordal distance sqrt(2)
    assert chordal_distance(1j, INF) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_chordal_symmetry_and_field():
    zs = np.array([0.0, 1.0, -2.0 + 3.0j, 1e4j, 0.5 - 0.5j], dtype=complex)
    for p in [0.0, 1.0 + 1.0j, INF]:
        field = chordal_distance_field(zs, p)
        for z, f in zip(zs, field):
            assert f == pytest.approx(chordal_distance(complex(z), p), abs=1e-15)
            if not is_infinite(p):
                assert chordal_distance(complex(z), p) == pytest.approx(
                    chordal_distance(p, complex(z)), abs=1e-15
                )


@settings(deadline=None, max_examples=60)
@given(sphere_points, sphere_points, sphere_points)
def test_chordal_triangle_inequality(p, q, r):
    d_pq = chordal_distance(p, q)
    d_qr = chordal_distance(q, r)
    d_pr = chordal_distance(p, r)
    assert d_pr <= d_pq + d_qr + 1e-12


def test_segment_point_distance_cases():
    # point projects inside the segment
    assert segment_point_distance(0.0, 2.0, 1.0 + 1.0j) == pytest.approx(1.0)
    # projection falls beyond an endpoint
    assert segment_point_distance(0.0, 1.0, 3.0) == pytest.approx(2.0)
    # degenerate segment
    assert segment_point_distance(1.0j, 1.0j, 0.0) == pytest.approx(1.0)
    # a length whose square overflows: the foot is found without squaring
    # (the foot was z1, at distance 1.3e200)
    assert segment_point_distance(-1e200, 1e200, 3e199 + 1e199j) == pytest.approx(1e199)


# ---------------------------------------------------------------------------
# Annuli
# ---------------------------------------------------------------------------

def test_annulus_parametrizations_agree():
    ann = Annulus(1.0 + 1.0j, d=2.0, m=1.5)
    assert ann.inner == pytest.approx(2.0 * math.exp(-1.5))
    assert ann.outer == pytest.approx(2.0 * math.exp(1.5))
    same = Annulus(1.0 + 1.0j, inner=ann.inner, outer=ann.outer)
    assert same.d == pytest.approx(2.0, rel=1e-12)
    assert same.half_modulus == pytest.approx(1.5, rel=1e-12)
    assert same.modulus == pytest.approx(3.0, rel=1e-12)


def test_annulus_kinds():
    assert Annulus(0.0, inner=0.5, outer=2.0).kind == "bounded"
    assert Annulus(0.0, inner=0.0, outer=1.0).kind == "punctured_disk"
    assert Annulus(0.0, inner=1.0, outer=math.inf).kind == "exterior"
    assert Annulus(0.0, inner=0.0, outer=1.0).is_degenerate
    with pytest.raises(ValueError):
        Annulus(0.0, inner=1.0, outer=1.0)
    with pytest.raises(ValueError):
        Annulus(0.0, inner=0.0, outer=math.inf)


def test_annulus_contains_and_separates():
    ann = Annulus(0.0, inner=1.0, outer=4.0)
    assert ann.contains(2.0)
    assert ann.contains(-3.0j)
    assert not ann.contains(0.5)
    assert not ann.contains(5.0)
    # separates iff some points land inside the hole and some outside
    assert ann.separates([0.1, 10.0])
    assert ann.separates([0.5j, INF])
    assert not ann.separates([0.1, 0.2])
    assert not ann.separates([10.0, INF])
    # a point inside the ring itself blocks separation
    assert not ann.separates([0.1, 2.0, 10.0])


def test_annulus_crossing_count():
    ann = Annulus(0.0, inner=1.0, outer=2.0)
    # straight pass through the ring: one crossing
    path = Polyline([0.5, 3.0])
    assert ann.crossing_count(path) == 1
    # in and back out on the same side: zero full crossings
    bounce = Polyline([3.0, 1.5, 3.0])
    assert ann.crossing_count(bounce) == 0
    # through, back, and through again
    weave = Polyline([0.5, 3.0, 0.5, 3.0])
    assert ann.crossing_count(weave) == 3
    # a path that never meets the ring
    assert ann.crossing_count(Polyline([3.0, 4.0j])) == 0


# ---------------------------------------------------------------------------
# Polylines
# ---------------------------------------------------------------------------

def _polyline_reference(points):
    """The per-point checks of ``Polyline.__init__`` before they moved to
    numpy: every vertex finite, and Python's ``abs`` of each vertex and of
    each consecutive difference raising where it overflows."""
    pts = [as_finite(p) for p in points]
    if not pts:
        raise ValueError("a polyline needs at least one point")
    for z, w in zip(pts[:-1], pts[1:]):
        abs(z), abs(w), abs(w - z)
    return tuple(pts)


def _outcome(build, points):
    """The points bit for bit, with their types, or the exception raised."""
    try:
        got = build(points)
    except Exception as e:  # the exception is the outcome
        return type(e), str(e)
    pts = got.points if isinstance(got, Polyline) else got
    return [(type(z), z.real.hex(), z.imag.hex()) for z in pts]


_vertex = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324,
                     -5e-324j, 1.3e308, 1.3e308j, INF]),
)


@st.composite
def _vertex_runs(draw):
    """Vertices, some followed by a run of near-duplicates at the 1e-15
    scale, as a list or, when every vertex is a number, sometimes an array."""
    out = []
    for p in draw(st.lists(_vertex, max_size=8)):
        out.append(p)
        if is_infinite(p) or not draw(st.booleans()):
            continue
        z = complex(p)
        scale = max(1.0, abs(z.real), abs(z.imag))
        for t in draw(st.lists(st.complex_numbers(max_magnitude=3e-15), min_size=1,
                               max_size=3)):
            out.append(z + t * scale)
    if not any(is_infinite(p) for p in out) and draw(st.booleans()):
        return np.array(out, dtype=np.complex128)
    return out


@settings(deadline=None, max_examples=400)
@given(_vertex_runs())
@example([])
@example([INF])
@example([1.0, float("nan")])
# repeated and nearly repeated vertices are kept as given
@example([1.0, 1.0, 1.0 + 1e-15, 1.0 + 2e-15, 1.0 + 3e-15, 2.0])
@example([0.0, -0.0, complex(0.0, -0.0), 1.0])
@example([5e-324, -5e-324j, 1.0])
# moduli that overflow, of points and of differences, and a difference
# that itself overflows
@example([1.5e308 + 1.5e308j, 1.5e308 + 1.4e308j])
@example([1.5e308 + 1.5e308j, 0.0])
@example([1.0, 1.0, 1.5e308 + 1.5e308j, 0.0])
@example([1.3e308, 1.3e308j, 0.0])
@example([1e308, -1e308, 3.0])
def test_polyline_checks_equal_per_point_reference(points):
    assert _outcome(Polyline, points) == _outcome(_polyline_reference, points)


def test_polyline_length_and_reverse():
    p = Polyline([0.0, 3.0, 3.0 + 4.0j])
    assert p.euclidean_length == pytest.approx(7.0)
    r = p.reversed()
    assert r[0] == 3.0 + 4.0j and r[-1] == 0.0
    assert r.euclidean_length == pytest.approx(7.0)


def test_polyline_segments_shape():
    p = Polyline([0.0, 1.0, 1.0 + 1.0j])
    starts, ends = p.segments()
    assert list(starts) == [0.0, 1.0]
    assert list(ends) == [1.0, 1.0 + 1.0j]


# ---------------------------------------------------------------------------
# Arc-plus-radial connector
# ---------------------------------------------------------------------------

def test_chi_arc_endpoints_and_radii():
    a, b = 2.0, 5.0j
    path = chi_arc(a, b, 0.0)
    assert path[0] == pytest.approx(a)
    assert path[-1] == pytest.approx(b)
    radii = np.abs(path.as_array())
    assert radii.min() >= 2.0 - 1e-9
    assert radii.max() <= 5.0 + 1e-9
    assert path.euclidean_length <= (math.pi / 2.0 + 1.0) * abs(a - b) + 1e-9


def test_chi_arc_half_turn_and_degenerate():
    path = chi_arc(1.0, -1.0, 0.0)
    # stays on the unit circle for an exact half turn
    assert np.allclose(np.abs(path.as_array()), 1.0, atol=1e-9)
    single = chi_arc(1.0j, 1.0j, 0.0)
    assert len(single) == 1
    with pytest.raises(ValueError):
        chi_arc(0.0, 1.0, 0.0)


def test_chi_arc_shifted_center():
    c = 3.0 - 2.0j
    a = c + 1.0
    b = c + 4.0j
    path = chi_arc(a, b, c)
    radii = np.abs(path.as_array() - c)
    assert radii.min() >= 1.0 - 1e-9
    assert radii.max() <= 4.0 + 1e-9


def _chi_arc_reference(a: complex, b: complex, c: complex) -> Polyline:
    """``chi_arc`` as a Python loop that multiplies by the rotation one
    vertex at a time."""
    if a == b:
        return Polyline([a])
    va, vb = a - c, b - c
    flipped = abs(va) > abs(vb)
    if flipped:
        va, vb = vb, va
    pivot = vb * (abs(va) / abs(vb))
    dphi = cmath.phase(pivot / va)
    pts = [va]
    if abs(dphi) > 0.0:
        n = max(1, math.ceil(abs(dphi) / _ARC_STEP))
        rot = cmath.exp(1j * dphi / n)
        zz = va
        for _ in range(n - 1):
            zz *= rot
            pts.append(zz)
        pts.append(pivot)
    if abs(vb) > abs(va):
        pts.append(vb)
    if flipped:
        pts.reverse()
    return Polyline([a, *(np.array(pts[1:-1]) + c), b])


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("a, b, c", [
    (1.0, -1.0, 0.0),                                  # a half-turn
    (1.0, 2.0 * cmath.exp(0.5j * _ARC_STEP), 0.0),     # one step (n = 1)
    (1.0, 2.0 * cmath.exp(1.5j * _ARC_STEP), 0.0),     # two steps (n = 2)
    (1.0, 2.0 * cmath.exp(2.5j * _ARC_STEP), 0.0),     # three steps
    (1.0, 1.0 + 1e-300j, 0.0),                         # no turn
    (3.0 + 1.0j, 0.5 - 0.2j, 0.0),                     # flipped: |a| > |b|
    (4.0 - 1.0j, 2.5 + 3.0j, 3.0 - 2.0j),              # a shifted centre
    (-0.5 + 0.3j, 2.1 - 1.0j, 1.0),
])
def test_chi_arc_vertices_match_the_loop_bit_for_bit(a, b, c, scale):
    a, b, c = a * scale, b * scale, c * scale
    got, want = chi_arc(a, b, c).as_array(), _chi_arc_reference(a, b, c).as_array()
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.complex_numbers(max_magnitude=10.0), st.complex_numbers(max_magnitude=10.0),
       st.complex_numbers(max_magnitude=10.0), st.sampled_from([1.0, 1e-150, 1e150]))
def test_chi_arc_vertices_match_the_loop_on_random_arcs(a, b, c, scale):
    assume(a != c and b != c)
    a, b, c = a * scale, b * scale, c * scale
    assume(a != c and b != c)
    got, want = chi_arc(a, b, c).as_array(), _chi_arc_reference(a, b, c).as_array()
    assert got.tobytes() == want.tobytes()


def test_polyline_array_is_read_only_and_kept_apart_from_the_input():
    z = np.array([0.0, 1.0 + 1.0j, 2.0])
    path = Polyline(z)
    z[0] = 5.0
    assert path[0] == 0.0 and path.as_array()[0] == 0.0
    assert path.as_array() is path.as_array()
    with pytest.raises(ValueError):
        path.as_array()[0] = 1.0


_ANCHORS = [0.0, 1.0, 1.0j, -1.5 + 0.5j]


@st.composite
def _scale_spanning_point(draw):
    """A point at a radius log-uniform in [1e-300, 1e300] about one of
    ``_ANCHORS``, on an axis or at any angle."""
    c = draw(st.sampled_from(_ANCHORS))
    r = 10.0 ** draw(st.floats(-300.0, 300.0))
    t = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]),
                       st.floats(-math.pi, math.pi)))
    return c + r * complex(math.cos(t), math.sin(t))


@settings(deadline=None, max_examples=200)
@given(_scale_spanning_point(), _scale_spanning_point(), st.sampled_from(_ANCHORS))
# about 1, e^-64 once came back as (e^-64 - 1) + 1 = 0, a puncture of the
# plane minus {0, 1}; the far end of this pair, as 1.2e-16i
@example(math.exp(-64.0), math.exp(64.0), 1.0)
@example(-1.67e171 + 2.05e155j, 1.03e-278 - 2.84e-278j, 1.0)
def test_chi_arc_starts_at_a_and_ends_at_b(a, b, c):
    assume(a != b and a != c and b != c)
    path = chi_arc(a, b, c)
    assert _outcome(Polyline, [path[0], path[-1]]) == _outcome(Polyline, [a, b])
