"""Sphere geometry primitives: chordal metric, annuli, polylines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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

def test_polyline_cleaned_drops_repeats():
    p = Polyline.cleaned([0.0, 0.0, 1.0, 1.0, 1.0, 2.0j])
    assert len(p) == 3
    assert p[0] == 0.0 and p[-1] == 2.0j


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
