"""Numeric quasihyperbolic solver: exact anchors, certified enclosures, checks."""

import cmath
import json
import math

import numpy as np
import pytest

from qhyp import (
    Annulus,
    FiniteComplement,
    MobiusMap,
    Polyline,
    Resolution,
    UpperHalfPlane,
    annulus_inside,
    check_annulus_k_comparison,
    check_mobius_quasi_invariance,
    chordal_gp_lower,
    gp_lower_bound,
    k_chordal_numeric,
    k_halfplane_exact,
    k_interval_fast,
    k_length_lower,
    k_lower_analytic,
    k_numeric,
    k_star_exact,
    thin_triangle_defect,
)

RES = Resolution(radial=96, angular=96)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_k_star_exact_values():
    # quarter turn on the unit circle around the removed origin
    assert k_star_exact(1.0, 1.0j) == pytest.approx(math.pi / 2.0, abs=1e-15)
    # radial move by one factor of e
    assert k_star_exact(1.0, math.e) == pytest.approx(1.0, abs=1e-15)
    # combined move, with a shifted center
    c = 2.0 - 1.0j
    assert k_star_exact(c + 1.0, c + 1.0j, center=c) == pytest.approx(
        math.pi / 2.0, abs=1e-15
    )
    # the angle difference is taken modulo full turns
    a = cmath.exp(0.1j)
    b = cmath.exp(6.2j)
    assert k_star_exact(a, b) == pytest.approx(2.0 * math.pi - 6.1, abs=1e-12)


def test_k_halfplane_matches_hyperbolic():
    assert k_halfplane_exact(1.0j, 2.0j) == pytest.approx(math.log(2.0), abs=1e-15)
    assert k_halfplane_exact(-1.0 + 1.0j, 1.0 + 1.0j) == pytest.approx(
        math.acosh(3.0), abs=1e-12
    )


def test_analytic_lower_bounds():
    dom = FiniteComplement([0.0, 1.0])
    a, b = 0.25j, 4.0
    gap = gp_lower_bound(dom, a, b)
    assert gap == pytest.approx(math.log1p(abs(a - b) / 0.25), rel=1e-12)
    val, source = k_lower_analytic(dom, a, b)
    assert val >= gap - 1e-12
    assert isinstance(source, str) and source
    assert k_length_lower(1.0, 0.5) == pytest.approx(math.log(3.0), rel=1e-12)


def test_analytic_lower_never_exceeds_exact():
    dom = FiniteComplement([0.0])
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        if min(abs(a), abs(b)) < 1e-3 or a == b:
            continue
        val, _ = k_lower_analytic(dom, a, b)
        assert val <= k_star_exact(a, b) + 1e-12


# ---------------------------------------------------------------------------
# Numeric solver against the one-puncture closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b",
    [
        (1.0, 1.0j),
        (0.5, 2.0 + 1.0j),
        (-3.0 + 0.1j, 0.2 - 0.1j),
    ],
)
def test_numeric_encloses_one_puncture_exact(a, b):
    dom = FiniteComplement([0.0])
    result = k_numeric(dom, a, b, RES)
    exact = k_star_exact(a, b)
    assert result.distance.lower == pytest.approx(exact, abs=1e-12)
    assert result.distance.upper >= exact - 1e-12
    # the certified window should be reasonably tight at this resolution
    assert result.distance.upper <= exact * 1.05 + 1e-6
    assert result.path[0] == pytest.approx(complex(a))
    assert result.path[-1] == pytest.approx(complex(b))


def test_numeric_symmetry():
    dom = FiniteComplement([0.0, 1.0])
    a, b = -0.5, 1.5 + 0.5j
    fwd = k_numeric(dom, a, b, RES)
    rev = k_numeric(dom, b, a, RES)
    assert fwd.distance.lower == rev.distance.lower
    assert fwd.distance.upper == rev.distance.upper
    assert np.allclose(fwd.path.as_array(), rev.path.as_array()[::-1])


def test_numeric_halfplane_contains_exact():
    dom = UpperHalfPlane()
    a, b = 0.3 + 0.2j, -1.0 + 2.5j
    result = k_numeric(dom, a, b, RES)
    exact = k_halfplane_exact(a, b)
    assert result.distance.lower == pytest.approx(exact, abs=1e-12)
    assert result.distance.upper >= exact - 1e-12
    assert result.distance.upper <= exact * 1.05


def test_numeric_warm_start_monotone():
    dom = FiniteComplement([0.0, 1.0])
    a, b = -0.5, 1.5
    cold = k_numeric(dom, a, b, RES)
    warm_res = Resolution(radial=96, angular=96, relax_sweeps=6)
    warm = k_numeric(dom, a, b, warm_res, warm_start=cold.path)
    assert warm.distance.upper <= cold.distance.upper * (1.0 + 1e-9)
    assert warm.distance.lower == cold.distance.lower


def test_numeric_warm_start_accepts_reversed_path():
    dom = FiniteComplement([0.0])
    a, b = 1.0, 1.0j
    cold = k_numeric(dom, a, b, RES)
    warm = k_numeric(dom, b, a, RES, warm_start=cold.path)
    assert warm.distance.upper <= cold.distance.upper * (1.0 + 1e-9)


def test_numeric_warm_start_rejects_mismatched_endpoints():
    dom = FiniteComplement([0.0])
    with pytest.raises(ValueError):
        k_numeric(dom, 1.0, 1.0j, RES, warm_start=Polyline([1.0, 2.0]))


def test_numeric_coincident_endpoints():
    dom = FiniteComplement([0.0])
    result = k_numeric(dom, 1.0j, 1.0j, RES)
    assert result.distance.lower == result.distance.upper == 0.0


# Exact results of the grid solver at 32x32, recorded before the relaxation
# probes and the graph's node densities were batched: (lower, upper, path
# vertices, relaxation sweeps).  Batching changes no probe, comparison or
# sum, so every value must stay bit-identical.
PINNED_RES = Resolution(radial=32, angular=32)
PINNED = [
    ([0.0, 1.0], -0.5 + 0.3j, 2.1 - 1.0j, k_numeric,
     (3.3451138067704846, 3.7849148559847303, 17, 28)),
    ([0.0, 1.0], -0.5 + 0.3j, 2.1 - 1.0j, k_chordal_numeric,
     (1.2559490532982982, 2.8326905064784618, 20, 28)),
    ([0.0, 1.0, 1.0j, -1.5 + 0.5j], 0.8 + 1.2j, -2.0 - 0.7j, k_numeric,
     (2.9213342628373624, 4.949933776468884, 24, 18)),
    ([0.0, 1.0, 1.0j, -1.5 + 0.5j], 0.8 + 1.2j, -2.0 - 0.7j, k_chordal_numeric,
     (1.3283243296961784, 3.1122782462876573, 25, 14)),
]


@pytest.mark.parametrize("punctures, a, b, solver, expected", PINNED,
                         ids=["two-k", "two-chordal", "four-k", "four-chordal"])
def test_numeric_results_pinned(punctures, a, b, solver, expected):
    result = solver(FiniteComplement(punctures), a, b, PINNED_RES)
    got = (result.distance.lower, result.distance.upper, len(result.path.points),
           result.meta["relax_sweeps"])
    assert got == expected


def test_numeric_meta_reports_stage_cost():
    dom = FiniteComplement([0.0, 1.0])
    result = k_numeric(dom, -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES)
    meta = result.meta
    for key in ("build_s", "dijkstra_s", "relax_s", "measure_s"):
        assert meta[key] >= 0.0
    # one weight evaluation for the graph, and at least one per relaxation step
    assert meta["weight_calls"] > 1 + meta["relax_sweeps"]
    assert meta["density_points"] > meta["nodes"] + meta["edges"]
    assert json.loads(json.dumps(result.as_dict()))["meta"] == meta

    warm = k_numeric(dom, -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES, warm_start=result.path)
    assert warm.meta["dijkstra_s"] == 0.0
    assert warm.meta["weight_calls"] >= 1


# ---------------------------------------------------------------------------
# Fast interval
# ---------------------------------------------------------------------------

def test_fast_interval_encloses_exact():
    dom = FiniteComplement([0.0])
    for a, b in [(1.0, 1.0j), (0.1, 10.0), (2.0 + 1.0j, -0.5)]:
        iv = k_interval_fast(dom, a, b)
        exact = k_star_exact(a, b)
        assert iv.lower <= exact + 1e-12
        assert iv.upper >= exact - 1e-12


def test_fast_interval_collapsed_segment_uses_lipschitz_bound():
    # the endpoints are closer than rounding, so the segment and the arcs
    # collapse to one point; the upper bound must still exceed the lower one
    dom = FiniteComplement([0.0, 1.0])
    a, b = 1.0j, 1.0j + 4.24e-143
    iv = k_interval_fast(dom, a, b)
    assert iv.upper_source == "segment-lipschitz"
    gap = abs(a - b)
    assert iv.upper >= gap / (min(dom.delta(a), dom.delta(b)) - gap)
    assert iv.lower < iv.upper <= gap * (1.0 + 1e-12)


def test_fast_interval_ordering_and_speed_shape():
    dom = FiniteComplement([0.0, 1.0, 2.0j])
    iv = k_interval_fast(dom, -1.0, 3.0 + 1.0j)
    assert 0.0 < iv.lower <= iv.upper < math.inf
    assert iv.lower_source and iv.upper_source


# ---------------------------------------------------------------------------
# Quasi-invariance under Mobius maps
# ---------------------------------------------------------------------------

def test_mobius_quasi_invariance_inversion():
    dom = FiniteComplement([0.0, 1.0])
    pairs = [(-0.5 + 0.2j, 2.0), (0.25j, 0.5 + 2.0j)]
    report = check_mobius_quasi_invariance(dom, MobiusMap.inversion(), pairs)
    assert report.ok
    assert report.pairs == 2
    assert not report.violations
    # certified ratio window sits inside the factor-two band
    assert report.worst_upper_ratio <= 2.0 + 1e-9
    assert report.worst_lower_ratio >= 0.5 - 1e-9
    counts = {k: report.as_dict()[k] for k in ("proved", "violated", "inconclusive")}
    assert counts == {"proved": report.proved, "violated": 0,
                      "inconclusive": 2 - report.proved}


def test_mobius_affine_is_exact_isometry():
    dom = FiniteComplement([0.0, 1.0])
    aff = MobiusMap.affine(2.0j, 3.0)
    pairs = [(-0.5, 0.5 + 0.5j), (2.0, 0.25j)]
    report = check_mobius_quasi_invariance(dom, aff, pairs)
    assert report.ok
    # similarity maps preserve the metric: ratios certified near one
    assert report.worst_upper_ratio <= 1.5
    assert report.worst_lower_ratio >= 0.6
    assert (report.proved, report.violated, report.inconclusive) == (2, 0, 0)


# ---------------------------------------------------------------------------
# Annulus middle-band comparison
# ---------------------------------------------------------------------------

def test_annulus_inside_predicate():
    dom = FiniteComplement([0.0, 100.0])
    assert annulus_inside(dom, Annulus.from_radii(0.0, 0.01, 50.0))
    assert not annulus_inside(dom, Annulus.from_radii(0.0, 0.01, 200.0))


def test_annulus_comparison_middle_band():
    dom = FiniteComplement([0.0, 100.0])
    report = check_annulus_k_comparison(
        dom, Annulus.from_radii(0.0, 0.01, 50.0), n_pairs=6, seed=1
    )
    assert report.ok
    assert report.delta_ok
    assert not report.violations
    assert 1.0 - 1e-9 <= report.worst_ratio_high
    assert report.proved + report.inconclusive == report.pairs == 6
    assert report.as_dict()["proved"] == report.proved
    assert report.as_dict()["violated"] == 0


def test_annulus_comparison_rejects_thin_ring():
    dom = FiniteComplement([0.0, 100.0])
    with pytest.raises(ValueError):
        check_annulus_k_comparison(dom, Annulus.from_radii(0.0, 10.0, 30.0))


# ---------------------------------------------------------------------------
# Chordal variant
# ---------------------------------------------------------------------------

def test_chordal_gp_lower_positive():
    dom = FiniteComplement([0.0])
    assert chordal_gp_lower(dom, 1.0, 4.0) > 0.0


def test_chordal_sandwich_one_puncture():
    dom = FiniteComplement([0.0])
    for a, b in [(1.0, 1.0j), (0.5, 3.0)]:
        ke = k_star_exact(a, b)
        kc = k_chordal_numeric(dom, a, b, RES).distance
        # boundary {0, infinity} has chordal diameter 2: factor 8 (1 + 1)^4
        assert kc.upper >= ke / 4.0 - 1e-9
        assert kc.lower <= 8.0 * 16.0 * ke + 1e-9


def test_thin_triangle_defect_finite():
    dom = FiniteComplement([0.0])
    defect, meta = thin_triangle_defect(dom, 1.0, 1.0j, -1.0 - 0.2j)
    assert math.isfinite(defect)
    assert defect >= 0.0
    assert len(meta["sides"]) == 3
