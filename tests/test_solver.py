"""Numeric quasihyperbolic solver: exact anchors, certified enclosures, checks."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import qhyp
from qhyp import (
    Annulus,
    ExteriorUnitDisk,
    FiniteComplement,
    InconsistentIntervalError,
    PuncturedSubdomain,
    PuncturedUnitDisk,
    Resolution,
    TranslatedScaled,
    UnitDisk,
    UnsupportedDomainError,
    UpperHalfPlane,
    annulus_inside,
    check_annulus_k_comparison,
    chordal_gp_lower,
    gp_lower_bound,
    halfplane_distance,
    k_chordal_numeric,
    k_interval_fast,
    k_lower_analytic,
    k_numeric,
    k_star_exact,
)
from qhyp.constants import BLOCK
from qhyp.densities import chordal_quasihyperbolic_density, quasihyperbolic_density
from qhyp.geometry import segment_point_distance
from qhyp import solver as solver_module
from qhyp.solver import (DEPTH_CAP, _build_graph, _edge_weights, _punctures, _quadtree,
                         _touching_leaves)

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
    assert halfplane_distance(1.0j, 2.0j) == pytest.approx(math.log(2.0), abs=1e-15)
    assert halfplane_distance(-1.0 + 1.0j, 1.0 + 1.0j) == pytest.approx(
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


def test_analytic_lower_never_exceeds_exact():
    dom = FiniteComplement([0.0])
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b = (complex(*rng.uniform(-3, 3, 2)) for _ in range(2))
        if min(abs(a), abs(b)) < 1e-3 or a == b:
            continue
        val, _ = k_lower_analytic(dom, a, b)
        assert val <= k_star_exact(a, b) + 1e-12


def test_k_lower_analytic_near_the_overflow_threshold():
    # |a - b| and delta(a) exceed the float range: the gap bound takes
    # |a - b| as 4 |a/4 - b/4|, and the ratio bound reads delta(a) = inf as
    # the largest float, so both stay finite and below the winding bound,
    # which matches the pair and punctures scaled by 1/4
    a, b = 1.7e308 + 1.7e308j, 2.0 + 0j
    dom, quarter = FiniteComplement([0.0, 1.0]), FiniteComplement([0.0, 0.25])
    assert gp_lower_bound(dom, a, b) == pytest.approx(gp_lower_bound(quarter, a / 4, b / 4),
                                                      rel=1e-12)
    got, scaled = k_lower_analytic(dom, a, b), k_lower_analytic(quarter, a / 4, b / 4)
    assert got[0] == pytest.approx(scaled[0], rel=1e-12)
    assert got[1] == "winding(1+0j)" and scaled[1] == "winding(0.25+0j)"


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
    exact = halfplane_distance(a, b)
    assert result.distance.lower == pytest.approx(exact, abs=1e-12)
    assert result.distance.upper >= exact - 1e-12
    assert result.distance.upper <= exact * 1.05


@pytest.mark.parametrize("dom, a, b", [
    (FiniteComplement([0.0]), 1.0 + 0.5j, -0.5 - 0.5j),
    (UpperHalfPlane(), 0.3 + 0.2j, -1.0 + 2.5j),
    (FiniteComplement([0.0, 1.0, 1.0j, -1.5 + 0.5j]), 0.8 + 1.2j, -2.0 - 0.7j),
], ids=["one-point", "half-plane", "four-points"])
def test_numeric_and_fast_share_the_lower_bound(dom, a, b):
    # both take k_lower_analytic's bound, label included
    numeric = k_numeric(dom, a, b, Resolution(radial=16, angular=16)).distance
    fast = k_interval_fast(dom, a, b)
    assert (numeric.lower, numeric.lower_source) == (fast.lower, fast.lower_source)


def test_numeric_refuses_a_domain_without_boundary():
    # its density 1/delta is 0, so no edge of the grid has a positive weight
    with pytest.raises(UnsupportedDomainError):
        k_numeric(FiniteComplement([]), 1.0, 2.0j, Resolution(radial=16, angular=16))


def test_numeric_coincident_endpoints():
    dom = FiniteComplement([0.0])
    result = k_numeric(dom, 1.0j, 1.0j, RES)
    assert result.distance.lower == result.distance.upper == 0.0


_SCIPY_CHILD = """
import contextlib, io, json, sys
import qhyp
loaded = ["scipy" in sys.modules]
from qhyp.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
d = qhyp.k_numeric(qhyp.FiniteComplement([0.0, 1.0]), -0.5 + 0.3j, 2.1 - 1.0j,
                   qhyp.Resolution(radial=16, angular=16)).distance
loaded.append("scipy" in sys.modules)
print(json.dumps({"loaded": loaded, "interval": [d.lower, d.upper]}))
"""


def test_scipy_loads_on_the_first_grid_solve(tmp_path):
    # this process has imported scipy already, so a fresh interpreter runs
    # the commands that build no grid, then one grid solve
    two = '{"type": "finite_complement", "punctures": [[0.0, 0.0], [1.0, 0.0]]}'
    pair = ["--domain", two, "--from", "0.5,0.5", "--to", "2,1"]
    commands = [["distance", *pair, "--metric", "k"], ["distance", *pair, "--metric", "h"],
                ["qi-verify", "--domain", two, "--mode", "global", "--pairs", "2"],
                ["heatmap", "--domain", two, "--field", "beta", "--window", "-1", "1", "-1", "1",
                 "--nx", "4", "--ny", "4", "--out", str(tmp_path / "beta.csv")],
                ["beta-map", "--domain", two, "--at", "0.5,0.5"],
                ["verify-all", "--criteria", "1,3,4,5,7,10"]]
    src = str(Path(qhyp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run([sys.executable, "-c", _SCIPY_CHILD, json.dumps(commands)],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["loaded"] == [False] * (1 + len(commands)) + [True]
    d = k_numeric(FiniteComplement([0.0, 1.0]), -0.5 + 0.3j, 2.1 - 1.0j,
                  Resolution(radial=16, angular=16)).distance
    assert report["interval"] == [d.lower, d.upper]


# Exact results of the grid solver at 32x32: (lower, upper, path vertices,
# relaxation sweeps), recorded when the relaxation came to stop against the
# graph path's certified width; the upper bounds were re-recorded when the
# relaxation's golden-section search became a bracket search.  Every value
# must stay bit-identical, in any order of the solves.
PINNED_RES = Resolution(radial=32, angular=32)
PINNED = [
    ([0.0, 1.0], -0.5 + 0.3j, 2.1 - 1.0j, k_numeric,
     (3.3451138067704846, 3.789446301346475, 16, 9)),
    ([0.0, 1.0], -0.5 + 0.3j, 2.1 - 1.0j, k_chordal_numeric,
     (1.2559490532982982, 2.8392332131981433, 16, 7)),
    ([0.0, 1.0, 1.0j, -1.5 + 0.5j], 0.8 + 1.2j, -2.0 - 0.7j, k_numeric,
     (2.9213342628373624, 4.953875226421579, 21, 4)),
    ([0.0, 1.0, 1.0j, -1.5 + 0.5j], 0.8 + 1.2j, -2.0 - 0.7j, k_chordal_numeric,
     (1.3283243296961784, 3.1198129220895465, 22, 6)),
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
    _evict_grid()
    result = k_numeric(dom, -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES)
    meta = result.meta
    assert meta["grid_reused"] is False
    for key in ("build_s", "dijkstra_s", "relax_s", "measure_s", "clearance_s", "weights_s"):
        assert meta[key] >= 0.0
    assert meta["clearance_s"] + meta["weights_s"] <= meta["build_s"]
    # one weight evaluation per block of the graph's edges, and at least one
    # per relaxation step
    assert meta["weight_calls"] > 1 + meta["relax_sweeps"]
    assert meta["density_points"] > meta["nodes"] + meta["edges"]
    # the exact clearance test runs on a few edges only
    assert 0 < meta["clearance_exact"] < meta["edges"]
    assert json.loads(json.dumps(result.as_dict()))["meta"] == meta


def _evict_grid():
    # a problem of its own, so that the next solve builds its grid afresh
    k_numeric(FiniteComplement([5.0]), 6.0, 6.0 + 1.0j, Resolution(radial=8, angular=8))


def _fingerprint(result):
    """The bytes of a result that the grid can change."""
    iv = result.distance
    return (iv.lower, iv.upper, iv.lower_source, iv.upper_source,
            result.path.as_array().tobytes(),
            tuple(result.meta[k] for k in ("nodes", "edges", "graph_length", "relax_sweeps")))


def test_grid_reused_by_chordal_and_swapped_solves():
    dom = FiniteComplement(FOUR)
    a, b = 0.8 + 1.2j, -2.0 - 0.7j
    _evict_grid()
    first = k_numeric(dom, a, b, PINNED_RES)
    assert first.meta["grid_reused"] is False
    reused = [k_chordal_numeric(dom, a, b, PINNED_RES), k_numeric(dom, b, a, PINNED_RES),
              k_chordal_numeric(dom, b, a, PINNED_RES)]
    for result in reused:
        meta = result.meta
        assert meta["grid_reused"] is True
        assert meta["clearance_s"] == 0.0
        assert meta["nodes"] == first.meta["nodes"] > 0
    assert reused[1].distance == first.distance
    # each reused result equals a cold solve, byte for byte; its exact
    # clearance tests are the relaxation's alone
    for solver, x, y, result in [(k_chordal_numeric, a, b, reused[0]),
                                 (k_numeric, b, a, reused[1]),
                                 (k_chordal_numeric, b, a, reused[2])]:
        _evict_grid()
        cold = solver(dom, x, y, PINNED_RES)
        assert cold.meta["grid_reused"] is False
        assert _fingerprint(cold) == _fingerprint(result)
        build_exact = solver_module._last_grid[1].clearance_exact
        assert build_exact > 0
        assert result.meta["clearance_exact"] == cold.meta["clearance_exact"] - build_exact


@pytest.mark.parametrize("change", ["domain", "anchors", "resolution"])
def test_grid_not_reused_for_another_problem(change):
    dom, a, b, res = FiniteComplement([0.0, 1.0]), -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES
    k_numeric(dom, a, b, res)
    if change == "domain":
        dom = FiniteComplement([0.0, 1.0, 3.0j])
    elif change == "anchors":
        b = np.nextafter(b.real, 3.0) + 1j * b.imag
    else:
        res = Resolution(radial=48, angular=48)
    assert k_chordal_numeric(dom, a, b, res).meta["grid_reused"] is False


def test_grid_reused_when_only_the_sweep_cap_changes():
    # the grid depends on min(radial, angular) alone, not on relax_sweeps
    dom, a, b = FiniteComplement([0.0, 1.0]), -0.5 + 0.3j, 2.1 - 1.0j
    _evict_grid()
    assert k_numeric(dom, a, b, PINNED_RES).meta["grid_reused"] is False
    res = Resolution(radial=32, angular=32, relax_sweeps=3)
    assert k_numeric(dom, a, b, res).meta["grid_reused"] is True
    assert k_numeric(dom, a, b, Resolution(radial=32, angular=64)).meta["grid_reused"] is True


def test_cached_grid_is_read_only():
    dom = FiniteComplement([0.0, 1.0])
    nodes, graph, ids, meta = _build_graph(dom, [-0.5 + 0.3j, 2.1 - 1.0j], PINNED_RES,
                                           quasihyperbolic_density(dom))
    _, grid = solver_module._last_grid
    assert nodes is grid.nodes
    for arr in (grid.nodes, grid.lo, grid.hi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert graph.nnz == meta["edges"] <= grid.lo.size
    assert list(grid.anchor_ids) == ids


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 0, 3, 1, 1)])
def test_numeric_results_pinned_in_any_order(order):
    _evict_grid()
    for i in order:
        punctures, a, b, solver, expected = PINNED[i]
        result = solver(FiniteComplement(punctures), a, b, PINNED_RES)
        assert (result.distance.lower, result.distance.upper, len(result.path.points),
                result.meta["relax_sweeps"]) == expected


@pytest.mark.parametrize("punctures, a, b, solver, expected", PINNED,
                         ids=["two-k", "two-chordal", "four-k", "four-chordal"])
def test_relaxation_stops_against_the_certified_width(punctures, a, b, solver, expected,
                                                      monkeypatch):
    # the relaxed path is kept only where it beats the graph path, and the
    # sweeps skipped by the stop rule cost at most 0.5% of the upper bound
    dom = FiniteComplement(punctures)
    result = solver(dom, a, b, PINNED_RES)
    assert result.distance.upper <= result.meta["graph_upper"]
    monkeypatch.setattr(solver_module, "RELAX_STOP", 0.0)
    full = solver(dom, a, b, PINNED_RES)
    assert full.meta["relax_sweeps"] >= result.meta["relax_sweeps"]
    assert result.distance.upper <= 1.005 * full.distance.upper


def test_an_unmeasured_graph_path_leaves_the_relative_stop_rule(monkeypatch):
    # where the graph path's length is not finite there is no width to
    # measure sweeps against: slack 0, and the relaxed path is the answer
    relax, k_length = solver_module._relax_path, solver_module._k_length
    slacks, measured = [], []

    def first_infinite(path, density, punctures, stop_above=math.inf):
        measured.append(path)
        return math.inf if len(measured) == 1 else k_length(path, density, punctures, stop_above)

    def recording(points, density, punctures, res, slack):
        slacks.append(slack)
        return relax(points, density, punctures, res, slack)

    monkeypatch.setattr(solver_module, "_k_length", first_infinite)
    monkeypatch.setattr(solver_module, "_relax_path", recording)
    punctures, a, b, solver, expected = PINNED[0]
    result = solver(FiniteComplement(punctures), a, b, PINNED_RES)
    assert slacks == [0.0]
    assert result.meta["graph_upper"] == math.inf
    assert result.distance.upper_source == "relaxed-grid-path"
    assert math.isfinite(result.distance.upper)
    # the relative rule alone runs more sweeps than the pinned solve
    assert result.meta["relax_sweeps"] > expected[3]


def test_a_graph_path_shorter_than_the_relaxed_one_is_kept(monkeypatch):
    # relaxation scores segments by a three-point rule, so it can lengthen
    # the certified curve; the unrelaxed path is then the upper bound
    monkeypatch.setattr(solver_module, "_relax_path",
                        lambda points, density, punctures, res, slack:
                        ([points[0], 0.5 + 0.1j, points[-1]], 0, {}))
    punctures, a, b, solver, _ = PINNED[0]
    result = solver(FiniteComplement(punctures), a, b, PINNED_RES)
    assert result.distance.upper_source == "grid-path"
    assert result.distance.upper == result.meta["graph_upper"]
    assert len(result.path.points) == PINNED[0][4][2]


def test_an_endpoint_without_grid_edges_is_named(monkeypatch):
    # clearance 1.5 rejects every segment: the first anchor is named, and
    # its nearest leaves are far from the depth cap, so a finer grid may help
    # an empty grid slot, so that no grid built at 1.5 outlives the test
    monkeypatch.setattr(solver_module, "CLEARANCE", 1.5)
    monkeypatch.setattr(solver_module, "_last_grid", None)
    with pytest.raises(solver_module.SolverError,
                       match=r"endpoint \(-0\.5\+0\.3j\) keeps none of its 12 grid edges "
                             r"after clearance and weighting; raise the resolution"):
        k_numeric(FiniteComplement([0.0, 1.0]), 2.1 - 1.0j, -0.5 + 0.3j,
                  Resolution(radial=8, angular=8))


def test_an_endpoint_whose_edges_all_weigh_infinity_is_named():
    # no removed point, so every edge passes the clearance test, but the
    # anchor 1e-200j sits about 1e188 from its nearest leaves, at the depth
    # cap: its density 1e200 times that length overflows every weight
    with pytest.raises(solver_module.SolverError,
                       match=r"endpoint 1e-200j keeps none of its 12 grid edges after clearance "
                             r"and weighting: its nearest leaves sit at the depth cap .*"
                             r"use k_interval_fast \(--method fast\)"):
        k_numeric(UpperHalfPlane(), 1e200 + 1e-200j, 1e-200j, Resolution(radial=32, angular=32))


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def _first_sampled_pair(punctures, seed=0):
    # criterion 12's sampler: [-3, 3]^2, at least 0.05 from every puncture
    rng = np.random.default_rng(seed)
    while True:
        z = rng.uniform(-3.0, 3.0, 2) + 1j * rng.uniform(-3.0, 3.0, 2)
        a, b = complex(z[0]), complex(z[1])
        if a != b and min(abs(w - p) for w in (a, b) for p in punctures) >= 0.05:
            return a, b


FOUR = [0.0, 1.0, 1.0j, -1.5 + 0.5j]
# the benchmark's 16-point ring: radii 1 and 1.5 in turn
RING = [cmath.exp(2j * math.pi * k / 16) * (1.0 + 0.5 * (k % 2)) for k in range(16)]
# SHA-256 over the node positions, the CSR data, indices and indptr (as
# int64) and the anchor ids of _build_graph at 128x128, with (nodes, edges),
# recorded when the quadtree graph came in.  Every byte must stay the same.
PINNED_GRAPHS = [
    ([0.0, 1.0], (-0.5 + 0.3j, 2.1 - 1.0j), quasihyperbolic_density, 9543, 37701,
     "84a993d3d8a258daf6d6905b2f32f4aea875d4ddb75ea21be69948d1d0371d07"),
    ([0.0, 1.0], (-0.5 + 0.3j, 2.1 - 1.0j), chordal_quasihyperbolic_density, 9543, 37701,
     "0ab4ab3696c53f39b19ed43e94d843fe1ade5a41a1a8bbb82dd78f5c5e63c0cf"),
    (FOUR, _first_sampled_pair(FOUR), quasihyperbolic_density, 7086, 27975,
     "1d4ab1d58668b8d73fa66ec11d1f6d549e05129d7ef65bdefbf53c759ea39324"),
    (FOUR, _first_sampled_pair(FOUR), chordal_quasihyperbolic_density, 7086, 27975,
     "faa2d6c320837c2a3eb8544687c1baf7daaf6e037416d6e806b0dbcf5833c1f4"),
]


@pytest.mark.parametrize("punctures, pair, density, n_nodes, n_edges, digest",
                         PINNED_GRAPHS, ids=["two-k", "two-chordal", "four-k", "four-chordal"])
def test_build_graph_pinned(punctures, pair, density, n_nodes, n_edges, digest):
    dom = FiniteComplement(punctures)
    nodes, graph, ids, meta = _build_graph(dom, list(pair), Resolution(128, 128),
                                           density(dom))
    assert (meta["nodes"], meta["edges"]) == (n_nodes, n_edges)
    assert graph.has_canonical_format
    h = hashlib.sha256()
    for arr in (nodes, graph.data, graph.indices.astype(np.int64),
                graph.indptr.astype(np.int64), np.asarray(ids, dtype=np.int64)):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == digest
    # every edge is stored once, above the diagonal: none was summed away
    # as a repeat, and none appears in both orientations
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    assert graph.nnz == meta["edges"]
    assert np.all(rows < graph.indices)


@pytest.mark.parametrize("density", [quasihyperbolic_density, chordal_quasihyperbolic_density],
                         ids=["k", "chordal"])
def test_build_graph_blocks_equal_one_weight_call(density):
    # the 16-point ring's 128x128 grid: 87,467 edges, over five blocks and not
    # a multiple of the block, weighted block by block, against one call
    # over all edges
    dom = FiniteComplement(RING)
    dens = density(dom)
    nodes, graph, ids, meta = _build_graph(dom, [0.1 + 0.1j, 1.9 + 0.3j],
                                           Resolution(128, 128), dens)
    _, grid = solver_module._last_grid
    lo, hi = grid.lo, grid.hi
    assert lo.size > 2 * BLOCK and lo.size % BLOCK
    # the grid's clearance test, blocked too, ran the exact segment distance
    # on as many edges as the unblocked test did
    assert grid.clearance_exact == 336
    assert meta["weight_calls"] == -(-lo.size // BLOCK)
    assert meta["density_points"] == nodes.size + lo.size
    r = dens(nodes)
    u, v = nodes[lo], nodes[hi]
    w = _edge_weights(u, v, r[lo], dens(0.5 * (u + v)), r[hi], None, None)
    keep = np.isfinite(w)
    want = csr_matrix((w[keep], (lo[keep], hi[keep])), shape=graph.shape)
    assert meta["edges"] == np.count_nonzero(keep)
    for got_arr, want_arr in ((graph.data, want.data), (graph.indices, want.indices),
                              (graph.indptr, want.indptr)):
        assert got_arr.tobytes() == want_arr.tobytes()


TREES = [
    (FiniteComplement([0.0, 1.0]), (-0.5 + 0.3j, 2.1 - 1.0j), Resolution(16, 16)),
    (PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]), (-0.5 + 0.5j, 0.9 - 0.3j),
     Resolution(16, 16)),
    # at 8x8 the grading is coarse enough for leaves 2 levels apart to touch,
    # and the point near 0 takes the tree to the depth cap
    (FiniteComplement([0.0, 1.0]), (1e-20 + 1e-20j, 2.0 + 1.0j), Resolution(8, 8)),
    (UpperHalfPlane(), (1e-20j, 3.0 + 4.0j), Resolution(8, 8)),
]
TREE_IDS = ["two", "disk-minus-two", "two-deep", "half-plane-deep"]


def _touching_reference(tree):
    """Every pair of leaves whose closed squares touch, lower index first,
    sorted, by testing all pairs on the integer grid of the depth cap."""
    leaves = np.flatnonzero(tree.leaf)
    shift = DEPTH_CAP - tree.level[leaves]
    x0, y0 = tree.ix[leaves] << shift, tree.iy[leaves] << shift
    x1, y1 = (tree.ix[leaves] + 1) << shift, (tree.iy[leaves] + 1) << shift
    touch = ((np.maximum(x0[:, None], x0) <= np.minimum(x1[:, None], x1))
             & (np.maximum(y0[:, None], y0) <= np.minimum(y1[:, None], y1)))
    i, j = np.nonzero(np.triu(touch, 1))
    return np.stack([leaves[i], leaves[j]], axis=1)


@pytest.mark.parametrize("dom, pair, res", TREES, ids=TREE_IDS)
def test_touching_leaves_equal_all_pairs_test(dom, pair, res):
    tree = _quadtree(dom, pair, res)
    got = _touching_leaves(tree)
    assert got.tolist() == _touching_reference(tree).tolist()
    levels = tree.level[got]
    assert np.abs(levels[:, 0] - levels[:, 1]).max() >= (2 if res.radial == 8 else 1)


@pytest.mark.parametrize("dom, pair, res", TREES, ids=TREE_IDS)
def test_quadtree_leaves_meet_the_split_rule(dom, pair, res):
    tree = _quadtree(dom, pair, res)
    eps = 1.6 * 2.0 * math.pi / min(res.radial, res.angular)

    def split(level, ix, iy):
        s = tree.side / 2.0 ** level
        z = (tree.corner.real + (ix + 0.5) * s) + 1j * (tree.corner.imag + (iy + 0.5) * s)
        near = np.minimum(np.abs(z - pair[0]), np.abs(z - pair[1]))
        return s > eps * np.maximum(dom.delta_field(z), 0.5 * near)

    level, ix, iy = tree.level[tree.leaf], tree.ix[tree.leaf], tree.iy[tree.leaf]
    assert np.all((level == DEPTH_CAP) | ~split(level, ix, iy))
    up = level > 0
    assert np.all(split(level[up] - 1, ix[up] >> 1, iy[up] >> 1))
    # the leaves tile the root square
    assert sum(4 ** (DEPTH_CAP - int(d)) for d in level) == 4 ** DEPTH_CAP
    # the nodes are the leaves whose centre lies in the domain, then the anchors
    grid = solver_module._build_grid(dom, pair, res)
    assert np.all(dom.delta_field(grid.nodes) > 0)
    assert grid.nodes.size == np.count_nonzero(tree.leaf & (tree.delta > 0)) + 2


def test_graph_counts_equal_across_images():
    # conjugation and rotation by a power of i map the root square and the
    # quadtree onto themselves, so the graph's size does not change
    a, b = _first_sampled_pair(FOUR)
    counts = set()
    for image in range(8):
        def move(z):
            return (z.conjugate() if image & 1 else z) * 1j ** (image >> 1)

        dom = FiniteComplement([move(p) for p in FOUR])
        ca, cb, _ = solver_module._canonical(move(a), move(b))
        meta = _build_graph(dom, [ca, cb], Resolution(128, 128), quasihyperbolic_density(dom))[3]
        counts.add((meta["nodes"], meta["edges"]))
    assert len(counts) == 1


@pytest.mark.parametrize("dom, a, b", [
    (PuncturedUnitDisk(), 0.9, -0.9),
    (ExteriorUnitDisk(), 1.1, -1.1),
    (PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]), 0.9 - 0.3j, -0.5 + 0.5j),
], ids=["punctured-disk", "exterior-disk", "disk-minus-two"])
def test_numeric_serves_disk_domains(dom, a, b):
    numeric = k_numeric(dom, a, b, Resolution(64, 64)).distance
    fast = k_interval_fast(dom, a, b)
    assert math.isfinite(numeric.upper) and numeric.upper < fast.upper
    assert max(numeric.lower, fast.lower) <= min(numeric.upper, fast.upper)


def test_numeric_halfplane_near_the_boundary():
    # a point 1e-20 above the line: the graded tree follows it down (the
    # half-plane chart gave an upper bound of 4.2e9)
    a, b = 1e-20j, 3.0 + 4.0j
    iv = k_numeric(UpperHalfPlane(), a, b, Resolution(64, 64)).distance
    assert iv.lower == halfplane_distance(a, b)
    assert iv.lower <= iv.upper <= 1.001 * iv.lower


def _edge_weights_all_exact(u, v, ru, rm, rv, punctures, clearance):
    """The clearance test as it ran before the cheap bound: the exact
    segment distance for every edge and every removed point."""
    w = np.abs(v - u) * (ru + 4.0 * rm + rv) / 6.0
    ok = (np.isfinite(ru) & (ru > 0) & np.isfinite(rm) & (rm > 0)
          & np.isfinite(rv) & (rv > 0))
    for q in punctures:
        d = segment_point_distance(u, v, q)
        ok &= d >= clearance * np.minimum(np.abs(u - q), np.abs(v - q))
    return np.where(ok, w, np.inf)


_log_scale = st.floats(min_value=-6.0, max_value=2.0).map(lambda e: 10.0 ** e)
_turn = st.floats(min_value=0.0, max_value=2.0 * math.pi)
_segment = st.tuples(st.sampled_from(["near", "across", "through", "zero"]),
                     st.integers(0, 2), _log_scale, _turn, _log_scale, _turn)


def _draw_segment(punctures, kind, which, r, theta, s, phi):
    q = punctures[which % len(punctures)]
    u = q + r * cmath.exp(1j * theta)
    if kind == "near":        # a short step from u in any direction
        v = u + s * r * cmath.exp(1j * phi)
    elif kind == "across":    # to the antipode of u about q, turned by s sin(phi)
        v = q - r * cmath.exp(1j * theta) * cmath.exp(1j * s * math.sin(phi))
    elif kind == "through":   # along the ray from u through q and beyond
        v = q - s * (u - q)
    else:
        v = u
    return u, v


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf
@settings(deadline=None, max_examples=150)
@given(st.lists(_segment, min_size=1, max_size=24),
       st.sampled_from([0.3, 0.9, 1.0, 1.5]),
       st.sampled_from([[0.0], [0.0, 1.0], FOUR, [1e3 + 2e3j, 1e3 + 2.001e3j]]),
       st.lists(st.sampled_from([1.0, 0.25, 7.5, math.inf, 0.0]), min_size=3, max_size=3))
def test_edge_weights_equal_all_exact_reference(segments, clearance, punctures, rhos):
    u, v = map(np.array, zip(*(_draw_segment(punctures, *seg) for seg in segments)))
    n = u.size
    # mostly admissible densities, so that the clearance test decides
    ru = np.where(np.arange(n) % 5 == 4, rhos[0], 1.0 + np.arange(n))
    rm = np.where(np.arange(n) % 7 == 6, rhos[1], 2.0)
    rv = np.where(np.arange(n) % 3 == 2, rhos[2], 0.5)
    work = {}
    q = np.asarray(punctures)[:, None]
    near = np.minimum(np.abs(u - q), np.abs(v - q))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "CLEARANCE", clearance)
        got = _edge_weights(u, v, ru, rm, rv, _punctures(punctures), near, work)
    want = _edge_weights_all_exact(u, v, ru, rm, rv, punctures, clearance)
    assert got.tobytes() == want.tobytes()
    assert 0 <= work["clearance_exact"] <= n * len(punctures)


# ---------------------------------------------------------------------------
# Path relaxation
# ---------------------------------------------------------------------------

def _edge_weights_reference(u, v, ru, rm, rv, punctures, work):
    """The edge weights and clearance test as they ran before the one-pass
    clearance: the cheap test and then the exact one, puncture by puncture."""
    clearance = solver_module.CLEARANCE
    length = np.abs(v - u)
    with np.errstate(over="ignore"):
        w = length * (ru + 4.0 * rm + rv) / 6.0
    ok = (np.isfinite(ru) & (ru > 0) & np.isfinite(rm) & (rm > 0)
          & np.isfinite(rv) & (rv > 0))
    slack = 1.8 * (1.0 - clearance) if clearance < 1.0 - 1e-12 else 0.0
    for q in punctures:
        near_q = np.minimum(np.abs(u - q), np.abs(v - q))
        pad = 64.0 * np.finfo(float).eps * abs(q)
        hard = np.flatnonzero(ok & ~(length < slack * near_q - pad))
        if hard.size:
            d = segment_point_distance(u[hard], v[hard], q)
            ok[hard] = d >= clearance * near_q[hard]
            work["clearance_exact"] += hard.size
    return np.where(ok, w, np.inf)


def _relax_path_reference(points, density, punctures, res, slack):
    """The relaxation as it runs without buffers or a one-pass clearance
    test: fresh concatenations per round and one pass per puncture.  Each
    half-sweep searches every vertex's offsets in ROUNDS rounds of PROBES
    probes, the first on a grid centred on t = 0, each later one on the two
    cells around the best offset so far, which a probe replaces only on a
    strict gain.  A sweep whose total drop and accepted gain both fall below
    max(1e-6, 1e-6 |total|, RELAX_STOP slack) ends it."""
    work = {"weight_calls": 0, "density_points": 0, "clearance_exact": 0}

    def rho(z):
        work["density_points"] += z.size
        return density(z)

    def weights(u, v, ru, rm, rv):
        work["weight_calls"] += 1
        return _edge_weights_reference(u, v, ru, rm, rv, punctures, work)

    P = np.asarray(points, dtype=np.complex128)
    if P.size < 3:
        return list(points), 0, work
    probes, half = solver_module.PROBES, solver_module.PROBES // 2

    def total(Q):
        u, v = Q[:-1], Q[1:]
        r = rho(Q)
        return float(np.sum(weights(u, v, r[:-1], rho(0.5 * (u + v)), r[1:])))

    current = total(P)
    sweeps_done = 0
    for sweep in range(res.relax_sweeps):
        improved = 0.0
        for parity in (1, 0):
            idx = np.arange(1, P.size - 1)
            idx = idx[idx % 2 == parity]
            if idx.size == 0:
                continue
            zm, zc, zp = P[idx - 1], P[idx], P[idx + 1]
            chord = zp - zm
            clen = np.abs(chord)
            ok = clen > 0
            if not ok.any():
                continue
            idx, zm, zc, zp, chord, clen = (idx[ok], zm[ok], zc[ok], zp[ok],
                                            chord[ok], clen[ok])
            with np.errstate(over="ignore"):
                normal = 1j * chord / clen
            if punctures:
                dq = np.min(np.stack([np.abs(zc - q) for q in punctures]), axis=0)
            else:
                dq = np.full(idx.size, np.inf)
            amp = 0.45 * np.minimum(np.where(np.isfinite(dq), dq, 0.5 * clen),
                                    0.5 * clen)
            m = idx.size
            zm_n, zc_n, zp_n, normal_n = (np.tile(x, probes) for x in (zm, zc, zp, normal))
            r_ends = rho(np.concatenate([zm, zp]))
            r_zm_n, r_zp_n = np.tile(r_ends[:m], probes), np.tile(r_ends[m:], probes)

            def f(t):
                cand = zc_n + t * normal_n
                u = np.concatenate([zm_n, cand])
                v = np.concatenate([cand, zp_n])
                r = rho(np.concatenate([cand, 0.5 * (u + v)]))
                rc = r[:probes * m]
                w = weights(u, v, np.concatenate([r_zm_n, rc]), r[probes * m:],
                            np.concatenate([rc, r_zp_n]))
                return w[:probes * m] + w[probes * m:]

            t_best = np.zeros(m)
            for rnd in range(solver_module.ROUNDS):
                step = amp / (half + 1) ** (rnd + 1)
                t = np.concatenate([t_best + j * step for j in range(-half, half + 1)])
                vals = f(t)
                if rnd == 0:
                    f_best = f_zero = vals[half * m:(half + 1) * m]
                for j in range(probes):
                    gain = vals[j * m:(j + 1) * m] < f_best
                    f_best = np.where(gain, vals[j * m:(j + 1) * m], f_best)
                    t_best = np.where(gain, t[j * m:(j + 1) * m], t_best)
            accept = f_best < f_zero
            if accept.any():
                P[idx[accept]] = (zc + t_best * normal)[accept]
                gains = (f_zero - f_best)[accept]
                improved += float(np.sum(gains[np.isfinite(gains)]))
        sweeps_done = sweep + 1
        new_total = total(P)
        if math.isfinite(new_total):
            tol = max(1e-6, 1e-6 * abs(new_total), solver_module.RELAX_STOP * slack)
            if current - new_total < tol and improved < tol:
                break
            current = new_total
    return [complex(z) for z in P], sweeps_done, work


# relaxations compared against the reference run 2 bracket-search rounds
RELAX_RES = Resolution(radial=8, angular=8, relax_sweeps=4)
# a vertex: (puncture it circles, log10 of its distance, angle)
_vertex = st.tuples(st.integers(0, 3), st.floats(min_value=-3.0, max_value=0.5),
                    st.floats(min_value=0.0, max_value=2.0 * math.pi))


def _polyline(punctures, vertices):
    return [punctures[i % len(punctures)] + 10.0 ** e * cmath.exp(1j * t)
            for i, e, t in vertices]


def _assert_relaxation_matches_reference(dom, density, points, slack=0.0):
    punctures = dom.finite_boundary_points()
    rho = density(dom)
    with np.errstate(invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        # inf - inf among rejected probes
        patch.setattr(solver_module, "ROUNDS", 2)
        want = _relax_path_reference(list(points), rho, punctures, RELAX_RES, slack)
        got = solver_module._relax_path(list(points), rho, punctures, RELAX_RES, slack)
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    assert got[1:] == want[1:]
    return got


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([[0.0, 1.0], FOUR]),
       st.sampled_from([quasihyperbolic_density, chordal_quasihyperbolic_density]),
       st.lists(_vertex, min_size=2, max_size=9),
       st.sampled_from([0.0, 1e-3, 1.0]))
# a last vertex a subnormal distance from the puncture 1: the chord, the
# chordal density and the edge weights overflow, and production must not warn
@example([0.0, 1.0], quasihyperbolic_density, [(0, 0.0, 0.0), (0, 0.0, 0.0), (0, 0.0, 5e-324)],
         0.0)
@example([0.0, 1.0], chordal_quasihyperbolic_density,
         [(0, 0.0, 0.0), (0, 0.0, 0.0), (0, 0.0, 5e-324)], 0.0)
@example([0.0, 1.0], quasihyperbolic_density,
         [(0, 0.0, 0.0), (0, 0.0, 0.0), (0, 0.0, 2.2250738585072014e-308)], 0.0)
def test_relax_path_equals_reference(punctures, density, vertices, slack):
    _assert_relaxation_matches_reference(FiniteComplement(punctures), density,
                                         _polyline(punctures, vertices), slack)


@pytest.mark.parametrize("density", [quasihyperbolic_density, chordal_quasihyperbolic_density],
                         ids=["k", "chordal"])
@pytest.mark.parametrize("punctures", [[0.0, 1.0], FOUR], ids=["two", "four"])
def test_relax_path_equals_reference_near_a_puncture(punctures, density):
    # vertices on alternate sides of 0 and 1: the probes' segments cross
    # near both, so the exact clearance test runs and rejects some
    points = [-0.5 + 0.3j, 0.02 - 0.01j, -0.03 + 0.02j, 0.6 + 0.01j, 1.02 - 0.01j,
              0.98 + 0.02j, 2.1 - 1.0j]
    _, _, work = _assert_relaxation_matches_reference(FiniteComplement(punctures), density,
                                                      points)
    assert work["clearance_exact"] > 0


@pytest.mark.parametrize("dom, density, points", [
    # no removed point: the puncture column is empty, and so is the clearance test
    (UpperHalfPlane(), quasihyperbolic_density,
     [0.3 + 0.2j, 0.8 + 0.9j, 1.1 + 0.3j, 1.7 + 1.4j, 2.0 + 0.6j, 2.5 + 1.5j]),
    (UnitDisk(), chordal_quasihyperbolic_density,
     [-0.6 + 0.1j, -0.3 + 0.5j, 0.0 - 0.2j, 0.3 + 0.4j, 0.6 - 0.1j]),
    # one removed point, which the probes' segments pass close to
    (PuncturedUnitDisk(), quasihyperbolic_density,
     [-0.5 + 0.3j, 0.02 - 0.01j, -0.03 + 0.02j, 0.4 + 0.01j, 0.6 - 0.3j]),
], ids=["half-plane", "disk-chordal", "one-puncture"])
def test_relax_path_equals_reference_with_fewer_punctures(dom, density, points):
    relaxed, sweeps, work = _assert_relaxation_matches_reference(dom, density, points)
    assert sweeps >= 1 and relaxed != points
    assert (work["clearance_exact"] > 0) == bool(dom.finite_boundary_points())


def _search(f, amp):
    """``_bracket_search`` on ``f``, with the shape of each call it made."""
    calls = []

    def counted(t):
        calls.append(t.shape)
        return f(t)

    return solver_module._bracket_search(counted, np.asarray(amp, dtype=float)), calls


def test_bracket_search_finds_an_interior_minimiser():
    amp = np.array([1.0, 0.5, 2.0, 1e-9])
    t0 = np.array([0.3, -0.41, 1.234567, -3.3e-10])
    (t_best, f_best, f_zero), calls = _search(lambda t: (t - t0) ** 2, amp)
    assert calls == [(solver_module.PROBES, amp.size)] * solver_module.ROUNDS
    # within one cell of the last round, whose probes are amp / 9^ROUNDS apart
    cell = amp / (solver_module.PROBES // 2 + 1) ** solver_module.ROUNDS
    assert np.all(np.abs(t_best - t0) <= cell)
    assert np.array_equal(f_best, (t_best - t0) ** 2)
    assert np.array_equal(f_zero, t0 ** 2)


def test_bracket_search_finds_a_minimiser_at_the_bracket_edge():
    amp = np.array([1.0, 0.25])
    (t_best, f_best, f_zero), _ = _search(lambda t: t * np.array([-1.0, 1.0]), amp)
    cell = amp / (solver_module.PROBES // 2 + 1) ** solver_module.ROUNDS
    # the probes nearest the edge lie one cell inside it, up to rounding
    assert np.all(np.abs(t_best) <= amp)
    assert np.all(amp - np.abs(t_best) <= cell * (1.0 + 1e-9))
    assert t_best[0] > 0 > t_best[1]
    assert np.all(f_best < f_zero)


def test_bracket_search_leaves_a_constant_function_at_zero():
    (t_best, f_best, f_zero), _ = _search(lambda t: np.ones_like(t), [1.0, 3.0])
    assert np.array_equal(t_best, [0.0, 0.0])
    assert np.array_equal(f_best, f_zero)


def _path_weights(rho, punctures, points):
    """The three-point weight of each segment of a polyline, clearance
    test included, as the relaxation scores it."""
    z = np.asarray(points, dtype=np.complex128)
    u, v = z[:-1], z[1:]
    r = rho(z)
    q = np.asarray(punctures)[:, None]
    near = np.minimum(np.abs(u - q), np.abs(v - q))
    return _edge_weights(u, v, r[:-1], rho(0.5 * (u + v)), r[1:], _punctures(punctures), near)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([[0.0, 1.0], FOUR]),
       st.sampled_from([quasihyperbolic_density, chordal_quasihyperbolic_density]),
       st.lists(_vertex, min_size=3, max_size=9))
def test_relaxation_lowers_every_moved_vertex_and_the_total(punctures, density, vertices):
    rho = density(FiniteComplement(punctures))
    before = _polyline(punctures, vertices)
    with np.errstate(invalid="ignore"):  # 0 * inf where a vertex sits on a puncture
        # one sweep: the odd vertices move against the old even ones, then
        # the even ones against the moved odd ones
        after, _, _ = solver_module._relax_path(
            list(before), rho, punctures, Resolution(radial=8, angular=8, relax_sweeps=1), 0.0)
        for i in range(1, len(before) - 1):
            ends = before if i % 2 else after
            if after[i] != before[i]:
                # the two segments' weights summed as the search sums them
                w_new = _path_weights(rho, punctures, [ends[i - 1], after[i], ends[i + 1]])
                w_old = _path_weights(rho, punctures, [ends[i - 1], before[i], ends[i + 1]])
                assert w_new[0] + w_new[1] < w_old[0] + w_old[1]
        relaxed, _, _ = solver_module._relax_path(list(before), rho, punctures, RELAX_RES, 0.0)
        assert (math.fsum(_path_weights(rho, punctures, relaxed))
                <= math.fsum(_path_weights(rho, punctures, before)))


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


def test_fast_interval_measures_a_segment_below_rounding_scale():
    # the endpoints are 4.24e-143 apart at scale 1: the segment keeps both
    # and is measured like any other, so the upper bound is its k-length
    dom = FiniteComplement([0.0, 1.0])
    a, b = 1.0j, 1.0j + 4.24e-143
    iv = k_interval_fast(dom, a, b)
    assert iv.upper_source == "segment"
    gap = abs(a - b)
    assert math.isfinite(iv.upper)
    assert iv.lower <= iv.upper <= gap * (1.0 + 1e-12)


def test_fast_interval_at_a_subnormal_segment_is_consistent():
    # a segment of length 1.9e-310: its k-length came out as its pads,
    # 8.4e-323, against the lower bound 2.42e-7, and the interval raised
    a, b = (5.791662683904014e-304 + 5.044546766215964e-304j,
            5.7916643614803846e-304 + 5.044545965386952e-304j)
    iv = k_interval_fast(FiniteComplement([0.0]), a, b)
    assert iv.upper_source == "segment"
    assert iv.lower <= iv.upper <= iv.lower * (1.0 + 1e-6)


def _fast_cold(dom, a, b):
    solver_module._last_fast = None
    return solver_module._k_interval_fast_curves(dom, a, b)


def test_fast_slot_repeat_returns_equal_result_as_fresh_list():
    dom = FiniteComplement([0.0, 1.0])
    a, b = -0.5 + 0.3j, 2.1 - 1.0j
    iv, curves = _fast_cold(dom, a, b)
    assert len(curves) > 1
    curves.clear()  # the caller's list, not the kept one
    again, curves_again = solver_module._k_interval_fast_curves(dom, a, b)
    assert again == iv and k_interval_fast(dom, a, b) == iv
    assert curves_again == _fast_cold(dom, a, b)[1]


def test_fast_slot_tells_signed_zeros_apart():
    # -2 + 0i and -2 - 0i are equal as values, but from 1 - 0i the arc about
    # 0 turns through +i or -i by the sign of the zero (cmath.phase)
    dom = FiniteComplement([0.0, 3.0])
    a, up, down = complex(1.0, -0.0), complex(-2.0, 0.0), complex(-2.0, -0.0)
    _, cold_up = _fast_cold(dom, a, up)
    _, cold_down = _fast_cold(dom, a, down)
    assert cold_up != cold_down
    solver_module._k_interval_fast_curves(dom, a, up)
    assert solver_module._k_interval_fast_curves(dom, a, down)[1] == cold_down
    assert solver_module._k_interval_fast_curves(dom, a, up)[1] == cold_up


def test_fast_slot_tells_domains_with_the_same_punctures_apart():
    punctures = [1.0j, 1.0 + 2.0j]
    plane, half = FiniteComplement(punctures), PuncturedSubdomain(UpperHalfPlane(), punctures)
    a, b = 0.5 + 0.5j, 2.0 + 1.0j
    cold_half, cold_plane = _fast_cold(half, a, b), _fast_cold(plane, a, b)
    assert cold_plane[0] != cold_half[0]
    assert solver_module._k_interval_fast_curves(half, a, b) == cold_half
    assert solver_module._k_interval_fast_curves(plane, a, b) == cold_plane
    # the same punctures in another order: another key, an equal result
    swapped = FiniteComplement(punctures[::-1])
    assert solver_module._k_interval_fast_curves(swapped, a, b)[0] == cold_plane[0]
    kept_for = solver_module._last_fast[0][0]
    assert kept_for == swapped and kept_for != plane


def test_fast_slot_keeps_a_translated_scaled_copy_apart(monkeypatch):
    # the same set, built two ways: two domains, so each is measured
    disk, image = UnitDisk(), TranslatedScaled(UnitDisk(), 1.0, 0.0)
    a, b = 0.3 + 0.4j, -0.5 + 0.1j
    solver_module._last_fast = None
    measured = []
    real_measure = solver_module._measure_fast
    monkeypatch.setattr(solver_module, "_measure_fast",
                        lambda dom, a, b: measured.append(dom) or real_measure(dom, a, b))
    for dom in (disk, disk, image, image, disk):
        solver_module._k_interval_fast_curves(dom, a, b)
    assert measured == [disk, image, disk]
    assert [type(d) for d in measured] == [UnitDisk, TranslatedScaled, UnitDisk]


@pytest.mark.parametrize("L", [64.0, 128.0, 256.0, 512.0, 700.0])
def test_fast_interval_lower_bound_across_decades(L):
    # delta(a)/delta(b) underflows and |a - b|/delta(a) overflows here
    iv = k_interval_fast(FiniteComplement([0.0, 1.0]), math.exp(-L), math.exp(L))
    assert math.isfinite(iv.lower)
    assert iv.lower == pytest.approx(2.0 * L, rel=1e-12)


@pytest.mark.parametrize("L", [32.0, 64.0, 128.0, 256.0, 512.0, 700.0])
def test_fast_interval_arc_about_1_across_decades(L):
    # the arc about 1 starts at e^-L itself, not at (e^-L - 1) + 1, which
    # is the puncture 0 from L = 64 on: its length is 2L + 2.8554660862...
    iv = k_interval_fast(FiniteComplement([0.0, 1.0]), math.exp(-L), math.exp(L))
    assert iv.upper_source == "arc(1+0j)"
    assert iv.upper - 2.0 * L == pytest.approx(2.8554660862, abs=1e-9)


def test_fast_interval_drops_the_segment_through_a_puncture():
    # the segment from e^-32 to e^32 runs through the puncture 1: quadrature
    # used to give it a finite length and report it as the upper bound
    dom = FiniteComplement([0.0, 1.0])
    solver_module._last_fast = None
    iv, curves = solver_module._k_interval_fast_curves(dom, math.exp(-32.0), math.exp(32.0))
    assert iv.upper_source == "arc(1+0j)"
    assert iv.lower == 64.0 and 66.8 < iv.upper < 66.9
    assert [name for _, name in curves] == ["arc(1+0j)"]


def test_fast_interval_is_exact_to_rounding_across_scales():
    # the pair 1e-25 e^(2i), 0.5 + 0.8i, whose quadrature upper bound used to
    # fall below the lower one and be tied to it
    dom = FiniteComplement([0.0, 1.0])
    iv = k_interval_fast(dom, 1e-25 * cmath.exp(2j), 0.5 + 0.8j)
    assert iv.lower == pytest.approx(57.5148, abs=1e-4)
    assert iv.upper == pytest.approx(57.7609, abs=1e-4)


def test_an_upper_bound_below_the_lower_one_raises(monkeypatch):
    # no clamp ties an inverted enclosure together any more
    dom = FiniteComplement([0.0, 1.0])
    monkeypatch.setattr(solver_module, "punctured_k_length", lambda path, punctures: 1.0)
    solver_module._last_fast = None
    with pytest.raises(InconsistentIntervalError):
        k_interval_fast(dom, -0.5 + 0.3j, 2.1 - 1.0j)
    with pytest.raises(InconsistentIntervalError):
        k_numeric(dom, -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES)
    solver_module._last_fast = None


def test_fast_interval_overflowing_piece_is_infinite():
    # on every candidate curve some piece's density times length overflows:
    # its length is inf, without the RuntimeWarnings of an overflow and then
    # of inf - inf in the error estimate
    solver_module._last_fast = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iv = k_interval_fast(UpperHalfPlane(), 1e200 + 1e-200j, 1e-200j)
    assert (iv.lower, iv.upper) == (1842.0680743952366, math.inf)


def test_fast_interval_ordering_and_speed_shape():
    dom = FiniteComplement([0.0, 1.0, 2.0j])
    iv = k_interval_fast(dom, -1.0, 3.0 + 1.0j)
    assert 0.0 < iv.lower <= iv.upper < math.inf
    assert iv.lower_source and iv.upper_source


# ---------------------------------------------------------------------------
# Annulus middle-band comparison
# ---------------------------------------------------------------------------

def test_annulus_inside_predicate():
    dom = FiniteComplement([0.0, 100.0])
    assert annulus_inside(dom, Annulus(0.0, inner=0.01, outer=50.0))
    assert not annulus_inside(dom, Annulus(0.0, inner=0.01, outer=200.0))


def test_annulus_comparison_middle_band():
    dom = FiniteComplement([0.0, 100.0])
    report = check_annulus_k_comparison(
        dom, Annulus(0.0, inner=0.01, outer=50.0), n_pairs=6, seed=1
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
        check_annulus_k_comparison(dom, Annulus(0.0, inner=10.0, outer=30.0))


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

