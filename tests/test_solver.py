"""Numeric quasihyperbolic solver: exact anchors, certified enclosures, checks."""

import cmath
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp import (
    Annulus,
    FiniteComplement,
    Resolution,
    UpperHalfPlane,
    annulus_inside,
    check_annulus_k_comparison,
    chordal_gp_lower,
    gp_lower_bound,
    k_chordal_numeric,
    k_halfplane_exact,
    k_interval_fast,
    k_lower_analytic,
    k_numeric,
    k_star_exact,
)
from qhyp.densities import chordal_quasihyperbolic_density, quasihyperbolic_density
from qhyp.geometry import segment_point_distance
from qhyp import solver as solver_module
from qhyp.solver import _build_graph, _edge_weights

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
    _evict_grid()
    result = k_numeric(dom, -0.5 + 0.3j, 2.1 - 1.0j, PINNED_RES)
    meta = result.meta
    assert meta["grid_reused"] is False
    for key in ("build_s", "dijkstra_s", "relax_s", "measure_s", "stitch_s",
                "clearance_s", "weights_s"):
        assert meta[key] >= 0.0
    assert meta["stitch_s"] + meta["clearance_s"] + meta["weights_s"] <= meta["build_s"]
    # one weight evaluation for the graph, and at least one per relaxation step
    assert meta["weight_calls"] > 1 + meta["relax_sweeps"]
    assert meta["density_points"] > meta["nodes"] + meta["edges"]
    # two charts, stitched; the exact clearance test runs on a few edges only
    assert 0 < meta["stitch_edges"] < meta["edges"]
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
            tuple(result.meta[k] for k in ("nodes", "edges", "stitch_edges",
                                           "graph_length", "relax_sweeps", "measured")))


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
        assert meta["stitch_s"] == meta["clearance_s"] == 0.0
        assert meta["stitch_edges"] == first.meta["stitch_edges"] > 0
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
        res = Resolution(radial=32, angular=32, clearance=0.31)
    assert k_chordal_numeric(dom, a, b, res).meta["grid_reused"] is False


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
# SHA-256 over the node positions, the CSR data, indices and indptr (as
# int64) and the anchor ids of _build_graph at 128x128, with (nodes, edges),
# recorded before the stitching, anchor lookup, dedupe and clearance test
# were rewritten.  Every byte must stay the same.
PINNED_GRAPHS = [
    ([0.0, 1.0], (-0.5 + 0.3j, 2.1 - 1.0j), quasihyperbolic_density, 32770, 248862,
     "8ea71c3e827d739846a981590d38ab5892c4cf772b42de87d2d842033826808f"),
    ([0.0, 1.0], (-0.5 + 0.3j, 2.1 - 1.0j), chordal_quasihyperbolic_density, 32770, 248862,
     "40a3a7b0f5275152c0b54a9acd1f4ba778b81ee3bea773bca9609ef7fde50c9a"),
    (FOUR, _first_sampled_pair(FOUR), quasihyperbolic_density, 65538, 1045272,
     "09fe9364934104139f100e510881199c9cde69fa99483f312517f9aa11ceaa75"),
    (FOUR, _first_sampled_pair(FOUR), chordal_quasihyperbolic_density, 65538, 1045272,
     "d1a540b3e1ab98b6dd161913fcc65c67a7e41cbaceb2504b9619ffda58415c3d"),
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
    got = _edge_weights(u, v, ru, rm, rv, punctures, clearance, work)
    want = _edge_weights_all_exact(u, v, ru, rm, rv, punctures, clearance)
    assert got.tobytes() == want.tobytes()
    assert 0 <= work["clearance_exact"] <= n * len(punctures)


# ---------------------------------------------------------------------------
# Path relaxation
# ---------------------------------------------------------------------------

def _edge_weights_reference(u, v, ru, rm, rv, punctures, clearance, work):
    """The edge weights and clearance test as they ran before the one-pass
    clearance: the cheap test and then the exact one, puncture by puncture."""
    length = np.abs(v - u)
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


def _relax_path_reference(points, density, punctures, res):
    """The relaxation as it ran before its buffers and one-pass clearance
    test: fresh concatenations per probe and one pass per puncture."""
    work = {"weight_calls": 0, "density_points": 0, "clearance_exact": 0}

    def rho(z):
        work["density_points"] += z.size
        return density(z)

    def weights(u, v, ru, rm, rv):
        work["weight_calls"] += 1
        return _edge_weights_reference(u, v, ru, rm, rv, punctures, res.clearance, work)

    P = np.asarray(points, dtype=np.complex128)
    if P.size < 3:
        return list(points), 0, work
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

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
            normal = 1j * chord / clen
            if punctures:
                dq = np.min(np.stack([np.abs(zc - q) for q in punctures]), axis=0)
            else:
                dq = np.full(idx.size, np.inf)
            amp = 0.45 * np.minimum(np.where(np.isfinite(dq), dq, 0.5 * clen),
                                    0.5 * clen)
            m = idx.size
            zm2, zc2, zp2, normal2 = (np.tile(x, 2) for x in (zm, zc, zp, normal))
            r_ends = rho(np.concatenate([zm, zp]))
            r_zm2, r_zp2 = np.tile(r_ends[:m], 2), np.tile(r_ends[m:], 2)

            def f(t):
                cand = zc2 + t * normal2
                u = np.concatenate([zm2, cand])
                v = np.concatenate([cand, zp2])
                r = rho(np.concatenate([cand, 0.5 * (u + v)]))
                rc = r[:2 * m]
                w = weights(u, v, np.concatenate([r_zm2, rc]), r[2 * m:],
                            np.concatenate([rc, r_zp2]))
                return w[:2 * m] + w[2 * m:]

            lo, hi = -amp, amp
            for _ in range(res.golden_iters):
                c1 = hi - invphi * (hi - lo)
                c2 = lo + invphi * (hi - lo)
                fc = f(np.concatenate([c1, c2]))
                left = fc[:m] < fc[m:]
                hi = np.where(left, c2, hi)
                lo = np.where(left, lo, c1)
            t_best = 0.5 * (lo + hi)
            fb = f(np.concatenate([t_best, np.zeros_like(t_best)]))
            f_best, f_zero = fb[:m], fb[m:]
            accept = f_best < f_zero
            if accept.any():
                P[idx[accept]] = (zc + t_best * normal)[accept]
                gains = (f_zero - f_best)[accept]
                improved += float(np.sum(gains[np.isfinite(gains)]))
        sweeps_done = sweep + 1
        new_total = total(P)
        if math.isfinite(new_total):
            if current - new_total < max(1e-6, 1e-6 * abs(new_total)) \
                    and improved < max(1e-6, 1e-6 * abs(new_total)):
                current = new_total
                break
            current = new_total
    return [complex(z) for z in P], sweeps_done, work


RELAX_RES = Resolution(radial=8, angular=8, relax_sweeps=4, golden_iters=8)
# a vertex: (puncture it circles, log10 of its distance, angle)
_vertex = st.tuples(st.integers(0, 3), st.floats(min_value=-3.0, max_value=0.5),
                    st.floats(min_value=0.0, max_value=2.0 * math.pi))


def _polyline(punctures, vertices):
    return [punctures[i % len(punctures)] + 10.0 ** e * cmath.exp(1j * t)
            for i, e, t in vertices]


def _assert_relaxation_matches_reference(punctures, density, points):
    dom = FiniteComplement(punctures)
    rho = density(dom)
    with np.errstate(invalid="ignore"):  # inf - inf among rejected probes
        want = _relax_path_reference(list(points), rho, punctures, RELAX_RES)
        got = solver_module._relax_path(list(points), rho, punctures, RELAX_RES)
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    assert got[1:] == want[1:]
    return got[2]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([[0.0, 1.0], FOUR]),
       st.sampled_from([quasihyperbolic_density, chordal_quasihyperbolic_density]),
       st.lists(_vertex, min_size=2, max_size=9))
def test_relax_path_equals_reference(punctures, density, vertices):
    _assert_relaxation_matches_reference(punctures, density, _polyline(punctures, vertices))


@pytest.mark.parametrize("density", [quasihyperbolic_density, chordal_quasihyperbolic_density],
                         ids=["k", "chordal"])
@pytest.mark.parametrize("punctures", [[0.0, 1.0], FOUR], ids=["two", "four"])
def test_relax_path_equals_reference_near_a_puncture(punctures, density):
    # vertices on alternate sides of 0 and 1: the probes' segments cross
    # near both, so the exact clearance test runs and rejects some
    points = [-0.5 + 0.3j, 0.02 - 0.01j, -0.03 + 0.02j, 0.6 + 0.01j, 1.02 - 0.01j,
              0.98 + 0.02j, 2.1 - 1.0j]
    work = _assert_relaxation_matches_reference(punctures, density, points)
    assert work["clearance_exact"] > 0


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

