"""Numeric quasihyperbolic geodesics with certified two-sided enclosures.

The solver builds overlapping log-polar grids around each removed point (or a
height-graded Cartesian grid for a half-plane), runs a shortest-path search
with quadrature edge weights, straightens the discrete path by local
perpendicular relaxation, and then measures the final curve with adaptive
quadrature.  The measured length is a genuine upper bound for the distance;
the lower bound comes from closed-form estimates, so the returned interval is
certified up to quadrature tolerance.

The graph is built in two steps.  The grid is free of the density: the
charts, the nodes inside the domain, the stitched edges, the anchors and the
edges that keep clear of the removed points.  The weighting evaluates one
density on it.  The last grid is kept in one module-level slot (about 18 MB
at 128x128 on four punctures) and reused when the same domain, anchors and
``Resolution`` come again, as they do for ``k_chordal_numeric`` after
``k_numeric`` on the same pair, and for either solver with the endpoints
swapped.

Each ``GeodesicResult.meta`` reports what the solve cost: seconds per stage
(``build_s``, ``dijkstra_s``, ``relax_s``, ``measure_s``, and within the
build ``stitch_s`` for the chart stitching, ``clearance_s`` for the
clearance test and ``weights_s`` for the node and midpoint densities and the
weights), whether the grid was reused (``grid_reused``; then ``stitch_s`` and
``clearance_s`` are 0), the graph's ``nodes``, ``edges`` and
``stitch_edges``, and the work of the graph and the relaxation together
(``weight_calls``, ``density_points``, and ``clearance_exact``, the edges
whose clearance needed the exact segment distance).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra
from scipy.spatial import cKDTree

from .densities import (
    DistanceInterval,
    chordal_quasihyperbolic_density,
    quasihyperbolic_density,
)
from .domains import (
    ComplementPoint,
    Domain,
    OutsideDomainError,
    UnsupportedDomainError,
    UpperHalfPlane,
    halfplane_distance,
    k_star_exact,
    rho_length,
)
from .geometry import Annulus, Polyline, chi_arc, segment_point_distance


class SolverError(RuntimeError):
    """The discrete search could not produce a usable path."""


MARGIN = 0.7         # extra log-radius padding of each chart around the data
STITCH_K = 8         # neighbours tried when stitching a chart to the earlier ones
ENDPOINT_K = 12      # grid nodes wired to each anchor
MEASURE_TOL = 1e-9   # tolerance, and outward pad, of the final length measurement


@dataclass(frozen=True)
class Resolution:
    """Grid and relaxation budget for the numeric solver."""

    radial: int = 256
    angular: int = 256
    relax_sweeps: int = 28
    golden_iters: int = 18
    clearance: float = 0.3       # segment-to-puncture rejection factor

    def __post_init__(self):
        if self.radial < 8 or self.angular < 8:
            raise ValueError("grid needs at least 8 samples per direction")


@dataclass(frozen=True)
class GeodesicResult:
    distance: DistanceInterval
    path: Polyline
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"distance": self.distance.as_dict(),
                "path": [[p.real, p.imag] for p in self.path.points],
                "meta": self.meta}


# ---------------------------------------------------------------------------
# Closed forms and analytic lower bounds
# ---------------------------------------------------------------------------

# On the upper half-plane the quasihyperbolic and hyperbolic distances agree.
k_halfplane_exact = halfplane_distance


def gp_lower_bound(domain: Domain, a: complex, b: complex) -> float:
    """log(1 + |a-b| / min(delta(a), delta(b)))."""
    return math.log1p(abs(a - b) / min(domain.delta(a), domain.delta(b)))


def gp_ratio_lower_bound(domain: Domain, a: complex, b: complex) -> float:
    """|log(delta(a) / delta(b))|."""
    return abs(math.log(domain.delta(a) / domain.delta(b)))


def k_lower_analytic(domain: Domain, a: complex, b: complex) -> Tuple[float, str]:
    """Best available closed-form lower bound for the quasihyperbolic
    distance, with the name of the winning estimate."""
    a, b = complex(a), complex(b)
    best = (gp_lower_bound(domain, a, b), "gap")
    ratio = (gp_ratio_lower_bound(domain, a, b), "gap-ratio")
    if ratio[0] > best[0]:
        best = ratio
    for comp in domain.complement_components():
        model = comp.k_lower(a, b)
        if model is not None and model[0] > best[0]:
            best = model
    return best


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

def _clear_of_punctures(u: np.ndarray, v: np.ndarray, length: np.ndarray,
                        near: np.ndarray, punctures: Sequence[complex],
                        clearance: float, ok: np.ndarray,
                        work: Optional[dict] = None) -> None:
    """Clear ``ok`` where the segment [u, v] passes too close to a removed
    point; ``length`` is |v - u|, and row i of the (P, n) array ``near`` is
    min(|u - q|, |v - q|) for the i-th q of ``punctures``.  The cheap test
    runs for all rows in one pass.

    A segment is rejected when its distance to q falls below
    ``clearance * near``.  Every point of [u, v] lies within L/2 of an end,
    L = |v - u|, so the segment keeps at least near - L/2 from q and passes
    whenever L <= 2 (1 - clearance) near.  The cheap test uses 0.9 of that
    slack, less 64 ulps of |q| for the rounding of ``segment_point_distance``
    in absolute coordinates, and is off when clearance is within 1e-12 of 1
    or above, so it passes only segments whose exact test would pass too.
    The exact distance is computed, puncture by puncture in order, for the
    segments that fail the cheap test and are still admissible, and their
    number is added to ``work["clearance_exact"]``.
    """
    slack = 1.8 * (1.0 - clearance) if clearance < 1.0 - 1e-12 else 0.0
    pads = np.array([64.0 * sys.float_info.epsilon * abs(q) for q in punctures])
    fails = ~(length < slack * near - pads[:, None])
    tests = zip(fails, near) if (fails & ok).any() else ()
    exact = 0
    for q, (fail, near_q) in zip(punctures, tests):
        hard = np.flatnonzero(ok & fail)
        if hard.size:
            d = segment_point_distance(u[hard], v[hard], q)
            ok[hard] = d >= clearance * near_q[hard]
            exact += hard.size
    if work is not None:
        work["clearance_exact"] = work.get("clearance_exact", 0) + exact


def _edge_weights(u: np.ndarray, v: np.ndarray, ru: np.ndarray, rm: np.ndarray,
                  rv: np.ndarray, punctures: Sequence[complex],
                  clearance: float, work: Optional[dict] = None) -> np.ndarray:
    """Three-point quadrature weight per segment [u, v] from the density at
    its start, midpoint and end; inf where the segment is invalid (a density
    that is not finite and positive, or a dive toward a removed point, as
    judged by ``_clear_of_punctures`` in one pass)."""
    length = np.abs(v - u)
    w = length * (ru + 4.0 * rm + rv) / 6.0
    ok = (np.isfinite(ru) & (ru > 0) & np.isfinite(rm) & (rm > 0)
          & np.isfinite(rv) & (rv > 0))
    if len(punctures):
        q = np.asarray(punctures, dtype=np.complex128)[:, None]
        near = np.minimum(np.abs(u - q), np.abs(v - q))
        _clear_of_punctures(u, v, length, near, punctures, clearance, ok, work)
    return np.where(ok, w, np.inf)


class _Chart:
    __slots__ = ("nodes", "spacing", "pairs")

    def __init__(self, nodes: np.ndarray, spacing: np.ndarray,
                 pairs: np.ndarray):
        self.nodes = nodes        # complex positions
        self.spacing = spacing    # local grid spacing per node
        self.pairs = pairs        # (m, 2) intra-chart edge index pairs


def _grid_pairs(rows: int, cols: int, wrap: bool) -> np.ndarray:
    """(m, 2) index pairs of the 8-neighbour stencil on a row-major grid;
    with ``wrap`` the last column neighbours the first."""
    pairs: List[np.ndarray] = []
    jj = np.arange(cols)
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        i0 = np.arange(0, rows - di)
        j0 = jj if wrap else jj[max(0, -dj): cols - max(0, dj)]
        a_idx = (i0[:, None] * cols + j0[None, :]).ravel()
        b_idx = ((i0 + di)[:, None] * cols + ((j0 + dj) % cols)[None, :]).ravel()
        pairs.append(np.stack([a_idx, b_idx], axis=1))
    return np.concatenate(pairs, axis=0)


def _log_polar_chart(p: complex, s_min: float, s_max: float,
                     res: Resolution) -> _Chart:
    ns, na = res.radial, res.angular
    s = np.linspace(s_min, s_max, ns)
    theta = np.arange(na) * (2.0 * math.pi / na)
    z = p + np.exp(s[:, None] + 1j * theta[None, :])
    ds = (s_max - s_min) / max(ns - 1, 1)
    dth = 2.0 * math.pi / na
    h = max(ds, dth)
    spacing = (np.exp(s)[:, None] * h * np.ones((1, na))).ravel()
    return _Chart(z.ravel(), spacing, _grid_pairs(ns, na, wrap=True))


def _halfplane_chart(a: complex, b: complex, res: Resolution) -> _Chart:
    span = max(abs(a - b), abs(a.imag), abs(b.imag), 1e-12)
    x_lo = min(a.real, b.real) - 1.5 * span
    x_hi = max(a.real, b.real) + 1.5 * span
    y_lo = min(a.imag, b.imag) * math.exp(-MARGIN)
    y_hi = max(a.imag, b.imag, 0.75 * abs(a - b)) * math.exp(MARGIN) * 2.0
    nx, nt = res.angular, res.radial
    x = np.linspace(x_lo, x_hi, nx)
    t = np.linspace(math.log(y_lo), math.log(y_hi), nt)
    z = x[None, :] + 1j * np.exp(t)[:, None]
    dx = (x_hi - x_lo) / max(nx - 1, 1)
    dt = (t[-1] - t[0]) / max(nt - 1, 1)
    spacing = np.maximum(dx, np.exp(t)[:, None] * dt * np.ones((1, nx))).ravel()
    return _Chart(z.ravel(), spacing, _grid_pairs(nt, nx, wrap=False))


def _charts_for(domain: Domain, a: complex, b: complex,
                res: Resolution) -> List[_Chart]:
    if isinstance(domain, UpperHalfPlane):
        return [_halfplane_chart(a, b, res)]
    comps = domain.complement_components()
    if comps and all(isinstance(c, ComplementPoint) for c in comps):
        punctures = [c.point for c in comps]
        charts = []
        for p in punctures:
            others = [q for q in punctures if q != p]
            d_a, d_b = abs(a - p), abs(b - p)
            reach = max([d_a, d_b] + [abs(q - p) for q in others])
            lo = min([d_a, d_b] + [abs(q - p) / 2.0 for q in others])
            s_min = math.log(lo) - MARGIN
            s_max = math.log(2.0 * reach) + MARGIN
            charts.append(_log_polar_chart(p, s_min, s_max, res))
        return charts
    raise UnsupportedDomainError(
        "numeric geodesics support point-complement domains and the upper half-plane")


@dataclass(frozen=True)
class _Grid:
    """The density-free part of a solver graph.  Its arrays are read-only."""

    nodes: np.ndarray               # valid chart nodes, then the anchors
    lo: np.ndarray                  # edges that pass the clearance test, as
    hi: np.ndarray                  # (lower id, higher id)
    anchor_ids: Tuple[int, ...]
    charts: int
    stitch_edges: int               # chart-to-chart candidates
    stitch_s: float
    clearance_s: float
    clearance_exact: int


def _build_grid(domain: Domain, anchors: Sequence[complex], res: Resolution) -> _Grid:
    charts = _charts_for(domain, anchors[0], anchors[-1], res)
    punctures = domain.finite_boundary_points()

    all_nodes: List[np.ndarray] = []
    all_spacing: List[np.ndarray] = []
    all_pairs: List[np.ndarray] = []
    offset = 0
    chart_slices: List[Tuple[int, int]] = []
    for ch in charts:
        valid = domain.delta_field(ch.nodes) > 0
        remap = -np.ones(ch.nodes.size, dtype=np.int64)
        remap[valid] = np.arange(int(valid.sum())) + offset
        pairs = remap[ch.pairs]
        pairs = pairs[(pairs >= 0).all(axis=1)]
        all_nodes.append(ch.nodes[valid])
        all_spacing.append(ch.spacing[valid])
        all_pairs.append(pairs)
        chart_slices.append((offset, offset + int(valid.sum())))
        offset += int(valid.sum())

    nodes = np.concatenate(all_nodes)
    spacing = np.concatenate(all_spacing)

    # Stitch chart overlaps: chart j's tree, built once, takes every node of
    # the earlier charts in one query.  Each pair links a chart to a later one
    # and grid stencils hold no pair twice, so no undirected edge repeats.
    t0 = time.perf_counter()
    coords = np.stack([nodes.real, nodes.imag], axis=1)
    for lo_j, hi_j in chart_slices[1:]:
        d, idx = cKDTree(coords[lo_j:hi_j]).query(
            coords[:lo_j], k=min(STITCH_K, hi_j - lo_j))
        if d.ndim == 1:
            d, idx = d[:, None], idx[:, None]
        dst = idx + lo_j
        keep = d <= 2.5 * np.maximum(spacing[:lo_j, None], spacing[dst])
        all_pairs.append(np.stack([np.nonzero(keep)[0], dst[keep]], axis=1))
    stitch_edges = sum(p.shape[0] for p in all_pairs[len(charts):])
    t1 = time.perf_counter()

    # anchors as explicit nodes, wired to their nearest grid nodes (by the
    # squared distance a k-d tree would compare)
    n0 = nodes.size
    k = min(ENDPOINT_K, n0)
    anchor_arr = np.asarray(list(anchors), dtype=np.complex128)
    anchor_ids = tuple(range(n0, n0 + anchor_arr.size))
    for aid, z0 in zip(anchor_ids, anchor_arr):
        dx, dy = nodes.real - z0.real, nodes.imag - z0.imag
        idx = np.argpartition(dx * dx + dy * dy, k - 1)[:k]
        all_pairs.append(np.stack([idx, np.full(k, aid)], axis=1))
    nodes = np.concatenate([nodes, anchor_arr])
    pairs = np.concatenate(all_pairs, axis=0)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])

    # the clearance test, with each node's distance to each removed point
    # computed once and gathered for both ends of every edge
    t2 = time.perf_counter()
    u, v = nodes[lo], nodes[hi]
    length = np.abs(v - u)
    clear = np.ones(lo.size, dtype=bool)
    work = {"clearance_exact": 0}
    # one puncture at a time: a (P, n) array over ~1M edges costs too much memory
    for q in punctures:
        dq = np.abs(nodes - q)
        _clear_of_punctures(u, v, length, np.minimum(dq[lo], dq[hi])[None], (q,),
                            res.clearance, clear, work)
    lo, hi = lo[clear], hi[clear]
    t3 = time.perf_counter()

    for arr in (nodes, lo, hi):
        arr.flags.writeable = False
    return _Grid(nodes, lo, hi, anchor_ids, len(charts), int(stitch_edges),
                 t1 - t0, t3 - t2, work["clearance_exact"])


# The last grid built, as (key, grid), or None.  There is one slot: a miss
# empties it before building, so two grids are never alive together.  Key and
# grid are stored and read as one tuple, so a caller in another thread sees
# the old pair, the new one or none, never a grid under another's key.
_last_grid: Optional[Tuple[tuple, _Grid]] = None


def _grid_for(domain: Domain, anchors: Sequence[complex],
              res: Resolution) -> Tuple[_Grid, bool]:
    """The grid of (domain, anchors, res), and whether it was reused."""
    global _last_grid
    key = (type(domain), json.dumps(domain.to_json_dict(), sort_keys=True),
           np.asarray(list(anchors), dtype=np.complex128).tobytes(), res)
    last = _last_grid
    if last is not None and last[0] == key:
        return last[1], True
    last = _last_grid = None
    grid = _build_grid(domain, anchors, res)
    _last_grid = (key, grid)
    return grid, False


def _build_graph(domain: Domain, anchors: Sequence[complex], res: Resolution,
                 density) -> Tuple[np.ndarray, csr_matrix, List[int], dict]:
    """Assemble the stitched multi-chart graph in two steps.

    The grid does not depend on the density: the charts, the nodes where
    ``delta_field > 0``, the chart stitching, the anchors (appended as
    explicit nodes wired to their nearest grid nodes) and the edges that
    pass the clearance test, each stored once as (lower id, higher id).  The
    last grid is kept in one module-level slot, keyed by the domain's type
    and JSON, the anchors bit for bit and the ``Resolution``, and is reused
    when the same key comes again: ``k_chordal_numeric`` after ``k_numeric``
    on the same problem, or either solver with the endpoints swapped (the
    anchors are put in canonical order).  At 128x128 on four punctures the
    slot holds about 18 MB; a miss empties it before building.

    The weighting is per density: the density at every node and edge
    midpoint, the three-point quadrature weight, the drop of edges whose
    densities are not finite and positive, and the CSR matrix.

    Returns (node positions, symmetric weight matrix, anchor node ids, meta).
    The node positions are the grid's read-only array.  The meta holds
    ``charts``, ``nodes``, ``edges`` (after dropping inadmissible ones),
    ``stitch_edges`` (chart-to-chart candidates), ``grid_reused``,
    ``stitch_s``, ``clearance_s`` and ``weights_s`` (perf_counter seconds of
    the stitching, the clearance test and the densities and weights),
    ``weight_calls``, ``density_points`` and ``clearance_exact`` (edges that
    needed ``segment_point_distance``).  On a reused grid ``stitch_s``,
    ``clearance_s`` and ``clearance_exact`` are 0, since that work was not
    done; ``stitch_edges`` still describes the graph.
    """
    grid, reused = _grid_for(domain, anchors, res)
    nodes, lo, hi = grid.nodes, grid.lo, grid.hi

    # the density once per node, gathered for both ends of every edge; the
    # grid's edges have passed the clearance test, so no puncture is passed
    t0 = time.perf_counter()
    rho = density(nodes)
    u, v = nodes[lo], nodes[hi]
    w = _edge_weights(u, v, rho[lo], density(0.5 * (u + v)), rho[hi], (), res.clearance)
    t1 = time.perf_counter()
    keep = np.isfinite(w)
    lo, hi, w = lo[keep], hi[keep], w[keep]
    if not keep.any():
        raise SolverError("no admissible edges near the requested points")
    graph = csr_matrix((w, (lo, hi)), shape=(nodes.size, nodes.size))
    meta = {"charts": grid.charts, "nodes": int(nodes.size), "edges": int(w.size),
            "stitch_edges": grid.stitch_edges, "grid_reused": reused,
            "stitch_s": 0.0 if reused else grid.stitch_s,
            "clearance_s": 0.0 if reused else grid.clearance_s,
            "weights_s": t1 - t0,
            "weight_calls": 1, "density_points": int(nodes.size + u.size),
            "clearance_exact": 0 if reused else grid.clearance_exact}
    return nodes, graph, list(grid.anchor_ids), meta


def _shortest_path(nodes: np.ndarray, graph: csr_matrix, ia: int,
                   ib: int) -> Tuple[List[complex], float]:
    dist, pred = _dijkstra(graph, directed=False, indices=ia,
                           return_predecessors=True)
    if not math.isfinite(dist[ib]):
        raise SolverError("grid is disconnected between the endpoints; "
                          "raise the resolution")
    path = [ib]
    j = ib
    while j != ia:
        j = int(pred[j])
        if j < 0:
            raise SolverError("predecessor walk failed")
        path.append(j)
    path.reverse()
    return [complex(nodes[i]) for i in path], float(dist[ib])


# ---------------------------------------------------------------------------
# Path relaxation
# ---------------------------------------------------------------------------

def _relax_path(points: List[complex], density, punctures: Sequence[complex],
                res: Resolution) -> Tuple[List[complex], int, dict]:
    """Red-black perpendicular relaxation with a vectorized golden search.

    A half-sweep moves every other interior vertex along the normal of the
    chord between its neighbours zm and zp.  Both golden-section probes c1
    and c2 of its m vertices are scored by one weight evaluation over the 4m
    stacked segments zm->c1, zm->c2, c1->zp, c2->zp, as are the final offset
    and the unmoved vertex.  The segment ends, their densities and the
    probe points live in arrays allocated once per half-sweep; a probe
    writes its candidates and midpoints into them.  The ends zm and zp are
    fixed for the half-sweep, so their densities are computed once per
    half-sweep, and the density at a candidate once for both its segments.
    The clearance test runs in one pass over all punctures, with the exact
    test as an in-order fallback (see ``_clear_of_punctures``), so
    ``clearance_exact`` counts what the puncture-by-puncture test counts.
    Each probe, comparison and sum is that of scoring the probes one by
    one.

    Returns the relaxed points, the sweeps run, and the work done as
    ``weight_calls``, ``density_points`` and ``clearance_exact``.
    """
    work = {"weight_calls": 0, "density_points": 0, "clearance_exact": 0}

    def rho(z):
        work["density_points"] += z.size
        return density(z)

    def weights(u, v, ru, rm, rv):
        work["weight_calls"] += 1
        return _edge_weights(u, v, ru, rm, rv, punctures, res.clearance, work)

    P = np.asarray(points, dtype=np.complex128)
    if P.size < 3:
        return list(points), 0, work
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    q_col = np.asarray(punctures, dtype=np.complex128)[:, None]

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
                dq = np.abs(zc - q_col).min(axis=0)
            else:
                dq = np.full(idx.size, np.inf)
            amp = 0.45 * np.minimum(np.where(np.isfinite(dq), dq, 0.5 * clen),
                                    0.5 * clen)

            # two offsets per vertex, stacked: the first m and the last m.
            # Segments zm->cand fill the first 2m slots, cand->zp the last
            # 2m; the fixed ends and their densities go in once.
            m = idx.size
            n2 = 2 * m
            zc2, normal2 = np.tile(zc, 2), np.tile(normal, 2)
            r_ends = rho(np.concatenate([zm, zp]))
            u, v = np.empty(2 * n2, dtype=np.complex128), np.empty(2 * n2, dtype=np.complex128)
            ru, rv = np.empty(2 * n2), np.empty(2 * n2)
            u[:n2], v[n2:] = np.tile(zm, 2), np.tile(zp, 2)
            ru[:n2], rv[n2:] = np.tile(r_ends[:m], 2), np.tile(r_ends[m:], 2)
            probes = np.empty(3 * n2, dtype=np.complex128)  # candidates, midpoints
            cand, mid = probes[:n2], probes[n2:]

            def f(t):
                np.multiply(t, normal2, out=cand)
                np.add(zc2, cand, out=cand)
                u[n2:] = v[:n2] = cand
                np.multiply(0.5, np.add(u, v, out=mid), out=mid)
                r = rho(probes)
                ru[n2:] = rv[:n2] = r[:n2]
                w = weights(u, v, ru, r[n2:], rv)
                return w[:n2] + w[n2:]

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


# ---------------------------------------------------------------------------
# The public solvers
# ---------------------------------------------------------------------------

def _canonical(a: complex, b: complex) -> Tuple[complex, complex, bool]:
    if (a.real, a.imag) <= (b.real, b.imag):
        return a, b, False
    return b, a, True


def _geodesic(domain: Domain, a: complex, b: complex, density,
              lower: Tuple[float, str], res: Resolution) -> GeodesicResult:
    a, b = complex(a), complex(b)
    domain.delta(a)
    domain.delta(b)
    if a == b:
        iv = DistanceInterval(0.0, 0.0, "coincident", "coincident")
        return GeodesicResult(iv, Polyline([a]), {"nodes": 0})

    ca, cb, flipped = _canonical(a, b)
    punctures = domain.finite_boundary_points()
    t0 = time.perf_counter()
    nodes, graph, (ia, ib), meta = _build_graph(domain, [ca, cb], res, density)
    t1 = time.perf_counter()
    raw, graph_len = _shortest_path(nodes, graph, ia, ib)
    meta["graph_length"] = graph_len
    t2 = time.perf_counter()

    relaxed, sweeps, work = _relax_path(raw, density, punctures, res)
    meta["relax_sweeps"] = sweeps
    t3 = time.perf_counter()
    path = Polyline.cleaned(relaxed)
    measured = rho_length(path, density, rel_tol=MEASURE_TOL)
    upper = measured * (1.0 + MEASURE_TOL)
    meta["measured"] = measured
    for key, value in work.items():
        meta[key] = meta.get(key, 0) + value
    meta.update(build_s=t1 - t0, dijkstra_s=t2 - t1, relax_s=t3 - t2,
                measure_s=time.perf_counter() - t3)

    lo_val, lo_src = lower
    if upper < lo_val:
        # quadrature noise on exactly known pairs; tie the interval together
        upper = lo_val
    iv = DistanceInterval(lo_val, upper, lo_src, "relaxed-grid-path")
    if flipped:
        path = path.reversed()
    return GeodesicResult(iv, path, meta)


def k_numeric(domain: Domain, a: complex, b: complex,
              resolution: Optional[Resolution] = None) -> GeodesicResult:
    """Certified enclosure of the quasihyperbolic distance along with the
    discrete near-geodesic.  Lower bounds are exact for one removed point and
    for the half-plane."""
    res = resolution or Resolution()
    density = quasihyperbolic_density(domain)
    comps = domain.complement_components()
    if isinstance(domain, UpperHalfPlane):
        lower = (k_halfplane_exact(a, b), "halfplane-exact")
    elif len(comps) == 1 and isinstance(comps[0], ComplementPoint):
        lower = (k_star_exact(a, b, comps[0].point), "one-puncture-exact")
    else:
        lower = k_lower_analytic(domain, a, b)
    return _geodesic(domain, a, b, density, lower, res)


def chordal_gp_lower(domain: Domain, a: complex, b: complex) -> float:
    """Spherical analogue of the gap bound: log(1 + chordal gap ratio)."""
    from .geometry import chordal_distance
    chi_ab = chordal_distance(a, b)
    da = domain.chordal_boundary_distance(a)
    db = domain.chordal_boundary_distance(b)
    return math.log1p(chi_ab / min(da, db))


def k_chordal_numeric(domain: Domain, a: complex, b: complex,
                      resolution: Optional[Resolution] = None) -> GeodesicResult:
    """Certified enclosure of the chordally normalized quasihyperbolic
    distance.  The lower bound combines the spherical gap estimate with a
    quarter of the best euclidean lower bound."""
    res = resolution or Resolution()
    density = chordal_quasihyperbolic_density(domain)
    lo_sph = (chordal_gp_lower(domain, a, b), "chordal-gap")
    lo_euc = k_lower_analytic(domain, a, b)
    lower = lo_sph if lo_sph[0] >= 0.25 * lo_euc[0] else \
        (0.25 * lo_euc[0], f"quarter-euclidean[{lo_euc[1]}]")
    return _geodesic(domain, a, b, density, lower, res)


# ---------------------------------------------------------------------------
# Fast interval without a grid
# ---------------------------------------------------------------------------

def k_interval_fast(domain: Domain, a: complex, b: complex) -> DistanceInterval:
    """Two-sided quasihyperbolic enclosure from closed-form lower bounds and
    measured candidate curves (straight segment, circular-arc detours around
    each removed point).  No grid; looser than the numeric solver."""
    return _k_interval_fast_curves(domain, a, b)[0]


def _k_interval_fast_curves(domain: Domain, a: complex, b: complex
                            ) -> Tuple[DistanceInterval, List[Tuple[Polyline, str]]]:
    """``k_interval_fast``'s enclosure, and the candidate curves it measured
    (those along which the density is finite), each with its name."""
    a, b = complex(a), complex(b)
    domain.delta(a)
    domain.delta(b)
    if a == b:
        return DistanceInterval(0.0, 0.0, "coincident", "coincident"), []
    lo_val, lo_src = k_lower_analytic(domain, a, b)
    density = quasihyperbolic_density(domain)

    upper = math.inf
    up_src = "none"
    curves: List[Tuple[Polyline, str]] = []
    segment = Polyline.cleaned([a, b])
    if len(segment) < 2:
        # endpoints closer than rounding: nothing to integrate, but delta is
        # 1-Lipschitz, so 1/delta <= 1/(min(delta(a), delta(b)) - |a-b|) on [a, b]
        gap = math.nextafter(abs(a - b), math.inf)
        near = min(domain.delta(a), domain.delta(b)) * (1.0 - 8.0 * sys.float_info.epsilon)
        room = math.nextafter(near - gap, 0.0)
        if room > 0.0:
            upper, up_src = math.nextafter(gap / room, math.inf), "segment-lipschitz"

    candidates: List[Tuple[Polyline, str]] = [(segment, "segment")]
    anchors = list(domain.finite_boundary_points())
    for comp in domain.complement_components():
        c = getattr(comp, "center", None)
        if c is not None and not any(abs(c - q) < 1e-12 for q in anchors):
            anchors.append(c)
    for c in anchors:
        if abs(a - c) > 0 and abs(b - c) > 0:
            candidates.append((chi_arc(a, b, c), f"arc({c:g})"))

    for path, name in candidates:
        if len(path) < 2:
            continue  # collapsed to a point: its length 0 bounds nothing
        probe = path.as_array()
        vals = density(probe)
        mids = density(0.5 * (probe[:-1] + probe[1:]))
        if not (np.all(np.isfinite(vals)) and np.all(vals > 0)
                and np.all(np.isfinite(mids)) and np.all(mids > 0)):
            continue
        try:
            # a candidate cut off above the best so far loses either way
            val = rho_length(path, density, rel_tol=1e-9, stop_above=upper) * (1.0 + 1e-9)
        except OutsideDomainError:
            continue
        curves.append((path, name))
        if val < upper:
            upper, up_src = val, name
    if upper < lo_val:
        upper = lo_val
    return DistanceInterval(lo_val, upper, lo_src, up_src), curves


# ---------------------------------------------------------------------------
# Structural checks built on the solver
# ---------------------------------------------------------------------------

class VerdictCounts:
    """A verification report's pairs, each counted once: as violated, as
    proved, or else as inconclusive.  Needs ``pairs``, ``proved`` and
    ``violations``."""

    @property
    def violated(self) -> int:
        return len(self.violations)

    @property
    def inconclusive(self) -> int:
        return self.pairs - self.proved - self.violated

    def verdicts(self) -> dict:
        return {"proved": self.proved, "violated": self.violated,
                "inconclusive": self.inconclusive}


def annulus_inside(domain: Domain, ann: Annulus, tol: float = 1e-12) -> bool:
    """Whether the open annulus avoids every complement component."""
    for comp in domain.complement_components():
        lo, hi = comp.distance_range_from(ann.center)
        if hi > ann.inner * (1.0 + tol) and lo < ann.outer * (1.0 - tol):
            return False
    return True


@dataclass(frozen=True)
class AnnulusComparisonReport(VerdictCounts):
    ok: bool
    pairs: int
    delta_ok: bool
    violations: Tuple[dict, ...]
    worst_ratio_low: float
    worst_ratio_high: float
    proved: int = 0

    def as_dict(self) -> dict:
        return {"ok": self.ok, "pairs": self.pairs, "delta_ok": self.delta_ok,
                "violations": list(self.violations),
                "worst_ratio_low": self.worst_ratio_low,
                "worst_ratio_high": self.worst_ratio_high, **self.verdicts()}


def check_annulus_k_comparison(domain: Domain, ann: Annulus, n_pairs: int = 12,
                               seed: int = 0) -> AnnulusComparisonReport:
    """Inside an essential round annulus whose radii differ by more than a
    factor four, check in the middle band (twice the inner radius to half the
    outer) that the boundary gap is squeezed between half of and the full
    distance to the annulus center, and that the domain's quasihyperbolic
    distance is squeezed between one and two times the one-puncture distance
    taken at the center.  Each pair is counted once: as violated, as proved
    when its enclosure lies inside that window, or else as inconclusive."""
    c = ann.center
    if domain.contains(c):
        raise ValueError("annulus center must lie outside the domain")
    if ann.is_degenerate or not ann.outer / ann.inner > 4.0:
        raise ValueError("need a bounded annulus with radius ratio above four")
    if not annulus_inside(domain, ann):
        raise ValueError("annulus must avoid the complement")
    r2, R2 = 2.0 * ann.inner, ann.outer / 2.0
    rng = np.random.default_rng(seed)
    rad = np.exp(rng.uniform(math.log(r2), math.log(R2), 2 * n_pairs))
    angs = rng.uniform(0.0, 2.0 * math.pi, 2 * n_pairs)
    pts = c + rad * np.exp(1j * angs)

    delta_ok = True
    worst_lo, worst_hi = math.inf, 0.0
    violations: List[dict] = []
    proved = 0
    for z in pts:
        z = complex(z)
        ds = abs(z - c)
        d = domain.delta(z)
        if not (0.5 * ds * (1.0 - 1e-12) <= d <= ds * (1.0 + 1e-12)):
            delta_ok = False
    for i in range(n_pairs):
        a, b = complex(pts[2 * i]), complex(pts[2 * i + 1])
        if a == b:
            continue
        ks = k_star_exact(a, b, c)
        iv = k_interval_fast(domain, a, b)
        if ks > 0:
            worst_lo = min(worst_lo, iv.upper / ks)
            worst_hi = max(worst_hi, iv.lower / ks)
        low_bad = math.isfinite(iv.upper) and iv.upper < ks * (1.0 - 1e-9)
        high_bad = iv.lower > 2.0 * ks * (1.0 + 1e-9)
        if low_bad or high_bad:
            violations.append({"a": [a.real, a.imag], "b": [b.real, b.imag],
                               "one_puncture": ks, "interval": iv.as_dict()})
        elif ks <= iv.lower and iv.upper <= 2.0 * ks:
            proved += 1
    ok = delta_ok and not violations
    return AnnulusComparisonReport(ok=ok, pairs=n_pairs, delta_ok=delta_ok,
                                   violations=tuple(violations),
                                   worst_ratio_low=worst_lo,
                                   worst_ratio_high=worst_hi, proved=proved)

