"""Numeric quasihyperbolic geodesics with certified two-sided enclosures.

The solver builds overlapping log-polar grids around each removed point (or a
height-graded Cartesian grid for a half-plane), runs a shortest-path search
with quadrature edge weights, straightens the discrete path by local
perpendicular relaxation, and then measures the final curve with adaptive
quadrature.  The measured length is a genuine upper bound for the distance;
the lower bound comes from closed-form estimates, so the returned interval is
certified up to quadrature tolerance.

Each ``GeodesicResult.meta`` reports what the solve cost: seconds per stage
(``build_s``, ``dijkstra_s``, ``relax_s``, ``measure_s``, and within the
build ``stitch_s`` for the chart stitching and ``weights_s`` for the node and
midpoint densities and the clearance test), the graph's ``nodes``, ``edges``
and ``stitch_edges``, and the work of the graph and the relaxation together
(``weight_calls``, ``density_points``, and ``clearance_exact``, the edges
whose clearance needed the exact segment distance).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Resolution:
    """Grid and relaxation budget for the numeric solver."""

    radial: int = 256
    angular: int = 256
    margin: float = 0.7          # extra log-radius padding around the data
    relax_sweeps: int = 28
    golden_iters: int = 18
    stitch_k: int = 8
    endpoint_k: int = 12
    clearance: float = 0.3       # segment-to-puncture rejection factor
    measure_tol: float = 1e-9

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


def k_length_lower(length: float, clearance: float) -> float:
    """Any curve of euclidean length `length` whose closest boundary approach
    is `clearance` has quasihyperbolic length at least log(1 + length/clearance)."""
    if length < 0 or clearance <= 0:
        raise ValueError("need length >= 0 and clearance > 0")
    return math.log1p(length / clearance)


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

def _edge_weights(u: np.ndarray, v: np.ndarray, ru: np.ndarray, rm: np.ndarray,
                  rv: np.ndarray, punctures: Sequence[complex],
                  clearance: float, work: Optional[dict] = None) -> np.ndarray:
    """Three-point quadrature weight per segment [u, v] from the density at
    its start, midpoint and end; inf where the segment is invalid (leaves the
    domain or dives toward a removed point).

    A segment is rejected when its distance to a removed point q falls below
    ``clearance * near``, near = min(|u - q|, |v - q|).  Every point of [u, v]
    lies within L/2 of an end, L = |v - u|, so the segment keeps at least
    near - L/2 from q and passes whenever L <= 2 (1 - clearance) near.  The
    cheap test uses 0.9 of that slack, less 64 ulps of |q| for the rounding
    of ``segment_point_distance`` in absolute coordinates, and is off when
    clearance is within 1e-12 of 1 or above, so it passes only segments
    whose exact test would pass too; the exact distance is computed for the
    rest alone, and their number is added to ``work["clearance_exact"]``.
    """
    length = np.abs(v - u)
    w = length * (ru + 4.0 * rm + rv) / 6.0
    ok = (np.isfinite(ru) & (ru > 0) & np.isfinite(rm) & (rm > 0)
          & np.isfinite(rv) & (rv > 0))
    slack = 1.8 * (1.0 - clearance) if clearance < 1.0 - 1e-12 else 0.0
    exact = 0
    for q in punctures:
        near = np.minimum(np.abs(u - q), np.abs(v - q))
        pad = 64.0 * sys.float_info.epsilon * abs(q)
        hard = np.flatnonzero(ok & ~(length < slack * near - pad))
        if hard.size:
            d = segment_point_distance(u[hard], v[hard], q)
            ok[hard] = d >= clearance * near[hard]
            exact += hard.size
    if work is not None:
        work["clearance_exact"] = work.get("clearance_exact", 0) + exact
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
    y_lo = min(a.imag, b.imag) * math.exp(-res.margin)
    y_hi = max(a.imag, b.imag, 0.75 * abs(a - b)) * math.exp(res.margin) * 2.0
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
            s_min = math.log(lo) - res.margin
            s_max = math.log(2.0 * reach) + res.margin
            charts.append(_log_polar_chart(p, s_min, s_max, res))
        return charts
    raise UnsupportedDomainError(
        "numeric geodesics support point-complement domains and the upper half-plane")


def _build_graph(domain: Domain, anchors: Sequence[complex], res: Resolution,
                 density) -> Tuple[np.ndarray, csr_matrix, List[int], dict]:
    """Assemble the stitched multi-chart graph.

    Returns (node positions, symmetric weight matrix, anchor node ids, meta).
    Anchor points are appended as explicit nodes wired to their nearest grid
    neighbors.  Every undirected edge is stored once, as (lower id, higher
    id).  The meta holds ``charts``, ``nodes``, ``edges`` (after dropping
    inadmissible ones), ``stitch_edges`` (chart-to-chart candidates),
    ``stitch_s`` and ``weights_s`` (perf_counter seconds of the stitching and
    of the weight evaluation), ``weight_calls``, ``density_points`` and
    ``clearance_exact`` (edges that needed ``segment_point_distance``).
    """
    a, b = anchors[0], anchors[-1]
    charts = _charts_for(domain, a, b, res)
    punctures = [c.point for c in domain.complement_components()
                 if isinstance(c, ComplementPoint)]

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
            coords[:lo_j], k=min(res.stitch_k, hi_j - lo_j))
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
    k = min(res.endpoint_k, n0)
    anchor_arr = np.asarray(list(anchors), dtype=np.complex128)
    anchor_ids = list(range(n0, n0 + anchor_arr.size))
    for aid, z0 in zip(anchor_ids, anchor_arr):
        dx, dy = nodes.real - z0.real, nodes.imag - z0.imag
        idx = np.argpartition(dx * dx + dy * dy, k - 1)[:k]
        all_pairs.append(np.stack([idx, np.full(k, aid)], axis=1))
    nodes = np.concatenate([nodes, anchor_arr])
    pairs = np.concatenate(all_pairs, axis=0)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])

    # the density once per node, gathered for both ends of every edge
    t2 = time.perf_counter()
    work = {"weight_calls": 1}
    rho = density(nodes)
    u, v = nodes[lo], nodes[hi]
    w = _edge_weights(u, v, rho[lo], density(0.5 * (u + v)), rho[hi],
                      punctures, res.clearance, work)
    t3 = time.perf_counter()
    keep = np.isfinite(w)
    lo, hi, w = lo[keep], hi[keep], w[keep]
    if not keep.any():
        raise SolverError("no admissible edges near the requested points")
    graph = csr_matrix((w, (lo, hi)), shape=(nodes.size, nodes.size))
    meta = {"charts": len(charts), "nodes": int(nodes.size), "edges": int(w.size),
            "stitch_edges": int(stitch_edges),
            "stitch_s": t1 - t0, "weights_s": t3 - t2,
            "density_points": int(nodes.size + u.size), **work}
    return nodes, graph, anchor_ids, meta


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
    stacked segments zm->c1, c1->zp, zm->c2, c2->zp, as are the final offset
    and the unmoved vertex.  The density at zm and zp is evaluated once per
    half-sweep and at a candidate once for both its segments; each probe,
    comparison and sum is that of scoring the probes one by one.

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

            # two offsets per vertex, stacked: the first m and the last m
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


def _resample(path: Polyline, domain: Domain, factor: float = 0.4,
              cap: int = 64) -> List[complex]:
    out: List[complex] = [path.points[0]]
    starts, ends = path.segments()
    for u, v in zip(starts.tolist(), ends.tolist()):
        du = min(domain.delta(u), domain.delta(v))
        n = int(min(cap, max(1, math.ceil(abs(v - u) / max(factor * du, 1e-300)))))
        for j in range(1, n + 1):
            out.append(u + (v - u) * (j / n))
    return out


# ---------------------------------------------------------------------------
# The public solvers
# ---------------------------------------------------------------------------

def _canonical(a: complex, b: complex) -> Tuple[complex, complex, bool]:
    if (a.real, a.imag) <= (b.real, b.imag):
        return a, b, False
    return b, a, True


def _geodesic(domain: Domain, a: complex, b: complex, density,
              lower: Tuple[float, str], res: Resolution,
              warm_start: Optional[Polyline]) -> GeodesicResult:
    a, b = complex(a), complex(b)
    domain.delta(a)
    domain.delta(b)
    if a == b:
        iv = DistanceInterval(0.0, 0.0, "coincident", "coincident")
        return GeodesicResult(iv, Polyline([a]), {"nodes": 0})

    ca, cb, flipped = _canonical(a, b)
    punctures = [c.point for c in domain.complement_components()
                 if isinstance(c, ComplementPoint)]
    meta: dict = {}
    t0 = time.perf_counter()
    if warm_start is not None:
        pts = warm_start.points
        scale = max(abs(ca), abs(cb), 1.0)
        if abs(pts[0] - a) > 1e-9 * scale or abs(pts[-1] - b) > 1e-9 * scale:
            if abs(pts[0] - b) <= 1e-9 * scale and abs(pts[-1] - a) <= 1e-9 * scale:
                pts = tuple(reversed(pts))
            else:
                raise ValueError("warm start must join the requested endpoints")
        seed_path = Polyline.cleaned(pts if not flipped else tuple(reversed(pts)))
        raw = _resample(seed_path, domain)
        meta["warm_start"] = True
        t1 = t2 = time.perf_counter()  # the resampled seed stands in for the graph
    else:
        nodes, graph, (ia, ib), meta = _build_graph(domain, [ca, cb], res, density)
        t1 = time.perf_counter()
        raw, graph_len = _shortest_path(nodes, graph, ia, ib)
        meta["graph_length"] = graph_len
        t2 = time.perf_counter()

    relaxed, sweeps, work = _relax_path(raw, density, punctures, res)
    meta["relax_sweeps"] = sweeps
    t3 = time.perf_counter()
    path = Polyline.cleaned(relaxed)
    measured = rho_length(path, density, rel_tol=res.measure_tol)
    upper = measured * (1.0 + res.measure_tol)
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
              resolution: Optional[Resolution] = None,
              warm_start: Optional[Polyline] = None) -> GeodesicResult:
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
    return _geodesic(domain, a, b, density, lower, res, warm_start)


def chordal_gp_lower(domain: Domain, a: complex, b: complex) -> float:
    """Spherical analogue of the gap bound: log(1 + chordal gap ratio)."""
    from .geometry import chordal_distance
    chi_ab = chordal_distance(a, b)
    da = domain.chordal_boundary_distance(a)
    db = domain.chordal_boundary_distance(b)
    return math.log1p(chi_ab / min(da, db))


def k_chordal_numeric(domain: Domain, a: complex, b: complex,
                      resolution: Optional[Resolution] = None,
                      warm_start: Optional[Polyline] = None) -> GeodesicResult:
    """Certified enclosure of the chordally normalized quasihyperbolic
    distance.  The lower bound combines the spherical gap estimate with a
    quarter of the best euclidean lower bound."""
    res = resolution or Resolution()
    density = chordal_quasihyperbolic_density(domain)
    lo_sph = (chordal_gp_lower(domain, a, b), "chordal-gap")
    lo_euc = k_lower_analytic(domain, a, b)
    lower = lo_sph if lo_sph[0] >= 0.25 * lo_euc[0] else \
        (0.25 * lo_euc[0], f"quarter-euclidean[{lo_euc[1]}]")
    return _geodesic(domain, a, b, density, lower, res, warm_start)


# ---------------------------------------------------------------------------
# Fast interval without a grid
# ---------------------------------------------------------------------------

def k_interval_fast(domain: Domain, a: complex, b: complex) -> DistanceInterval:
    """Two-sided quasihyperbolic enclosure from closed-form lower bounds and
    measured candidate curves (straight segment, circular-arc detours around
    each removed point).  No grid; looser than the numeric solver."""
    a, b = complex(a), complex(b)
    domain.delta(a)
    domain.delta(b)
    if a == b:
        return DistanceInterval(0.0, 0.0, "coincident", "coincident")
    lo_val, lo_src = k_lower_analytic(domain, a, b)
    density = quasihyperbolic_density(domain)

    upper = math.inf
    up_src = "none"
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
        if val < upper:
            upper, up_src = val, name
    if upper < lo_val:
        upper = lo_val
    return DistanceInterval(lo_val, upper, lo_src, up_src)


# ---------------------------------------------------------------------------
# Structural checks built on the solver
# ---------------------------------------------------------------------------

def _mobius_image_domain(domain: Domain, T) -> Domain:
    from .domains import FiniteComplement
    from .geometry import INF, is_infinite
    comps = domain.complement_components()
    if not all(isinstance(c, ComplementPoint) for c in comps):
        raise UnsupportedDomainError("image domains need point complements")
    punctures = [c.point for c in comps]
    pole = T.pole()
    if pole is not None and not is_infinite(pole):
        if not any(abs(pole - p) <= 1e-12 * max(1.0, abs(p)) for p in punctures):
            raise ValueError("the map's pole must lie outside the domain")
    images = [T(p) for p in punctures] + [T(INF)]
    finite = []
    for w in images:
        if is_infinite(w):
            continue
        if not any(abs(w - q) <= 1e-12 * max(1.0, abs(q)) for q in finite):
            finite.append(complex(w))
    return FiniteComplement(finite)


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


@dataclass(frozen=True)
class MobiusQIReport(VerdictCounts):
    ok: bool
    pairs: int
    worst_upper_ratio: float   # certified lower bound on sup k'/k
    worst_lower_ratio: float   # certified upper bound on inf k'/k
    violations: Tuple[dict, ...]
    proved: int = 0

    def as_dict(self) -> dict:
        return {"ok": self.ok, "pairs": self.pairs,
                "worst_upper_ratio": self.worst_upper_ratio,
                "worst_lower_ratio": self.worst_lower_ratio,
                "violations": list(self.violations), **self.verdicts()}


def check_mobius_quasi_invariance(domain: Domain, mobius, pairs,
                                  use_numeric: bool = False,
                                  resolution: Optional[Resolution] = None) -> MobiusQIReport:
    """Certify that a Möbius map changes quasihyperbolic distances by at most
    a factor of two in each direction on the supplied pairs.

    A violation is recorded only when the computed enclosures prove the
    factor-two window is left; inconclusive pairs never fail the check.
    Each pair is counted once: as violated, as proved when both enclosures
    put k'/k inside [1/2, 2], or else as inconclusive.
    """
    image = _mobius_image_domain(domain, mobius)
    worst_hi = 0.0
    worst_lo = math.inf
    violations: List[dict] = []
    n = proved = 0
    for a, b in pairs:
        a, b = complex(a), complex(b)
        if a == b:
            continue
        n += 1
        if use_numeric:
            k1 = k_numeric(domain, a, b, resolution).distance
            k2 = k_numeric(image, complex(mobius(a)), complex(mobius(b)),
                           resolution).distance
        else:
            k1 = k_interval_fast(domain, a, b)
            k2 = k_interval_fast(image, complex(mobius(a)), complex(mobius(b)))
        if k1.upper > 0:
            worst_hi = max(worst_hi, k2.lower / k1.upper)
        if k1.lower > 0 and math.isfinite(k2.upper):
            worst_lo = min(worst_lo, k2.upper / k1.lower)
        hi_bad = k2.lower > 2.0 * k1.upper * (1.0 + 1e-9)
        lo_bad = math.isfinite(k2.upper) and k2.upper < 0.5 * k1.lower * (1.0 - 1e-9)
        if hi_bad or lo_bad:
            violations.append({"a": [a.real, a.imag], "b": [b.real, b.imag],
                               "source": k1.as_dict(), "image": k2.as_dict()})
        elif k2.upper <= 2.0 * k1.lower and k2.lower >= 0.5 * k1.upper:
            proved += 1
    return MobiusQIReport(ok=not violations, pairs=n, worst_upper_ratio=worst_hi,
                          worst_lower_ratio=worst_lo, violations=tuple(violations),
                          proved=proved)


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
                               seed: int = 0, use_numeric: bool = False,
                               resolution: Optional[Resolution] = None) -> AnnulusComparisonReport:
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
        if use_numeric:
            iv = k_numeric(domain, a, b, resolution).distance
        else:
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


def thin_triangle_defect(domain: Domain, x: complex, y: complex, z: complex,
                         resolution: Optional[Resolution] = None) -> Tuple[float, dict]:
    """Estimate how far the side joining x and z strays from the union of the
    other two sides of the quasihyperbolic triangle, measured in the metric
    itself.  Grid-valued estimate; useful for sanity checks, not certified."""
    res = resolution or Resolution(radial=128, angular=128)
    density = quasihyperbolic_density(domain)
    nodes, graph, ids, meta = _build_graph(domain, [x, y, z], res, density)
    ix, iy, iz = ids

    def side(i, j):
        pts, _ = _shortest_path(nodes, graph, i, j)
        return pts

    p_xy = side(ix, iy)
    p_yz = side(iy, iz)
    p_xz = side(ix, iz)
    coords = np.stack([nodes.real, nodes.imag], axis=1)
    tree = cKDTree(coords)
    srcs = set()
    for p in p_xy + p_yz:
        _, idx = tree.query([p.real, p.imag], k=1)
        srcs.add(int(idx))
    dist = _dijkstra(graph, directed=False, indices=sorted(srcs), min_only=True)
    defect = 0.0
    for p in p_xz:
        _, idx = tree.query([p.real, p.imag], k=1)
        defect = max(defect, float(dist[int(idx)]))
    meta["sides"] = [len(p_xy), len(p_yz), len(p_xz)]
    return defect, meta
