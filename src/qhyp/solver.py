"""Numeric quasihyperbolic geodesics with certified two-sided enclosures.

The solver builds one quadtree graph over a square that holds the data,
graded by the distance to the boundary, runs a shortest-path search with
quadrature edge weights, measures the graph path, straightens it by local
perpendicular relaxation (each vertex moves to the best of ``PROBES``
offsets along its chord's normal, refined over ``ROUNDS`` rounds), and then
measures the relaxed curve; the shorter of the two certified lengths is the
upper bound.  ``Resolution.relax_sweeps`` caps the relaxation, which stops
earlier once a sweep gains less than ``RELAX_STOP`` of the width the graph
path leaves open above the lower bound.  Every curve measured, the graph and relaxed paths as well as
``k_interval_fast``'s segment and arcs, keeps the vertices it was built
from, repeated ones included, so it runs from a to b exactly and its length
is a genuine upper bound for the distance; the lower bound comes from
closed-form estimates.  ``_k_length``
measures every curve.  On the plane minus finitely many points it evaluates
the closed form ``domains.punctured_k_length``, rounded outward, so there
the interval holds without a tolerance.  Elsewhere, and for the chordal
density, it probes the density at the vertices and segment midpoints and
then integrates by adaptive quadrature, certified up to ``MEASURE_TOL``,
which is also the outward pad; a density that is not finite and positive
there, or a quadrature that does not converge, gives an infinite length.
An upper bound that comes out below the lower one raises
``InconsistentIntervalError``.

The quadtree (``_quadtree``) splits a cell while its side exceeds eps times
the larger of delta at its centre and half its distance to the nearer
endpoint, eps = 1.6 * 2 pi / min(radial, angular), down to ``DEPTH_CAP``
levels.  Its leaves whose centre lies in the domain are the nodes, and
leaves whose squares touch are joined, so the edges grow linearly with the
cells.  It needs only ``delta_field`` and the components' ``centers()``, so
every domain type is served; ``k_chordal_numeric`` still raises where
``chordal_boundary_distance_field`` does.

The graph is built in two steps.  The grid is free of the density: the
nodes, the edges between touching leaves, the anchors and the edges that
keep clear of the removed points, tested one block of ``constants.BLOCK``
edges at a time.  The weighting evaluates one density on it, block by block
too: the densities at the nodes, then the midpoint densities and weights of
each block of edges.  The last grid is kept in one module-level slot and
reused when the same domain, anchors and grid size min(radial, angular)
come again, as they do for ``k_chordal_numeric`` after ``k_numeric`` on the
same pair, and for either solver with the endpoints swapped.  Both slots
key on the domain itself: two domains are equal when their JSON
descriptions are.

The grid solver is the only user of scipy (``csr_matrix`` for the graph,
``dijkstra`` for the search), and it imports each where it calls it.  So
``import qhyp`` loads numpy only, and scipy, though required, is loaded by
the first grid solve: ``k_numeric``, ``k_chordal_numeric``, ``qhyp distance
--method numeric``, ``qhyp geodesic`` or acceptance criterion 12.

``k_interval_fast`` needs no grid.  Its last enclosure and measured curves
are kept in a second slot, keyed on the domain and the bytes of the two
endpoints, and reused when the same pair comes again in the same order: the
global QI check asks ``h_interval`` for h(a, b), which measures k(a, b) for
its cap, and then asks for k(phi a, phi b), where phi is the identity on the
thick part.  A reused result is returned as a fresh list of the same
immutable curves.

Each ``GeodesicResult.meta`` reports what the solve cost: seconds per stage
(``build_s``, ``dijkstra_s``, ``relax_s``, ``measure_s`` for measuring both
paths, and within the build ``clearance_s`` for the clearance test and
``weights_s`` for the node and midpoint densities and the weights), whether
the grid was reused (``grid_reused``; then ``clearance_s`` is 0), the graph's
``nodes`` and ``edges``, the graph path's Dijkstra weight
(``graph_length``) and certified length (``graph_upper``), the sweeps run
(``relax_sweeps``), and the work of the graph and the relaxation together
(``weight_calls``, ``density_points``, and ``clearance_exact``, the edges
whose clearance needed the exact segment distance).  The upper bound's
source is ``relaxed-grid-path``, or ``grid-path`` where the unrelaxed path
measured shorter.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import BLOCK
from .densities import (
    DistanceInterval,
    _log_quotient,
    chordal_quasihyperbolic_density,
    quasihyperbolic_density,
)
from .domains import (
    Domain,
    OutsideDomainError,
    UnsupportedDomainError,
    annulus_inside,
    k_star_exact,
    punctured_k_length,
    rho_length,
)
from .geometry import Annulus, Polyline, chi_arc, chordal_distance, segment_point_distance

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


class SolverError(RuntimeError):
    """The discrete search could not produce a usable path."""


DEPTH_CAP = 40       # deepest quadtree level: cell centres keep their bits
ENDPOINT_K = 12      # grid nodes wired to each anchor
MEASURE_TOL = 1e-9   # quadrature tolerance, and outward pad, off point complements
RELAX_STOP = 1e-3    # a sweep gaining less than this share of the open width ends relaxation
PROBES = 17          # evenly spaced offsets per vertex in each bracket-search round
ROUNDS = 4           # bracket-search rounds per relaxation half-sweep
CLEARANCE = 0.3      # a segment closer to a removed point than this times its ends' is rejected


@dataclass(frozen=True)
class Resolution:
    """Grid and relaxation budget for the numeric solver.  The smaller of
    ``radial`` and ``angular``, n, grades the quadtree: eps = 1.6 * 2 pi / n.
    ``relax_sweeps`` is a cap: the relaxation stops earlier once a sweep no
    longer pays against the width left open (see ``_relax_path``); each
    half-sweep's search runs ``ROUNDS`` rounds of ``PROBES`` offsets."""

    radial: int = 256
    angular: int = 256
    relax_sweeps: int = 28

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

def gp_lower_bound(domain: Domain, a: complex, b: complex) -> float:
    """log(1 + |a-b| / min(delta(a), delta(b))), or log |a-b| - log min(delta)
    where the quotient overflows, which is smaller by under 1e-308.  Near
    the overflow threshold |a - b| is taken as 4 |a/4 - b/4|, as
    ``halfplane_distance`` takes it, so that the modulus does not overflow."""
    near = min(domain.delta(a), domain.delta(b))
    if max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag)) < 1e307:  # |a - b| is finite
        scale, gap = 1.0, abs(a - b)
    else:
        scale, gap = 4.0, math.hypot(a.real / 4.0 - b.real / 4.0, a.imag / 4.0 - b.imag / 4.0)
    ratio = scale * (gap / near)
    if ratio < math.inf:
        return math.log1p(ratio)
    return math.log(scale) + math.log(gap) - math.log(near)


def gp_ratio_lower_bound(domain: Domain, a: complex, b: complex) -> float:
    """|log(delta(a) / delta(b))|, as a difference of logs where the
    quotient is not a normal float.  A distance above the float range is
    inf; it is taken as the largest float, which only lowers the bound."""
    return abs(_log_quotient(*(min(domain.delta(z), sys.float_info.max) for z in (a, b)))[0])


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

class _Punctures(NamedTuple):
    """Removed points with what the clearance test reads of them, built once
    per grid or relaxation instead of once per call."""

    points: Tuple[complex, ...]
    col: np.ndarray         # (P, 1) complex column, to broadcast against segments
    pads: np.ndarray        # (P,) 64 ulps of |q|: segment_point_distance's rounding


def _punctures(points: Sequence[complex]) -> _Punctures:
    return _Punctures(tuple(points), np.asarray(points, dtype=np.complex128).reshape(-1, 1),
                      np.array([64.0 * sys.float_info.epsilon * abs(q) for q in points]))


def _clear_of_punctures(u: np.ndarray, v: np.ndarray, length: np.ndarray,
                        near: np.ndarray, punctures: _Punctures, ok: np.ndarray,
                        work: Optional[dict] = None) -> None:
    """Clear ``ok`` where the segment [u, v] passes too close to a removed
    point; ``length`` is |v - u|, and row i of the (P, n) array ``near`` is
    min(|u - q|, |v - q|) for the i-th q of ``punctures``.  The cheap test
    runs for all rows in one pass.

    A segment is rejected when its distance to q falls below
    ``CLEARANCE * near``.  Every point of [u, v] lies within L/2 of an end,
    L = |v - u|, so the segment keeps at least near - L/2 from q and passes
    whenever L <= 2 (1 - CLEARANCE) near.  The cheap test uses 0.9 of that
    slack, less 64 ulps of |q| for the rounding of ``segment_point_distance``
    in absolute coordinates, so it passes only segments whose exact test
    would pass too.  The exact distance is computed, puncture by puncture in
    order, for the segments that fail the cheap test and are still
    admissible, and their number is added to ``work["clearance_exact"]``.
    """
    slack = 1.8 * (1.0 - CLEARANCE)
    fails = ~(length < slack * near - punctures.pads[:, None])
    tests = zip(fails, near) if (fails & ok).any() else ()
    exact = 0
    for q, (fail, near_q) in zip(punctures.points, tests):
        hard = np.flatnonzero(ok & fail)
        if hard.size:
            d = segment_point_distance(u[hard], v[hard], q)
            ok[hard] = d >= CLEARANCE * near_q[hard]
            exact += hard.size
    if work is not None:
        work["clearance_exact"] = work.get("clearance_exact", 0) + exact


def _edge_weights(u: np.ndarray, v: np.ndarray, ru: np.ndarray, rm: np.ndarray,
                  rv: np.ndarray, punctures: Optional[_Punctures], near: Optional[np.ndarray],
                  work: Optional[dict] = None) -> np.ndarray:
    """Three-point quadrature weight per segment [u, v] from the density at
    its start, midpoint and end; inf where the segment is invalid (a density
    that is not finite and positive, or a dive toward a removed point, as
    judged by ``_clear_of_punctures`` in one pass from ``near``, the (P, n)
    array min(|u - q|, |v - q|); both None test no removed point)."""
    length = np.abs(v - u)
    with np.errstate(over="ignore"):  # densities near 1e308, as at a subnormal distance
        w = length * (ru + 4.0 * rm + rv) / 6.0
    ok = (np.isfinite(ru) & (ru > 0) & np.isfinite(rm) & (rm > 0)
          & np.isfinite(rv) & (rv > 0))
    if near is not None:
        _clear_of_punctures(u, v, length, near, punctures, ok, work)
    return np.where(ok, w, np.inf)


class _Tree(NamedTuple):
    """Every cell of a quadtree, internal ones included, in the order built:
    depth by depth.  A cell at depth d has side ``side`` / 2^d, and its
    lower-left corner is ``corner`` plus (ix, iy) times that side."""

    corner: complex
    side: float
    level: np.ndarray       # depth
    ix: np.ndarray
    iy: np.ndarray
    centre: np.ndarray
    delta: np.ndarray       # delta at the centre
    leaf: np.ndarray        # whether the cell was not split


def _quadtree(domain: Domain, anchors: Sequence[complex], res: Resolution) -> _Tree:
    """The delta-graded quadtree of a problem.

    The root square is centred on the middle of the bounding box of the
    anchors and every component's ``centers()`` (a removed point's is itself),
    with 8 times the largest distance from there to those points as its
    side.  A cell of side s and centre c above ``DEPTH_CAP`` is split while
    s > eps max(delta(c), |c - a| / 2), with a the nearest anchor and
    eps = 1.6 * 2 pi / min(radial, angular).  So cells shrink with the
    distance to the boundary, but not below a fixed fraction of the distance
    to the anchors: a continuum boundary far from them stays coarse."""
    anchor_arr = np.asarray(anchors, dtype=np.complex128)
    pts = np.concatenate([anchor_arr,
                          np.asarray([c for comp in domain.complement_components()
                                      for c in comp.centers()], dtype=np.complex128)])
    mid = complex(0.5 * (pts.real.min() + pts.real.max()),
                  0.5 * (pts.imag.min() + pts.imag.max()))
    side = 8.0 * float(np.abs(pts - mid).max())
    corner = mid - 0.5 * side * (1.0 + 1.0j)
    eps = 1.6 * 2.0 * math.pi / min(res.radial, res.angular)

    cells = []
    ix = iy = np.zeros(1, dtype=np.int64)
    for depth in range(DEPTH_CAP + 1):
        s = math.ldexp(side, -depth)
        z = (corner.real + (ix + 0.5) * s) + 1j * (corner.imag + (iy + 0.5) * s)
        delta = domain.delta_field(z)
        near = np.abs(z - anchor_arr[:, None]).min(axis=0)
        split = (s > eps * np.maximum(delta, 0.5 * near)) & (depth < DEPTH_CAP)
        cells.append((np.full(ix.size, depth), ix, iy, z, delta, ~split))
        ix, iy = 2 * ix[split], 2 * iy[split]
        ix, iy = np.concatenate([ix, ix + 1, ix, ix + 1]), np.concatenate([iy, iy, iy + 1, iy + 1])
    return _Tree(corner, side, *(np.concatenate(parts) for parts in zip(*cells)))


def _touching_leaves(tree: _Tree) -> np.ndarray:
    """(m, 2) cell indices of every pair of leaves whose closed squares
    touch, each pair once, lower index first, sorted.

    Each leaf looks at the 8 squares around it at its own depth.  Such a
    square that is a cell is a leaf (a pair) or a split cell (whose leaves
    find this one); one that is not lies in a coarser leaf, found by walking
    up its ancestors.  A leaf no finer than this one that touches it holds
    one of the 8 squares, so the pairs are exact.  A cell is looked up by
    the key (depth 2^41 + ix) + i iy, exact in floating point."""
    level, ix, iy, leaf = tree.level, tree.ix, tree.iy, tree.leaf
    keys = (level * 2.0 ** 41 + ix) + 1j * iy
    order = np.argsort(keys)
    keys = keys[order]
    found = [np.zeros((0, 2), dtype=np.int64)]   # a lone root has no neighbours
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        me = np.flatnonzero(leaf)
        lv, nx, ny = level[me], ix[me] + dx, iy[me] + dy
        inside = (nx >= 0) & (ny >= 0) & (nx < 2 ** lv) & (ny < 2 ** lv)
        me, lv, nx, ny = me[inside], lv[inside], nx[inside], ny[inside]
        same_depth = True
        while me.size:
            key = (lv * 2.0 ** 41 + nx) + 1j * ny
            pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            hit = keys[pos] == key
            other = order[pos[hit]]
            pair = leaf[other] & ((not same_depth) | (me[hit] < other))
            found.append(np.stack([me[hit][pair], other[pair]], axis=1))
            miss = ~hit
            me, lv, nx, ny = me[miss], lv[miss] - 1, nx[miss] >> 1, ny[miss] >> 1
            same_depth = False
    pairs = np.concatenate(found)
    # a coarser leaf is found from up to three of the squares: sort, and keep
    # the first of each run (np.unique hashes, and is many times slower)
    code = np.sort(pairs.min(axis=1) * level.size + pairs.max(axis=1))
    code = code[np.diff(code, prepend=-1) != 0]
    return np.stack([code // level.size, code % level.size], axis=1)


@dataclass(frozen=True)
class _Grid:
    """The density-free part of a solver graph.  Its arrays are read-only."""

    nodes: np.ndarray               # leaf centres inside the domain, then the anchors
    lo: np.ndarray                  # edges that pass the clearance test, as
    hi: np.ndarray                  # (lower id, higher id)
    anchor_ids: Tuple[int, ...]
    anchor_capped: Tuple[bool, ...]  # whether an anchor's nearest leaves sit at DEPTH_CAP
    side: float                      # the root square's side
    clearance_s: float
    clearance_exact: int


def _build_grid(domain: Domain, anchors: Sequence[complex], res: Resolution) -> _Grid:
    tree = _quadtree(domain, anchors, res)
    punctures = domain.finite_boundary_points()

    # the leaves whose centre lies in the domain are the nodes, in the
    # cells' order, and touching ones are joined
    is_node = tree.leaf & (tree.delta > 0)
    node_id = np.cumsum(is_node) - 1
    pairs = _touching_leaves(tree)
    all_pairs = [node_id[pairs[is_node[pairs].all(axis=1)]]]
    nodes = tree.centre[is_node]

    # anchors as explicit nodes, wired to their nearest grid nodes
    n0 = nodes.size
    k = min(ENDPOINT_K, n0)
    anchor_arr = np.asarray(list(anchors), dtype=np.complex128)
    anchor_ids = tuple(range(n0, n0 + anchor_arr.size))
    capped = []
    for aid, z0 in zip(anchor_ids, anchor_arr):
        idx = np.argpartition(np.abs(nodes - z0), k - 1)[:k]
        capped.append(bool(tree.level[is_node][idx].max() >= DEPTH_CAP))
        all_pairs.append(np.stack([idx, np.full(k, aid)], axis=1))
    nodes = np.concatenate([nodes, anchor_arr])
    pairs = np.concatenate(all_pairs, axis=0)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])

    # the clearance test, one block of edges at a time, with each node's
    # distance to each removed point computed once and gathered for both ends
    # of every edge; gathering from one array per point is faster than from
    # one (P, n) array
    t0 = time.perf_counter()
    clear = np.ones(lo.size, dtype=bool)
    work = {"clearance_exact": 0}
    dists = [np.abs(nodes - q) for q in punctures]
    singles = [_punctures((q,)) for q in punctures]
    for start in range(0, lo.size, BLOCK):
        i, j = lo[start:start + BLOCK], hi[start:start + BLOCK]
        u, v = nodes[i], nodes[j]
        length = np.abs(v - u)
        for single, dq in zip(singles, dists):
            _clear_of_punctures(u, v, length, np.minimum(dq[i], dq[j])[None], single,
                                clear[start:start + BLOCK], work)
    lo, hi = lo[clear], hi[clear]
    t1 = time.perf_counter()

    for arr in (nodes, lo, hi):
        arr.flags.writeable = False
    return _Grid(nodes, lo, hi, anchor_ids, tuple(capped), tree.side, t1 - t0,
                 work["clearance_exact"])


# The last grid built, as (key, grid), or None.  There is one slot: a miss
# empties it before building, so two grids are never alive together.  Key and
# grid are stored and read as one tuple, so a caller in another thread sees
# the old pair, the new one or none, never a grid under another's key.
_last_grid: Optional[Tuple[tuple, _Grid]] = None


def _grid_for(domain: Domain, anchors: Sequence[complex],
              res: Resolution) -> Tuple[_Grid, bool]:
    """The grid of (domain, anchors, res), and whether it was reused."""
    global _last_grid
    key = (domain, np.asarray(list(anchors), dtype=np.complex128).tobytes(),
           min(res.radial, res.angular))
    last = _last_grid
    if last is not None and last[0] == key:
        return last[1], True
    last = _last_grid = None
    grid = _build_grid(domain, anchors, res)
    _last_grid = (key, grid)
    return grid, False


def _build_graph(domain: Domain, anchors: Sequence[complex], res: Resolution,
                 density) -> Tuple[np.ndarray, csr_matrix, List[int], dict]:
    """Assemble the quadtree graph in two steps.

    The grid does not depend on the density: the leaves of ``_quadtree``
    whose centre lies in the domain, joined where their squares touch, the
    anchors (appended as explicit nodes wired to their nearest grid nodes)
    and the edges that pass the clearance test, each stored once as (lower
    id, higher id).  The last grid is kept in one module-level slot, keyed
    by the domain itself (domains are equal when their JSON descriptions
    are), the anchors bit for bit and the grid size min(radial, angular),
    and is reused when the same key comes again: ``k_chordal_numeric``
    after ``k_numeric`` on the same problem, either solver with the
    endpoints swapped (the anchors are put in canonical order), or another
    ``relax_sweeps``.  A miss empties the slot before building.

    The weighting is per density: the density at every node and edge
    midpoint, the three-point quadrature weight, the drop of edges whose
    densities are not finite and positive, and the CSR matrix.  The
    densities and weights are computed ``BLOCK`` nodes or edges at a time,
    one ``_edge_weights`` call per block of edges; every step is pointwise,
    so the weights are those of one call over all edges.  An anchor left
    without an edge raises ``SolverError``, naming it.

    Returns (node positions, symmetric weight matrix, anchor node ids, meta).
    The node positions are the grid's read-only array.  The meta holds
    ``nodes``, ``edges`` (after dropping inadmissible ones), ``grid_reused``,
    ``clearance_s`` and ``weights_s`` (perf_counter seconds of the clearance
    test and of the densities and weights), ``weight_calls``,
    ``density_points`` and ``clearance_exact`` (edges that needed
    ``segment_point_distance``).  On a reused grid ``clearance_s`` and
    ``clearance_exact`` are 0, since that work was not done.
    """
    from scipy.sparse import csr_matrix

    grid, reused = _grid_for(domain, anchors, res)
    nodes, lo, hi = grid.nodes, grid.lo, grid.hi

    # the density once per node, gathered for both ends of every edge; the
    # grid's edges have passed the clearance test, so no puncture is passed
    t0 = time.perf_counter()
    rho = np.empty(nodes.size)
    for start in range(0, nodes.size, BLOCK):
        rho[start:start + BLOCK] = density(nodes[start:start + BLOCK])
    w = np.empty(lo.size)
    blocks = range(0, lo.size, BLOCK)
    for start in blocks:
        i, j = lo[start:start + BLOCK], hi[start:start + BLOCK]
        u, v = nodes[i], nodes[j]
        w[start:start + BLOCK] = _edge_weights(u, v, rho[i], density(0.5 * (u + v)), rho[j],
                                               None, None)
    t1 = time.perf_counter()
    keep = np.isfinite(w)
    lo, hi, w = lo[keep], hi[keep], w[keep]
    # an anchor's edges are the only ones to its id, the highest ones
    for aid, capped in zip(grid.anchor_ids, grid.anchor_capped):
        if np.any(hi == aid):
            continue
        z, k = complex(nodes[aid]), min(ENDPOINT_K, nodes.size - len(grid.anchor_ids))
        msg = f"endpoint {z!r} keeps none of its {k} grid edges after clearance and weighting"
        if capped:
            raise SolverError(
                f"{msg}: its nearest leaves sit at the depth cap ({DEPTH_CAP} levels), "
                f"{math.ldexp(grid.side, -DEPTH_CAP):.3g} wide against its distance "
                f"{domain.delta(z):.3g} to the boundary, and no resolution refines "
                "them; use k_interval_fast (--method fast)")
        raise SolverError(f"{msg}; raise the resolution")
    graph = csr_matrix((w, (lo, hi)), shape=(nodes.size, nodes.size))
    meta = {"nodes": int(nodes.size), "edges": int(w.size), "grid_reused": reused,
            "clearance_s": 0.0 if reused else grid.clearance_s,
            "weights_s": t1 - t0,
            "weight_calls": len(blocks), "density_points": int(nodes.size + grid.lo.size),
            "clearance_exact": 0 if reused else grid.clearance_exact}
    return nodes, graph, list(grid.anchor_ids), meta


def _shortest_path(nodes: np.ndarray, graph: csr_matrix, ia: int,
                   ib: int) -> Tuple[List[complex], float]:
    from scipy.sparse.csgraph import dijkstra

    dist, pred = dijkstra(graph, directed=False, indices=ia,
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

def _bracket_search(f, amp: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimise m functions at once, the i-th over offsets t in
    [-amp[i], amp[i]], by ``ROUNDS`` rounds of ``PROBES`` evenly spaced
    probes each.  ``f`` maps a (``PROBES``, m) array of offsets to their
    (``PROBES``, m) values.

    A round cuts its bracket into ``PROBES`` + 1 equal cells and probes the
    ``PROBES`` points between them; the next bracket is the two cells around
    the best value seen, 2 / (``PROBES`` + 1) of the width.  The first
    bracket is [-amp, amp], so its centre probe is t = 0 exactly, and every
    later bracket is centred on the best offset so far.  An offset replaces
    the best one only on a strict gain, so t stays 0 where nothing beats it.

    Returns the best offsets, their values, and the values at t = 0."""
    half = PROBES // 2
    steps = np.arange(-half, half + 1)[:, None]
    cols = np.arange(amp.size)
    t_best = np.zeros_like(amp)
    for r in range(ROUNDS):
        t = t_best + steps * (amp / (half + 1) ** (r + 1))
        vals = f(t)
        if r == 0:
            f_zero = f_best = vals[half]
        k = np.argmin(vals, axis=0)
        f_k = vals[k, cols]
        gain = f_k < f_best
        t_best = np.where(gain, t[k, cols], t_best)
        f_best = np.where(gain, f_k, f_best)
    return t_best, f_best, f_zero


def _relax_path(points: List[complex], density, punctures: Sequence[complex],
                res: Resolution, slack: float) -> Tuple[List[complex], int, dict]:
    """Red-black perpendicular relaxation with a vectorized bracket search.

    A half-sweep moves every other interior vertex along the normal of the
    chord between its neighbours zm and zp, by up to 0.45 of the smaller of
    half the chord and its distance to the nearest puncture, and only where
    that strictly lowers the three-point weight of its two segments (see
    ``_bracket_search``).  Each round of the search scores the ``PROBES``
    offsets of all m vertices by one density call and one weight evaluation
    over the 2 ``PROBES`` m stacked segments zm->candidate and
    candidate->zp, so a sweep makes 2 ``ROUNDS`` + 1 weight calls, the last
    for the path's total (fewer where a half-sweep has no vertex to move).
    The densities of zm and zp and their distances to the punctures are
    computed once per half-sweep, and the density and the distances at a
    candidate once for both its segments.  With no punctures the clearance
    test is empty.  Each probe, comparison and sum is that of scoring the
    probes one by one.

    ``res.relax_sweeps`` caps the sweeps.  A sweep ends the relaxation when
    both its drop of the three-point total and its accepted gain fall below
    max(1e-6, 1e-6 |total|, ``RELAX_STOP`` * ``slack``), where ``slack`` is
    the width still open above the lower bound (0 where it is unknown).

    Returns the relaxed points, the sweeps run, and the work done as
    ``weight_calls``, ``density_points`` and ``clearance_exact``.
    """
    work = {"weight_calls": 0, "density_points": 0, "clearance_exact": 0}
    punct = _punctures(punctures)
    q = punct.col

    def rho(z):
        work["density_points"] += z.size
        return density(z)

    def weights(u, v, ru, rm, rv, near):
        work["weight_calls"] += 1
        return _edge_weights(u, v, ru, rm, rv, punct, near, work)

    P = np.asarray(points, dtype=np.complex128)
    if P.size < 3:
        return list(points), 0, work

    def total(Q):
        u, v = Q[:-1], Q[1:]
        r = rho(Q)
        near = np.minimum(np.abs(u - q), np.abs(v - q))
        return float(np.sum(weights(u, v, r[:-1], rho(0.5 * (u + v)), r[1:], near)))

    current = total(P)
    sweeps_done = 0
    for sweep in range(res.relax_sweeps):
        improved = 0.0
        for parity in (1, 0):
            idx = np.arange(2 - parity, P.size - 1, 2)
            idx = idx[P[idx + 1] != P[idx - 1]]
            if idx.size == 0:
                continue
            zm, zc, zp = P[idx - 1], P[idx], P[idx + 1]
            chord = zp - zm
            clen = np.abs(chord)
            with np.errstate(over="ignore"):  # a subnormal chord
                normal = 1j * chord / clen
            dq = np.abs(zc - q).min(axis=0, initial=np.inf)
            amp = 0.45 * np.minimum(dq, 0.5 * clen)

            # PROBES offsets per vertex, stacked probe by probe, so each fixed
            # end is repeated once per probe
            m, n = idx.size, PROBES * idx.size
            r_ends = rho(np.concatenate([zm, zp]))
            zm_n, zp_n, rm_n, rp_n = (np.broadcast_to(x, (PROBES, m)).ravel()
                                      for x in (zm, zp, r_ends[:m], r_ends[m:]))
            d_m, d_p = np.abs(zm_n - q), np.abs(zp_n - q)

            def f(t):
                cand = (zc + t * normal).ravel()
                u, v = np.concatenate([zm_n, cand]), np.concatenate([cand, zp_n])
                r = rho(np.concatenate([cand, 0.5 * (u + v)]))
                d_c = np.abs(cand - q)
                near = np.concatenate([np.minimum(d_m, d_c), np.minimum(d_c, d_p)], axis=1)
                w = weights(u, v, np.concatenate([rm_n, r[:n]]), r[n:],
                            np.concatenate([r[:n], rp_n]), near)
                return (w[:n] + w[n:]).reshape(PROBES, m)

            t_best, f_best, f_zero = _bracket_search(f, amp)
            accept = f_best < f_zero
            if accept.any():
                P[idx[accept]] = (zc + t_best * normal)[accept]
                gains = (f_zero - f_best)[accept]
                improved += float(np.sum(gains[np.isfinite(gains)]))
        sweeps_done = sweep + 1
        new_total = total(P)
        if math.isfinite(new_total):
            tol = max(1e-6, 1e-6 * abs(new_total), RELAX_STOP * slack)
            if current - new_total < tol and improved < tol:
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
              lower: Tuple[float, str], res: Resolution,
              punctures: Optional[Tuple[complex, ...]]) -> GeodesicResult:
    a, b = complex(a), complex(b)
    domain.delta(a)
    domain.delta(b)
    if a == b:
        iv = DistanceInterval(0.0, 0.0, "coincident", "coincident")
        return GeodesicResult(iv, Polyline([a]), {"nodes": 0})

    ca, cb, flipped = _canonical(a, b)
    t0 = time.perf_counter()
    nodes, graph, (ia, ib), meta = _build_graph(domain, [ca, cb], res, density)
    t1 = time.perf_counter()
    raw, graph_len = _shortest_path(nodes, graph, ia, ib)
    meta["graph_length"] = graph_len
    t2 = time.perf_counter()

    # the graph path is a genuine curve from a to b: its certified length
    # bounds the distance, and what it leaves open above the lower bound
    # tells the relaxation when a sweep no longer pays
    lo_val, lo_src = lower
    graph_path = Polyline(raw)
    graph_upper = _k_length(graph_path, density, punctures)
    meta["graph_upper"] = graph_upper
    slack = graph_upper - lo_val if math.isfinite(graph_upper) else 0.0
    t3 = time.perf_counter()
    relaxed, sweeps, work = _relax_path(raw, density, domain.finite_boundary_points(), res,
                                        slack)
    meta["relax_sweeps"] = sweeps
    t4 = time.perf_counter()
    path, up_src = Polyline(relaxed), "relaxed-grid-path"
    upper = _k_length(path, density, punctures)
    if graph_upper < upper:
        path, upper, up_src = graph_path, graph_upper, "grid-path"
    for key, value in work.items():
        meta[key] = meta.get(key, 0) + value
    meta.update(build_s=t1 - t0, dijkstra_s=t2 - t1, relax_s=t4 - t3,
                measure_s=(t3 - t2) + (time.perf_counter() - t4))

    iv = DistanceInterval(lo_val, upper, lo_src, up_src)
    if flipped:
        path = path.reversed()
    return GeodesicResult(iv, path, meta)


def k_numeric(domain: Domain, a: complex, b: complex,
              resolution: Optional[Resolution] = None) -> GeodesicResult:
    """Certified enclosure of the quasihyperbolic distance along with the
    discrete near-geodesic.  The lower bound is ``k_lower_analytic``'s,
    exact for one removed point and for the half-plane.  The path is
    measured by ``_k_length``: in closed form, rounded outward, on the plane
    minus finitely many points, so the upper bound holds without a
    tolerance; by quadrature, certified up to ``MEASURE_TOL``, elsewhere.
    The plane and the sphere, whose density 1/delta is 0, are refused."""
    if not domain.complement_components():
        raise UnsupportedDomainError(
            "a domain without finite boundary has no quasihyperbolic metric")
    return _geodesic(domain, a, b, quasihyperbolic_density(domain),
                     k_lower_analytic(domain, a, b), resolution or Resolution(),
                     domain.point_punctures())


def chordal_gp_lower(domain: Domain, a: complex, b: complex) -> float:
    """Spherical analogue of the gap bound: log(1 + chordal gap ratio)."""
    chi_ab = chordal_distance(a, b)
    da = domain.chordal_boundary_distance(a)
    db = domain.chordal_boundary_distance(b)
    return math.log1p(chi_ab / min(da, db))


def k_chordal_numeric(domain: Domain, a: complex, b: complex,
                      resolution: Optional[Resolution] = None) -> GeodesicResult:
    """Certified enclosure of the chordally normalized quasihyperbolic
    distance.  The lower bound combines the spherical gap estimate with a
    quarter of the best euclidean lower bound."""
    density = chordal_quasihyperbolic_density(domain)
    lo_sph = (chordal_gp_lower(domain, a, b), "chordal-gap")
    lo_euc = k_lower_analytic(domain, a, b)
    lower = lo_sph if lo_sph[0] >= 0.25 * lo_euc[0] else \
        (0.25 * lo_euc[0], f"quarter-euclidean[{lo_euc[1]}]")
    return _geodesic(domain, a, b, density, lower, resolution or Resolution(), punctures=None)


# ---------------------------------------------------------------------------
# Fast interval without a grid
# ---------------------------------------------------------------------------

def k_interval_fast(domain: Domain, a: complex, b: complex) -> DistanceInterval:
    """Two-sided quasihyperbolic enclosure from closed-form lower bounds and
    measured candidate curves (straight segment, circular-arc detours around
    each removed point).  No grid; looser than the numeric solver.  Each
    curve is measured by ``_k_length``, and one of infinite length is
    dropped: on the plane minus finitely many points in closed form,
    rounded outward (``punctured_k_length``); elsewhere by quadrature at
    ``MEASURE_TOL``, padded by that factor, so the upper bound is certified
    up to that tolerance."""
    return _k_interval_fast_curves(domain, a, b)[0]


# The last fast enclosure computed, as (key, (interval, tuple of curves)), or
# None.  Like _last_grid, key and result are stored and read as one tuple.
_last_fast: Optional[Tuple[tuple, tuple]] = None


def _k_interval_fast_curves(domain: Domain, a: complex, b: complex
                            ) -> Tuple[DistanceInterval, List[Tuple[Polyline, str]]]:
    """``k_interval_fast``'s enclosure, and the candidate curves it measured
    (those of finite k-length), each with its name.  The last
    result is kept, so ``h_interval`` and then ``k_interval_fast`` on the
    same pair measure the curves once."""
    global _last_fast
    a, b = complex(a), complex(b)
    # bytes, not values: -0.0 and 0.0 are different keys, as cmath.phase
    # tells them apart
    key = (domain, np.array([a, b], dtype=np.complex128).tobytes())
    last = _last_fast
    if last is None or last[0] != key:
        iv, curves = _measure_fast(domain, a, b)
        last = _last_fast = (key, (iv, tuple(curves)))
    iv, curves = last[1]
    return iv, list(curves)


def _measure_fast(domain: Domain, a: complex, b: complex
                  ) -> Tuple[DistanceInterval, List[Tuple[Polyline, str]]]:
    """``_k_interval_fast_curves``'s result, computed afresh."""
    domain.delta(a)
    domain.delta(b)
    if a == b:
        return DistanceInterval(0.0, 0.0, "coincident", "coincident"), []
    lo_val, lo_src = k_lower_analytic(domain, a, b)
    punctures = domain.point_punctures()
    density = quasihyperbolic_density(domain)

    upper = math.inf
    up_src = "none"
    curves: List[Tuple[Polyline, str]] = []
    candidates: List[Tuple[Polyline, str]] = [(Polyline([a, b]), "segment")]
    anchors = list(domain.finite_boundary_points())
    for comp in domain.complement_components():
        c = getattr(comp, "center", None)
        if c is not None and not any(abs(c - q) < 1e-12 for q in anchors):
            anchors.append(c)
    for c in anchors:
        if abs(a - c) > 0 and abs(b - c) > 0:
            candidates.append((chi_arc(a, b, c), f"arc({c:g})"))

    for path, name in candidates:
        val = _k_length(path, density, punctures, upper)
        if val == math.inf:
            continue  # the curve meets the boundary, or quadrature did not converge
        curves.append((path, name))
        if val < upper:
            upper, up_src = val, name
    return DistanceInterval(lo_val, upper, lo_src, up_src), curves


def _k_length(path: Polyline, density, punctures: Optional[Tuple[complex, ...]],
              stop_above: float = math.inf) -> float:
    """An upper bound of a curve's k-length under ``density``: in closed form
    (``punctured_k_length``) on the plane minus ``punctures``; else (None)
    ``rho_length`` at ``MEASURE_TOL``, padded outward by that factor, and inf
    where the density is not finite and positive at a vertex, a segment
    midpoint or on the curve, or the quadrature does not converge.  A length
    cut off above ``stop_above`` still exceeds it."""
    if punctures is not None:
        return punctured_k_length(path, punctures)
    probe = path.as_array()
    vals = density(probe)
    mids = density(0.5 * (probe[:-1] + probe[1:]))
    if not (np.all(np.isfinite(vals)) and np.all(vals > 0)
            and np.all(np.isfinite(mids)) and np.all(mids > 0)):
        return math.inf
    try:
        return (rho_length(path, density, rel_tol=MEASURE_TOL, stop_above=stop_above)
                * (1.0 + MEASURE_TOL))
    except OutsideDomainError:
        return math.inf


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

