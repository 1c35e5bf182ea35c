"""Boundary-gap exponent, density bounds derived from it, geodesic-vs-annulus
checks, and uniform-perfectness estimation.

The central quantity, computed by :func:`beta`, measures how far the nearest
boundary configuration of a point is from being scale-balanced: it is the
infimum of |log(delta(z) / |zeta - xi|)| over nearest boundary points zeta
and other boundary points xi.  Domains bounded by circles or lines have
exponent zero; deep annular throats have large exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import KAPPA, NEAREST_BOUNDARY_SLACK
from .densities import _NORMAL, h01_lower
from .domains import (
    ComplementDisk,
    ComplementDiskExterior,
    ComplementHalfPlane,
    ComplementPoint,
    Component,
    Domain,
    DomainError,
    FiniteComplement,
    SchemaError,
    _parse_complex as cval,
    _parse_real as fval,
    _require_fields,
    annulus_inside,
    circle_samples,
    rho_length,
)
from .geometry import (
    INF,
    Annulus,
    ExtPoint,
    Polyline,
    _unique_points,
    as_finite,
    is_infinite,
    line_circle_roots,
    segment_point_distance,
)


# ---------------------------------------------------------------------------
# The boundary-gap exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaWitness:
    zeta: complex
    xi: complex
    distance: float
    contribution: float

    def as_dict(self) -> dict:
        return {"zeta": [self.zeta.real, self.zeta.imag],
                "xi": [self.xi.real, self.xi.imag],
                "distance": self.distance,
                "contribution": self.contribution}


@dataclass(frozen=True)
class BetaResult:
    value: float
    delta: float
    nearest: Tuple[complex, ...]
    witnesses: Tuple[BetaWitness, ...]
    annulus: Optional[Annulus]

    def as_dict(self) -> dict:
        return {"value": self.value, "delta": self.delta,
                "nearest": [[p.real, p.imag] for p in self.nearest],
                "witnesses": [w.as_dict() for w in self.witnesses],
                "annulus": None if self.annulus is None else {
                    "center": [self.annulus.center.real, self.annulus.center.imag],
                    "inner": self.annulus.inner, "outer": self.annulus.outer}}


def _log_gap(d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """t, the distance in [lo, hi] closest to d, and the exponent's term
    |log(d / t)|, which is not finite where t is 0 or d and t are both
    infinite; the ranges broadcast against d.  Where the quotient overflows
    or is not a normal double (a point 1e300 from punctures 1e-150 apart,
    or 1e-300 from punctures 1e150 apart), the term is |log d - log t|."""
    t = np.minimum(np.maximum(d, lo), hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        q = d / t
        term = np.abs(np.log(q))
        lost = ~((q >= _NORMAL) & (q < math.inf))
        if lost.any():
            term[lost] = np.abs(np.log(np.broadcast_to(d, q.shape)[lost]) - np.log(t[lost]))
    return t, term


def _nearest_components(comps: Sequence[Component], dists: np.ndarray, delta: np.ndarray):
    """(i, c_i, mask) for each component c_i nearest (within
    NEAREST_BOUNDARY_SLACK) at some of the points, whose distances are
    ``dists`` to each component and ``delta`` to the boundary."""
    for i, ci in enumerate(comps):
        mask = dists[i] <= delta * (1.0 + NEAREST_BOUNDARY_SLACK)
        if np.any(mask):
            yield i, ci, mask


def _gap_terms(comps: Sequence[Component], i: int, ci: Component, z: np.ndarray,
               d: np.ndarray):
    """The exponent's terms at the points ``z`` where c_i is nearest, at
    distance ``d``: their nearest points zeta on c_i, the J other components
    c_j (every component but c_i itself when c_i is a point), and the (J, m)
    arrays of t, the distance from zeta to c_j closest to d, and |log(d / t)|
    from ``_log_gap``; None where c_i is the only component and a point.
    Where c_i is a point p, zeta is p at all m points: zeta is then the
    one-entry array [p], and its (J, 1) column of ranges serves every point."""
    point = isinstance(ci, ComplementPoint)
    others = [cj for j, cj in enumerate(comps) if not (point and j == i)]
    if not others:
        return None
    zeta = ci.nearest_point_field(z[:1] if point else z)
    lo, hi = (np.array(r) for r in zip(*(cj.xi_range_field(zeta) for cj in others)))
    return (zeta, others) + _log_gap(d, lo, hi)


def beta(domain: Domain, z: ExtPoint) -> BetaResult:
    """Boundary-gap exponent at z, with the witnessing boundary pairs.

    Returns the exponent value, the distance to the boundary, the nearest
    boundary points, all (zeta, xi) pairs achieving the minimum (within
    relative slack 1e-9), and the associated annulus centered at the first
    witness (None when the exponent vanishes).  The value is
    ``beta_field``'s at z, bit for bit.
    """
    z = as_finite(z)
    delta = domain.delta(z)
    if math.isinf(delta):
        raise DomainError("domain has empty boundary")
    comps = domain.complement_components()
    zs = np.asarray(z, dtype=np.complex128)
    dists = np.stack([c.distance_field(zs) for c in comps])

    delta_all = dists.min(axis=0)
    entries: List[Tuple[float, complex, complex, float]] = []
    for i, ci, mask in _nearest_components(comps, dists, delta_all):
        terms = _gap_terms(comps, i, ci, zs[mask], delta_all[mask])
        if terms is None:
            continue
        zeta, others, ts, contributions = terms
        zeta = complex(zeta[0])
        for cj, t, contribution in zip(others, ts[:, 0], contributions[:, 0]):
            if np.isfinite(contribution):
                t = float(t)
                entries.append((float(contribution), zeta, cj.witness_at(zeta, t), t))
    if not entries:
        raise DomainError("the exponent needs at least two boundary points")

    value = min(e[0] for e in entries)
    cut = value + max(1e-12, 1e-9 * value)
    witnesses = tuple(BetaWitness(zeta, xi, t, c)
                      for (c, zeta, xi, t) in entries if c <= cut)
    ann = None
    if value > 0.0:
        ann = Annulus(witnesses[0].zeta, d=delta, m=value)
    return BetaResult(value=value, delta=delta,
                      nearest=tuple(_unique_points(w.zeta for w in witnesses)),
                      witnesses=witnesses, annulus=ann)


def beta_field(domain: Domain, z: np.ndarray) -> np.ndarray:
    """Vectorized exponent values; NaN at points outside the domain.

    One pass per nearest component c_i, over the m points where it is
    nearest, with the terms of the scalar ``beta`` (``_log_gap``).  Where
    c_i is a point, its ranges are constants of the domain, which
    ``Domain.gap_ranges`` keeps as a sorted disjoint union; a binary search
    of each distance d into it leaves the two intervals on either side of d
    (the first or last one twice beyond the ends).  Division is correctly
    rounded and the log monotone, so the term of the nearest range below d
    is the least over the ranges below it, and likewise above: the minimum
    has the bits of the minimum over every range, at two logs per point
    instead of one per other component.  Other components reduce their
    (J, m) terms from ``_gap_terms``.  Terms that are not finite are read as
    infinite."""
    z = np.asarray(z, dtype=np.complex128)
    comps = domain.complement_components()
    if len(comps) == 0:
        raise DomainError("domain has empty boundary")
    dists = np.stack([c.distance_field(z) for c in comps])
    delta = dists.min(axis=0)
    valid = delta > 0.0
    safe_delta = np.where(valid, delta, 1.0)
    out = np.full(z.shape, math.inf)
    for i, ci, mask in _nearest_components(comps, dists, safe_delta):
        d = safe_delta[mask]
        if isinstance(ci, ComplementPoint):
            lo, hi = domain.gap_ranges(i)
            if not lo.size:
                continue
            # the ranges below and above d, clipped to the first and last
            near = np.searchsorted(lo, d, side="right") - np.array([[1], [0]])
            contribution = _log_gap(d, lo.take(near, mode="clip"), hi.take(near, mode="clip"))[1]
        else:
            contribution = _gap_terms(comps, i, ci, z[mask], d)[3]
        # a term is inf or NaN where it is not finite, and fmin skips NaN
        out[mask] = np.fmin(out[mask], np.fmin.reduce(contribution, axis=0))
    if np.any(np.isinf(out[valid])):
        raise DomainError("the exponent needs at least two boundary points")
    return np.where(valid, out, math.nan)


# ---------------------------------------------------------------------------
# Density bounds built on the exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BPBounds:
    """Certified pointwise bounds for the hyperbolic density."""

    lower: float
    upper: float
    upper_available: bool
    beta: float
    delta: float

    def as_dict(self) -> dict:
        return {"lower": self.lower,
                "upper": None if not self.upper_available else self.upper,
                "upper_available": self.upper_available,
                "beta": self.beta, "delta": self.delta}


def bp_lambda_bounds(domain: Domain, z: ExtPoint) -> BPBounds:
    """Pointwise enclosure of the hyperbolic density:

    1/(delta (kappa + beta)) <= density <= (pi/2)/(delta beta),
    the upper bound flagged unavailable when the exponent vanishes.
    """
    if not domain.is_hyperbolic:
        raise DomainError("density bounds need a domain with three boundary points")
    res = beta(domain, z)
    lower = 1.0 / (res.delta * (KAPPA + res.value))
    if res.value > 0.0:
        return BPBounds(lower, (math.pi / 2.0) / (res.delta * res.value),
                        True, res.value, res.delta)
    return BPBounds(lower, math.inf, False, res.value, res.delta)


def bp_lower_density(domain: Domain):
    """Vectorized pointwise lower bound for the hyperbolic density."""
    def rho(z):
        z = np.asarray(z, dtype=np.complex128)
        return 1.0 / (domain.delta_field(z) * (KAPPA + beta_field(domain, z)))
    return rho


def bp_upper_density(domain: Domain):
    """Vectorized pointwise upper bound; infinite where the exponent vanishes."""
    def rho(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore"):
            return (math.pi / 2.0) / (domain.delta_field(z) * beta_field(domain, z))
    return rho


# ---------------------------------------------------------------------------
# Exponent decay across a fat annulus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BPDecayReport:
    ok: bool
    samples: int
    violations: int
    worst_low: float   # smallest beta / expected-lower ratio seen
    worst_high: float  # largest beta / expected-upper ratio seen
    examples: Tuple[Tuple[complex, float, float, float], ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "samples": self.samples, "violations": self.violations,
                "worst_low": self.worst_low, "worst_high": self.worst_high,
                "examples": [[[z.real, z.imag], b, lo, hi]
                             for (z, b, lo, hi) in self.examples]}


def check_bp_decay(domain: Domain, annulus: Annulus, samples: int = 200,
                   seed: int = 0) -> BPDecayReport:
    """Sample the annulus throat and check the two-sided exponent decay:

    (1/2)(m - |t|) <= beta <= 2 (m - |t|) at log-radius offset t from the
    center circle, for |t| <= m - margin, margin = log 16.
    """
    margin = math.log(16.0)
    if annulus.is_degenerate:
        raise ValueError("decay check needs a bounded annulus")
    m = annulus.half_modulus
    d = annulus.d
    t_max = m - margin
    if t_max <= 0.0:
        raise ValueError(f"annulus half-modulus {m} leaves no room under margin {margin}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-t_max, t_max, samples)
    theta = rng.uniform(0.0, 2.0 * math.pi, samples)
    z = annulus.center + d * np.exp(t + 1j * theta)
    b = beta_field(domain, z)
    lo = 0.5 * (m - np.abs(t))
    hi = 2.0 * (m - np.abs(t))
    bad = (b < lo * (1.0 - 1e-12)) | (b > hi * (1.0 + 1e-12))
    examples = tuple((complex(z[i]), float(b[i]), float(lo[i]), float(hi[i]))
                     for i in np.nonzero(bad)[0][:5])
    with np.errstate(divide="ignore", invalid="ignore"):
        worst_low = float(np.min(b / lo))
        worst_high = float(np.max(b / hi))
    return BPDecayReport(ok=not bool(bad.any()), samples=samples,
                         violations=int(bad.sum()), worst_low=worst_low,
                         worst_high=worst_high, examples=examples)


# ---------------------------------------------------------------------------
# Geodesics against essential annuli: bounce or cross
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABCViolation:
    annulus: Annulus
    min_radius: float
    max_radius: float
    crossings: int


@dataclass(frozen=True)
class ABCReport:
    ok: bool
    candidates: int
    checked: int
    violations: Tuple[ABCViolation, ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "candidates": self.candidates, "checked": self.checked,
                "violations": [{
                    "center": [v.annulus.center.real, v.annulus.center.imag],
                    "inner": v.annulus.inner, "outer": v.annulus.outer,
                    "min_radius": v.min_radius, "max_radius": v.max_radius,
                    "crossings": v.crossings} for v in self.violations]}


def dyadic_annulus_candidates(domain: Domain, nu: float, r_lo: float,
                              r_hi: float) -> List[Annulus]:
    """Essential annuli A(o; 2^j, nu) centered at finite boundary points,
    contained in the domain, with center radius in [r_lo, r_hi]."""
    if not (nu > 0.0 and 0.0 < r_lo < r_hi):
        raise ValueError("need nu > 0 and 0 < r_lo < r_hi")
    out: List[Annulus] = []
    for o in domain.finite_boundary_points():
        j_lo = math.floor(math.log2(r_lo)) - 1
        j_hi = math.ceil(math.log2(r_hi)) + 1
        for j in range(j_lo, j_hi + 1):
            ann = Annulus(o, d=2.0 ** j, m=nu)
            if annulus_inside(domain, ann):
                out.append(ann)
    return out


def _circle_hits(path: Polyline, center: complex, radius: float) -> List[Tuple[int, float]]:
    """(segment index, parameter) of every crossing of |z - center| = radius."""
    hits: List[Tuple[int, float]] = []
    pts = path.points
    for i in range(len(pts) - 1):
        roots = line_circle_roots(pts[i] - center, pts[i + 1] - pts[i], radius)
        hits.extend((i, t) for t in roots or () if 0.0 <= t <= 1.0)
    hits.sort()
    return hits


def check_abc(domain: Domain, path: Polyline, mu: float, nu: float,
              candidates: Optional[Sequence[Annulus]] = None) -> ABCReport:
    """Check the bounce-or-cross property of a near-geodesic path.

    For each essential annulus candidate, the path portion between its first
    and last meeting with the center circle must stay within log-radius mu of
    that circle (up to a relative grid slack of 1e-3), or else the path
    crosses the concentric annulus of half-modulus mu at most once.
    """
    pts = path.as_array()
    if candidates is None:
        cands: List[Annulus] = []
        for o in domain.finite_boundary_points():
            r = np.abs(pts - o)
            r_lo = float(np.min(r)) * math.exp(-nu) / 2.0
            r_hi = float(np.max(r)) * math.exp(nu) * 2.0
            cands.extend(a for a in dyadic_annulus_candidates(domain, nu, r_lo, r_hi)
                         if a.center == o)
        candidates = cands

    violations: List[ABCViolation] = []
    checked = 0
    for ann in candidates:
        d = ann.d
        hits = _circle_hits(path, ann.center, d)
        if len(hits) == 0:
            continue
        checked += 1
        (i0, t0), (i1, t1) = hits[0], hits[-1]
        z_start = pts[i0] + t0 * (pts[i0 + 1] - pts[i0])
        z_end = pts[i1] + t1 * (pts[i1 + 1] - pts[i1])
        mid = [z_start] + list(pts[i0 + 1:i1 + 1]) + [z_end]
        seg_a = np.asarray(mid[:-1], dtype=np.complex128)
        seg_b = np.asarray(mid[1:], dtype=np.complex128)
        keep = np.abs(seg_b - seg_a) > 0
        if keep.any():
            min_r = float(np.min(segment_point_distance(seg_a[keep], seg_b[keep], ann.center)))
        else:
            min_r = float(abs(mid[0] - ann.center))
        max_r = float(np.max(np.abs(np.asarray(mid) - ann.center)))
        bounce_ok = (min_r >= d * math.exp(-mu) * (1.0 - 1e-3)
                     and max_r <= d * math.exp(mu) * (1.0 + 1e-3))
        crossings = Annulus(ann.center, d=d, m=mu).crossing_count(path)
        if not (bounce_ok or crossings <= 1):
            violations.append(ABCViolation(ann, min_r, max_r, crossings))
    return ABCReport(ok=not violations, candidates=len(list(candidates)),
                     checked=checked, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Uniform perfectness
# ---------------------------------------------------------------------------

# A set is a sequence of pieces, each a Component: the complement components
# (points, closed disks, half-planes, disk exteriors) and the circles, rays
# and circle families below.

@dataclass(frozen=True)
class UPCircle(Component):
    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("circle radius must be finite and positive")

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = np.abs(np.asarray(zeta, dtype=np.complex128) - self.center)
        return np.abs(d - self.radius), d + self.radius

    def accumulates_at_infinity(self) -> bool:
        return False

    def centers(self) -> List[complex]:
        return circle_samples(self.center, self.radius)


@dataclass(frozen=True)
class UPRay(Component):
    origin: complex
    direction: complex

    def __post_init__(self):
        if self.direction == 0:
            raise ValueError("ray direction must be nonzero")

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        zeta = np.asarray(zeta, dtype=np.complex128)
        u = self.direction / abs(self.direction)
        s = np.maximum(0.0, ((zeta - self.origin) * u.conjugate()).real)
        return np.abs(self.origin + s * u - zeta), np.full(zeta.shape, math.inf)

    def accumulates_at_infinity(self) -> bool:
        return True

    def centers(self) -> List[complex]:
        return [self.origin]


@dataclass(frozen=True)
class UPCircleFamily(Component):
    """The doubly infinite family of circles |z - center| = scale * ratio^n, n in Z.

    The family accumulates at its center and at infinity; both limit points
    belong to the (closed) set it describes.  Its blocked distances come
    from ``_family_intervals``, which needs the other pieces' extent.
    """

    center: complex
    ratio: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.ratio > 1.0 and math.isfinite(self.ratio)):
            raise ValueError("ratio must be finite and > 1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be finite and positive")

    def radius(self, n: int) -> float:
        return self.scale * self.ratio ** n

    def distance_to(self, p: complex) -> float:
        d = abs(p - self.center)
        if d == 0.0:
            return 0.0
        x = math.log(d / self.scale) / math.log(self.ratio)
        return min(abs(d - self.radius(math.floor(x))),
                   abs(d - self.radius(math.ceil(x))))

    def accumulates_at_infinity(self) -> bool:
        return True

    def centers(self) -> List[complex]:
        return [self.center]


@dataclass(frozen=True)
class UPReport:
    unbounded: bool
    sup_modulus: float
    witness: Optional[Annulus]
    isolated: Tuple[ExtPoint, ...]
    centers_examined: int

    def as_dict(self) -> dict:
        iso = ["infinity" if is_infinite(p) else [p.real, p.imag] for p in self.isolated]
        w = None
        if self.witness is not None:
            w = {"center": [self.witness.center.real, self.witness.center.imag],
                 "inner": self.witness.inner, "outer": self.witness.outer}
        return {"unbounded": self.unbounded, "sup_modulus": self.sup_modulus,
                "witness": w, "isolated": iso,
                "centers_examined": self.centers_examined}


def _family_intervals(fam: UPCircleFamily, o: complex, ext_lo: float,
                      ext_hi: float, horizon: int) -> List[Tuple[float, float]]:
    """Blocked-distance intervals for one circle family seen from center o.

    Enumerates radii covering the extent of the other blockers with some
    spare decades, at most 400 circles; truncation is safe because
    off-center tail gaps are strictly below log(ratio) and the family center
    itself is a candidate.
    """
    d = abs(o - fam.center)
    logq = math.log(fam.ratio)
    ref_lo = min(x for x in (ext_lo, d if d > 0 else math.inf, fam.scale)
                 if x > 0 and math.isfinite(x))
    ref_hi = max(x for x in (ext_hi, d, fam.scale) if math.isfinite(x))
    n_lo = math.floor(math.log(ref_lo / fam.scale) / logq) - horizon
    n_hi = math.ceil(math.log(ref_hi / fam.scale) / logq) + horizon
    if n_hi - n_lo > 400:
        mid = (n_hi + n_lo) // 2
        n_lo, n_hi = mid - 200, mid + 200
    out: List[Tuple[float, float]] = []
    at_center = d <= 1e-12 * max(1.0, abs(o), fam.scale)
    for n in range(n_lo, n_hi + 1):
        r = fam.radius(n)
        if at_center:
            out.append((r, r))
        else:
            out.append((abs(d - r), d + r))
    if at_center:
        # collapse the tail below the horizon into a blocked stub: its gaps
        # all have modulus log(ratio), already present in the enumerated range
        out.append((0.0, fam.radius(n_lo)))
    return out


def up_modulus_sup(parts: Sequence[Component], horizon: int = 8) -> UPReport:
    """Supremum of annulus moduli over round annuli centered in the set E
    of the given pieces and avoiding E (the uniform-perfectness functional
    of the set).

    Centers are taken from the pieces' ``centers``, in the order the pieces
    are given (points, circle samples, disk centers, ray and half-plane
    origins, family accumulation centers); the first center reaching the
    supremum gives the witness.  An isolated finite point, or an isolated
    point at infinity, makes the supremum infinite; the report then lists
    the isolated points.

    ``horizon`` is the number of spare circles each circle family
    enumerates past the other blockers' extent, at each end.  It must be at
    least 1: with none, a family seen from its own center can show one
    circle and the collapsed tail, and no gap between them.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    parts = tuple(parts)
    isolated: List[ExtPoint] = []
    for pt in [b for b in parts if isinstance(b, ComplementPoint)]:
        gaps = [b.distance_to(pt.point) for b in parts if b is not pt]
        if not gaps or min(gaps) > 1e-12 * max(1.0, abs(pt.point)):
            isolated.append(pt.point)
    if not any(b.accumulates_at_infinity() for b in parts):
        isolated.append(INF)
    if isolated:
        return UPReport(unbounded=True, sup_modulus=math.inf, witness=None,
                        isolated=tuple(isolated), centers_examined=0)

    centers = _unique_points(c for b in parts for c in b.centers())
    families = [b for b in parts if isinstance(b, UPCircleFamily)]
    plain_parts = [b for b in parts if not isinstance(b, UPCircleFamily)]

    best = 0.0
    witness: Optional[Annulus] = None
    for o in centers:
        plain = [tuple(float(x) for x in b.xi_range_field(o)) for b in plain_parts]
        finite_endpoints = [x for pair in plain for x in pair
                            if math.isfinite(x) and x > 0.0]
        ext_lo = min(finite_endpoints) if finite_endpoints else math.inf
        ext_hi = max(finite_endpoints) if finite_endpoints else 0.0
        intervals = plain + [iv for fam in families
                             for iv in _family_intervals(fam, o, ext_lo, ext_hi, horizon)]
        if not intervals:
            continue
        intervals.sort()
        merged: List[List[float]] = [list(intervals[0])]
        for lo, hi in intervals[1:]:
            if lo <= merged[-1][1] * (1.0 + 1e-12) + 1e-300:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        # leading and trailing gaps are suppressed: the isolation pass above
        # guarantees accumulation at the center scale and at infinity
        for k in range(len(merged) - 1):
            h1 = merged[k][1]
            l2 = merged[k + 1][0]
            if h1 <= 0.0:
                return UPReport(unbounded=True, sup_modulus=math.inf,
                                witness=None, isolated=(complex(o),),
                                centers_examined=len(centers))
            mod = math.log(l2 / h1)
            if mod > best:
                best = mod
                witness = Annulus(o, inner=h1, outer=l2)
    return UPReport(unbounded=False, sup_modulus=best, witness=witness,
                    isolated=(), centers_examined=len(centers))


# JSON key -> (piece, its fields in constructor order); points are bare
# [re, im] pairs.  The order is the order of the pieces in the set.
_SET_PIECES = {
    "points": (ComplementPoint, None),
    "circles": (UPCircle, ("center", "radius")),
    "disks": (ComplementDisk, ("center", "radius")),
    "rays": (UPRay, ("origin", "direction")),
    "halfplanes": (ComplementHalfPlane, ("origin", "direction")),
    "disk_exteriors": (ComplementDiskExterior, ("center", "radius")),
    "families": (UPCircleFamily, ("center", "ratio", "scale")),
}
_REAL_FIELDS = ("radius", "ratio", "scale")


def up_set_from_json(obj: dict) -> Tuple[Component, ...]:
    """Strict parser for the uniform-perfectness set wire format: the
    pieces, points first, then circles, disks, rays, half-planes, disk
    exteriors and families, each in the order given."""
    if not isinstance(obj, dict):
        raise SchemaError("set description must be a JSON object")
    _require_fields(obj, "set description", (), (*_SET_PIECES, "includes_infinity"))
    if "includes_infinity" in obj and obj["includes_infinity"] is not True:
        raise SchemaError("these sets always contain infinity")
    parts: List[Component] = []
    for key, (piece, fields) in _SET_PIECES.items():
        rows = obj.get(key, [])
        if not isinstance(rows, list):
            raise SchemaError(f"{key} must be a list")
        for i, row in enumerate(rows):
            where = f"{key}[{i}]"
            if fields is None:
                parts.append(piece(cval(row, where)))
                continue
            if not isinstance(row, dict):
                raise SchemaError(f"{where} must be an object")
            _require_fields(row, where, fields)
            parts.append(piece(*((fval if f in _REAL_FIELDS else cval)(row[f], f"{where}.{f}")
                                 for f in fields)))
    return tuple(parts)


@dataclass(frozen=True)
class UPConversion:
    """Euclidean uniform-perfectness constants implied by a chordal one."""

    chordal_bound: float
    center_outside: float
    center_inside: float
    general: float

    def as_dict(self) -> dict:
        return {"chordal_bound": self.chordal_bound,
                "center_outside": self.center_outside,
                "center_inside": self.center_inside,
                "general": self.general}


def chordal_up_to_euclidean_bound(M: float) -> UPConversion:
    """Convert a chordal modulus bound M into Euclidean bounds:

    4M when the annulus center is outside the unit disk, 8M^2 when inside,
    64M^4 in general.  Requires M >= 2.
    """
    if not M >= 2.0:
        raise ValueError("the conversion constants require M >= 2")
    return UPConversion(chordal_bound=M, center_outside=4.0 * M,
                        center_inside=8.0 * M * M, general=64.0 * M ** 4)


# ---------------------------------------------------------------------------
# The fat-annulus witness configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FatAnnulusWitness:
    """Explicit points in a deep annular throat where the quasihyperbolic
    distance is large but the hyperbolic distance stays bounded below only
    weakly: the gap between the two metrics grows with the throat depth."""

    m: float
    a: complex
    b: complex
    c: complex
    domain: Domain
    annulus: Annulus
    annulus_separates: bool
    k_star_ab: float
    k_star_cb: float
    k_enclosure: Tuple[float, float]
    h_lower_ab: float
    h_lower_closed_form: float
    bp_upper_integral: float
    bp_upper_closed_form: float

    def as_dict(self) -> dict:
        return {"m": self.m,
                "a": [self.a.real, self.a.imag],
                "b": [self.b.real, self.b.imag],
                "c": [self.c.real, self.c.imag],
                "annulus_separates": self.annulus_separates,
                "k_star_ab": self.k_star_ab, "k_star_cb": self.k_star_cb,
                "k_enclosure": list(self.k_enclosure),
                "h_lower_ab": self.h_lower_ab,
                "h_lower_closed_form": self.h_lower_closed_form,
                "bp_upper_integral": self.bp_upper_integral,
                "bp_upper_closed_form": self.bp_upper_closed_form}


def fat_annulus_witness(m: float = 5.0) -> FatAnnulusWitness:
    """Build the three-point witness inside the annulus {e^-m < |z| < e^m}
    of the plane punctured at 0, -e^-m and -e^m, with m > 1:

    a = e^(1-m) near the inner edge, b = sqrt(a) in the throat, c = 1 on the
    center circle.
    """
    if not m > 1.0:
        raise ValueError("need m > 1")
    a = math.exp(1.0 - m)
    b = math.exp(0.5 * (1.0 - m))
    c = 1.0
    domain = FiniteComplement([0.0, -math.exp(-m), -math.exp(m)])
    annulus = Annulus(0.0, d=1.0, m=m)
    separates = annulus.separates(list(domain.punctures) + [INF])

    k_star_ab = abs(math.log(b / a))
    k_star_cb = abs(math.log(b / c))
    enclosure = (k_star_ab, 2.0 * k_star_ab)

    # normalize the puncture pair (0, -e^-m) to (0, 1) by z -> -e^m z
    s = -math.exp(m)
    val, available = h01_lower(s * a, s * b)
    if not available:
        raise AssertionError("witness points must land on one side of the unit circle")
    closed = math.log1p((m - 1.0) / (2.0 * (KAPPA + 1.0)))

    def density(z):
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z)
        return (math.pi / 2.0) / (r * (m + np.log(r)))

    integral = rho_length(Polyline([b, c]), density, rel_tol=1e-10)
    integral_closed = (math.pi / 2.0) * math.log(2.0 * m / (m + 1.0))

    return FatAnnulusWitness(m=m, a=complex(a), b=complex(b), c=complex(c),
                             domain=domain, annulus=annulus,
                             annulus_separates=separates,
                             k_star_ab=k_star_ab, k_star_cb=k_star_cb,
                             k_enclosure=enclosure,
                             h_lower_ab=val, h_lower_closed_form=closed,
                             bp_upper_integral=integral,
                             bp_upper_closed_form=integral_closed)
