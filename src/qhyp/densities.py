"""Conformal densities, exact distances, and certified distance intervals
for the hyperbolic metric.

Density functions are vectorized (ndarray in, ndarray out) so they can be
fed straight into the path quadrature.  Distance estimates come in certified
pairs: a lower bound that holds for every path and an upper bound realized
by an explicit comparison domain or path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import KAPPA, PI_OVER_LOG2
from .domains import (
    ComplementDisk,
    ComplementPoint,
    Domain,
    DomainError,
    OutsideDomainError,
    rho_length,
)
from .geometry import Polyline, _unique_points, as_finite


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def hyperbolic_disk_density(z) -> np.ndarray:
    """2 / (1 - |z|^2) on the unit disk."""
    z = np.asarray(z, dtype=np.complex128)
    return 2.0 / (1.0 - np.abs(z) ** 2)


def punctured_disk_density(z) -> np.ndarray:
    """1 / (|z| |log |z||) on the punctured unit disk."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    return 1.0 / (r * np.abs(np.log(r)))


def disk_exterior_density(z) -> np.ndarray:
    """1 / (|z| log |z|) outside the closed unit disk."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    return 1.0 / (r * np.log(r))


def halfplane_density(z) -> np.ndarray:
    """1 / Im z on the upper half-plane (hyperbolic = quasihyperbolic there)."""
    z = np.asarray(z, dtype=np.complex128)
    return 1.0 / z.imag


def lambda01_lower(z) -> np.ndarray:
    """Pointwise lower bound for the twice-punctured-plane density:

    1 / (|z| (kappa + |log |z||)), sharp at z = -1 where it equals 1/kappa.
    """
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    return 1.0 / (r * (KAPPA + np.abs(np.log(r))))


def quasihyperbolic_density(domain: Domain) -> Callable[[np.ndarray], np.ndarray]:
    """1 / dist(z, boundary) as a vectorized callable; inf where the
    distance is 0, or so small (subnormal) that its inverse overflows."""
    def rho(z):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return 1.0 / domain.delta_field(z)
    return rho


def chordal_quasihyperbolic_density(domain: Domain) -> Callable[[np.ndarray], np.ndarray]:
    """Spherical conformal factor over the chordal boundary distance.

    The distance comes from ``Domain.chordal_boundary_distance_field``,
    which lifts z to the sphere once per call for all components and keeps
    a running minimum."""
    def rho(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (2.0 / (1.0 + np.abs(z) ** 2)) / domain.chordal_boundary_distance_field(z)
    return rho


# ---------------------------------------------------------------------------
# Distance intervals
# ---------------------------------------------------------------------------

class InconsistentIntervalError(ValueError):
    pass


@dataclass(frozen=True)
class DistanceInterval:
    """A certified enclosure [lower, upper] of a distance; each endpoint
    carries a label naming the estimate that produced it."""

    lower: float
    upper: float
    lower_source: str = ""
    upper_source: str = ""

    def __post_init__(self):
        if not (self.lower >= 0.0):
            raise InconsistentIntervalError(f"negative lower bound {self.lower}")
        if math.isnan(self.upper) or self.upper < self.lower * (1.0 - 1e-13) - 1e-15:
            raise InconsistentIntervalError(
                f"upper bound {self.upper} below lower bound {self.lower}")
        if self.upper < self.lower:
            # iron out harmless rounding-level inversions from exact ties
            object.__setattr__(self, "upper", self.lower)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= x <= self.upper + tol

    def as_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper,
                "lower_source": self.lower_source, "upper_source": self.upper_source}

    def __str__(self) -> str:
        return f"[{self.lower:.12g}, {self.upper:.12g}]"


# ---------------------------------------------------------------------------
# Hyperbolic distance estimates
# ---------------------------------------------------------------------------

def _log_quotient(x: float, y: float) -> float:
    """log(x / y), or log x - log y where the quotient overflows."""
    q = x / y
    return math.log(q) if q < math.inf else math.log(x) - math.log(y)


def h_upper_Dstar(a: complex, b: complex, center: complex = 0.0,
                  radius: float = 1.0) -> float:
    """Upper bound for the hyperbolic distance in a punctured disk:

    |log(L_a / L_b)| + pi/log 2, with L_z = log(radius / |z - center|).

    It is the length of a radial segment plus a half-turn at the nearer
    point's radius, which pi/log 2 pays for only when that radius is at most
    radius/2; farther out the value can fall below the distance.
    """
    a, b = as_finite(a), as_finite(b)
    la = _log_quotient(radius, abs(a - center))
    lb = _log_quotient(radius, abs(b - center))
    if not (la > 0.0 and lb > 0.0):
        raise DomainError("points must lie strictly inside the punctured disk")
    return abs(math.log(la / lb)) + PI_OVER_LOG2


def h_upper_disk_exterior(a: complex, b: complex, center: complex = 0.0,
                          radius: float = 1.0) -> float:
    """Mirror of ``h_upper_Dstar`` for the region outside a closed disk (the
    inversion about the circle): an upper bound when the farther point lies
    at least 2 radius from the center."""
    a, b = as_finite(a), as_finite(b)
    la = _log_quotient(abs(a - center), radius)
    lb = _log_quotient(abs(b - center), radius)
    if not (la > 0.0 and lb > 0.0):
        raise DomainError("points must lie strictly outside the closed disk")
    return abs(math.log(la / lb)) + PI_OVER_LOG2


def h01_lower(a: complex, b: complex) -> Tuple[float, bool]:
    """Lower bound for the hyperbolic distance in the plane minus {0, 1}.

    Integrates the sharp density lower bound radially; available only when
    both points are on the same side of the unit circle (the returned flag
    is False otherwise, with value 0).
    """
    a, b = as_finite(a), as_finite(b)
    if a == 0 or b == 0 or a == 1 or b == 1:
        raise DomainError("points must avoid the punctures 0 and 1")
    ua = math.log(abs(a))
    ub = math.log(abs(b))
    if ua * ub < 0.0:
        return (0.0, False)
    lo, hi = sorted((abs(ua), abs(ub)))
    return (math.log((KAPPA + hi) / (KAPPA + lo)), True)


def h_upper_three_punct(a: float, b: float) -> float:
    """Upper bound for the hyperbolic distance between a and b in the plane
    minus {0, -a, -b}, for real 0 < a < b with log(b/a) > 2:

    4 + pi log((1/2) log(b/a)).
    """
    a_c, b_c = as_finite(a), as_finite(b)
    if a_c.imag != 0.0 or b_c.imag != 0.0:
        raise DomainError("endpoints must be real")
    av, bv = a_c.real, b_c.real
    if not (0.0 < av < bv):
        raise DomainError("need 0 < a < b")
    ratio_log = math.log(bv) - math.log(av)
    if not ratio_log > 2.0:
        raise DomainError(f"need log(b/a) > 2, got {ratio_log}")
    return 4.0 + math.pi * math.log(0.5 * ratio_log)


# ---------------------------------------------------------------------------
# Combined interval
# ---------------------------------------------------------------------------

def _anchor_points(domain: Domain, a: complex, b: complex) -> List[complex]:
    ends = np.array([a, b])
    return _unique_points(list(domain.finite_boundary_points()) + [
        complex(p) for comp in domain.complement_components()
        for p in comp.nearest_point_field(ends)])


def _twice_punctured_lower(a: complex, b: complex, p: complex, q: complex) -> Optional[float]:
    """Lower bound via the inclusion of the domain in the plane minus {p, q},
    or None when there is none: the points lie on either side of the circle
    |z - p| = |q - p|, or the image z -> (z - p)/(q - p) of one of them rounds
    onto 0 or 1 (a point within about 1e-16 |q - p| of p, as e^-64 is of 0),
    or overflows (a point beyond about 1e308 |q - p| from p)."""
    w = q - p
    za, zb = (a - p) / w, (b - p) / w
    # hypot, as abs raises where the modulus overflows
    if any(z in (0, 1) or not math.hypot(z.real, z.imag) < math.inf for z in (za, zb)):
        return None
    val, ok = h01_lower(za, zb)
    return val if ok else None


def _bp_arc_upper(domain: Domain, curves: Sequence[Tuple[Polyline, str]],
                  cap: float) -> Tuple[float, str]:
    """The integral, padded outward, of the finite density upper bound
    rho+ = min(2/delta, (pi/2)/(delta beta)) along the one of ``curves``
    whose integral to 1e-3 is smallest, with that curve's name.  It stops
    once it exceeds ``cap``, so a value above ``cap`` only says that the
    curve does not beat it.  An integral is infinite where the quadrature
    does not converge or rho+ overflows (delta subnormal), and the result is
    (inf, "") when no rough integral is finite.  2/delta holds as the domain
    contains the disk B(z, delta(z)); the Beardon-Pommerenke factor,
    infinite where beta vanishes, is an upper density only where
    ``beta_field`` does not exceed the true gap exponent, the same
    assumption ``bp_upper_density`` makes."""
    from .beta import beta_field  # deferred: beta builds on this module

    def rho(z):
        with np.errstate(divide="ignore", over="ignore"):
            return (np.minimum(2.0, (math.pi / 2.0) / beta_field(domain, z))
                    / domain.delta_field(z))

    def length(curve: Polyline, rel_tol: float, stop_above: float) -> float:
        try:
            return rho_length(curve, rho, rel_tol=rel_tol, stop_above=stop_above)
        except OutsideDomainError:  # rho+ is not finite on the curve
            return math.inf

    best, path, name = math.inf, None, ""
    for curve, curve_name in curves:
        rough = length(curve, 1e-3, best)
        if rough < best:
            best, path, name = rough, curve, curve_name
    if path is None:
        return math.inf, ""
    return length(path, 1e-8, cap) * (1.0 + 1e-8), name


def h_interval(domain: Domain, a: complex, b: complex) -> DistanceInterval:
    """Certified interval for the hyperbolic distance between a and b.

    The lower bound is the best of the comparison-domain bounds: the model
    distance (``Component.h_lower``) in the disk or half-plane that a
    complement component bounds, which is exact when that component is the
    domain's only one and infinity is not a boundary point, and the
    twice-punctured-plane bound over anchor pairs.  The upper bound is the
    best of the model estimates and twice a quasihyperbolic upper bound.
    The punctured-disk estimate about a puncture p applies when both points
    lie within r_p of p, the distance from p to the rest of the boundary,
    and the nearer one within r_p/2; the disk-exterior estimate when both
    lie outside the disk of radius R and the farther one at least 2R from
    its center.

    The doubling holds because the domain contains the disk B(z, delta(z)),
    so the hyperbolic density is at most 2/delta and h <= 2k.  When no model
    estimate is finite, ``k_interval_fast``'s upper endpoint is doubled, and
    the finite density bound min(2/delta, (pi/2)/(delta beta)) is integrated
    along one of the curves ``k_interval_fast`` measured (see
    ``_bp_arc_upper``).  That density never exceeds 2/delta, so the integral
    is finite and stops at the doubled bound; it replaces it, labelled
    ``density-bound(<curve>)``, only when it comes out strictly below.
    """
    a, b = as_finite(a), as_finite(b)
    if not (domain.contains(a) and domain.contains(b)):
        raise DomainError("both points must lie in the domain")
    if not domain.is_hyperbolic:
        raise DomainError("domain has fewer than three boundary points")
    if a == b:
        return DistanceInterval(0.0, 0.0, "coincident", "coincident")

    comps = domain.complement_components()
    lower = 0.0
    lower_src = "trivial"
    upper = math.inf
    upper_src = "none"

    # model lower bounds: the complement of a disk exterior or a half-plane
    # component is a model domain that contains the domain
    for comp in comps:
        model = comp.h_lower(a, b)
        if model is None:
            continue
        v, name = model
        if len(comps) == 1 and not domain.sphere_boundary_includes_infinity():
            return DistanceInterval(v, v, f"{name}-exact", f"{name}-exact")
        if v > lower:
            lower, lower_src = v, f"{name}-lower"
    anchors = _anchor_points(domain, a, b)
    for p in anchors:
        for q in anchors:
            if p == q:
                continue
            v = _twice_punctured_lower(a, b, p, q)
            if v is not None and v > lower:
                lower, lower_src = v, f"twice-punctured-lower({p:.6g},{q:.6g})"

    # model upper bounds
    for comp in comps:
        if not isinstance(comp, ComplementPoint):
            continue
        p = comp.point
        others = [c for c in comps if c is not comp]
        if not others:
            continue
        r_p = min(float(c.distance_field(np.asarray(p))) for c in others)
        near, far = sorted((abs(a - p), abs(b - p)))
        if far < r_p and near <= 0.5 * r_p:
            v = h_upper_Dstar(a, b, p, r_p)
            if v < upper:
                upper, upper_src = v, f"punctured-disk-estimate({p:.6g})"
    if (len(comps) == 1 and isinstance(comps[0], ComplementDisk)
            and not domain.contains_infinity):
        disk = comps[0]
        near, far = sorted((abs(a - disk.center), abs(b - disk.center)))
        if near > disk.radius and far >= 2.0 * disk.radius:
            v = h_upper_disk_exterior(a, b, disk.center, disk.radius)
            if v < upper:
                upper, upper_src = v, "disk-exterior-estimate"

    if math.isinf(upper):
        from .solver import _k_interval_fast_curves  # deferred: solver builds on this module

        k_fast, curves = _k_interval_fast_curves(domain, a, b)
        if 2.0 * k_fast.upper < upper:
            upper, upper_src = 2.0 * k_fast.upper, "double-quasihyperbolic"
        if curves:
            v, name = _bp_arc_upper(domain, curves, upper)
            if v < upper:
                upper, upper_src = v, f"density-bound({name})"

    return DistanceInterval(lower, upper, lower_src, upper_src)
