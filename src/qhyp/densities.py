"""Conformal densities, exact distances, and certified distance intervals
for the hyperbolic metric.

Density functions are vectorized (ndarray in, ndarray out) so they can be
fed straight into the path quadrature.  Distance estimates come in certified
pairs: a lower bound that holds for every path and an upper bound realized
by an explicit comparison domain or path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import KAPPA, PI_OVER_LOG2
from .domains import (
    Component,
    ComplementDiskExterior,
    ComplementPoint,
    Domain,
    DomainError,
    JsonRecord,
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
class DistanceInterval(JsonRecord):
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

    def __str__(self) -> str:
        return f"[{self.lower:.12g}, {self.upper:.12g}]"


# ---------------------------------------------------------------------------
# Hyperbolic distance estimates
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of a double
_NORMAL = sys.float_info.min  # the least positive normal double


def _log_quotient(x: float, y: float) -> Tuple[float, float]:
    """log(x / y) for positive x and y, and a bound on its error: the log of
    the quotient, or log x - log y where the quotient is not normal.  With
    ``math.log`` within an ulp (2 U of itself, U = 2^-53), the quotient's
    rounding moves the log by at most U and the log's own by 2 U |log|; the
    difference of logs is off by at most 2 U (|log x| + |log y|) plus U of
    itself.  The bound is about twice that: 4 U (1 + |value|), plus
    4 U (|log x| + |log y|) for the difference."""
    q = x / y
    if _NORMAL <= q < math.inf:
        v = math.log(q)
        return v, 4.0 * _U * (1.0 + abs(v))
    lx, ly = math.log(x), math.log(y)
    v = lx - ly
    return v, 4.0 * _U * (1.0 + abs(v) + abs(lx) + abs(ly))


def h_upper_Dstar(a: complex, b: complex, center: complex = 0.0,
                  radius: float = 1.0) -> float:
    """Upper bound for the hyperbolic distance in a punctured disk:

    |log(L_a / L_b)| + pi/log 2, with L_z = log(radius / |z - center|).

    It is the length of a radial segment plus a half-turn at the nearer
    point's radius, which pi/log 2 pays for only when that radius is at most
    radius/2; farther out the value can fall below the distance.  This is
    the paper's estimate; ``h_Dstar`` gives the distance itself.
    """
    a, b = as_finite(a), as_finite(b)
    la = _log_quotient(radius, abs(a - center))[0]
    lb = _log_quotient(radius, abs(b - center))[0]
    if not (la > 0.0 and lb > 0.0):
        raise DomainError("points must lie strictly inside the punctured disk")
    return abs(math.log(la / lb)) + PI_OVER_LOG2


def h_upper_disk_exterior(a: complex, b: complex, center: complex = 0.0,
                          radius: float = 1.0) -> float:
    """Mirror of ``h_upper_Dstar`` for the region outside a closed disk (the
    inversion about the circle): an upper bound when the farther point lies
    at least 2 radius from the center."""
    a, b = as_finite(a), as_finite(b)
    la = _log_quotient(abs(a - center), radius)[0]
    lb = _log_quotient(abs(b - center), radius)[0]
    if not (la > 0.0 and lb > 0.0):
        raise DomainError("points must lie strictly outside the closed disk")
    return abs(math.log(la / lb)) + PI_OVER_LOG2


def h_Dstar(a: complex, b: complex, center: complex = 0.0, radius: float = 1.0,
            outside: bool = False) -> Optional[Tuple[float, float]]:
    """Enclosure (lower, upper) of the hyperbolic distance between a and b in
    the punctured disk {0 < |z - center| < radius}, or, with ``outside``, in
    {|z - center| > radius}, its image under inversion (the disk about
    infinity); None where a point does not lie in it far enough to tell.

    z -> log z covers the punctured unit disk by the left half-plane, so
    with u = log(radius / |z - center|) (log(|z - center| / radius) outside)
    and theta in [-pi, pi] the angle between a - center and b - center,

        h = 2 asinh(sqrt(((u_a - u_b)^2 + theta^2) / (4 u_a u_b))),

    the form of cosh h = 1 + ((u_a - u_b)^2 + theta^2) / (2 u_a u_b) that
    does not round to 0 for close pairs.

    Error budget, with U = 2^-53.  Each u is ``_log_quotient``'s, whose
    bound e_u is widened by 6 U for |z - center|, which is within 3 U of
    itself (the subtraction and the modulus).  Being about twice each
    error, e_u also covers the rounding of |u_a - u_b|, at most
    U (u_a + u_b).  Where |z - center| or the radius is not a normal number,
    or u is within e_u of 0, the result is None.  theta, the difference of
    two ``math.atan2`` values reduced by ``math.remainder``, is within 32 U,
    about twice the sum of the angle error of each rounded vector (U), the
    atan2 roundings (an ulp of pi each), the difference (half an ulp of
    2 pi) and the rounding of 2 pi.  The formula is evaluated at the ends
    of these enclosures that make it smallest and largest; that evaluation
    takes at most about 11 U of relative rounding (asinh within 2 ulps, and
    its conditioning x asinh'(x) / asinh(x) at most 1), so each end is moved
    out by 16 U and then by one ulp with ``math.nextafter``.
    """
    a, b = as_finite(a), as_finite(b)
    if not _NORMAL <= radius < math.inf:
        return None
    us = []
    for z in (a, b):
        v = z - center
        d = math.hypot(v.real, v.imag)  # abs raises where the modulus overflows
        if not _NORMAL <= d < math.inf:
            return None
        u, e = _log_quotient(d, radius) if outside else _log_quotient(radius, d)
        e += 6.0 * _U
        if not u - e > 0.0:
            return None
        us.append((u, e))
    (ua, ea), (ub, eb) = us
    va, vb = a - center, b - center
    theta = abs(math.remainder(math.atan2(vb.imag, vb.real) - math.atan2(va.imag, va.real),
                               2.0 * math.pi))
    s, e, et = abs(ua - ub), ea + eb, 32.0 * _U
    hi = 2.0 * math.asinh(math.sqrt(((s + e) ** 2 + (theta + et) ** 2)
                                    / (4.0 * ((ua - ea) * (ub - eb)))))
    lo = 2.0 * math.asinh(math.sqrt((max(0.0, s - e) ** 2 + max(0.0, theta - et) ** 2)
                                    / (4.0 * ((ua + ea) * (ub + eb)))))
    if not math.isfinite(hi):
        return None
    return (max(0.0, math.nextafter(lo * (1.0 - 16.0 * _U), -math.inf)),
            math.nextafter(hi * (1.0 + 16.0 * _U), math.inf))


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
    from .beta import _beta_and_delta  # deferred: beta builds on this module

    def rho(z):
        with np.errstate(divide="ignore", over="ignore"):
            b, d = _beta_and_delta(domain, z)
            return np.minimum(2.0, (math.pi / 2.0) / b) / d

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


def _clearance(p: complex, others: Sequence[Component]) -> float:
    """A lower bound for the distance from the point p to the components
    ``others``: the least ``distance_field`` value, less a bound on its
    rounding.  |p - q| for a point q is within 3 U of itself, and is
    lowered by 8 U of itself.  For a circle of centre c and radius R the
    value is within about 4 U (|p| + |c| + R), and for a line through o
    within about 7 U (|p| + |o|); both are lowered by 16 U (|p| + s), with s
    the largest modulus among the component's ``centers()`` (for a circle
    at least (|c| + R) cos(pi/8), for a line |o|)."""
    r = math.inf
    for comp in others:
        d = float(comp.distance_field(np.asarray(p)))
        if isinstance(comp, ComplementPoint):
            d *= 1.0 - 8.0 * _U
        else:
            d -= 16.0 * _U * (abs(p) + max(abs(c) for c in comp.centers()))
        r = min(r, d)
    return r


def _comparison_disks(domain: Domain) -> List[Tuple[complex, float, bool, str, bool]]:
    """The punctured disks the domain contains, as (center, radius, outside,
    name, exact) for ``h_Dstar``: one about each point component p, of
    radius its distance to the rest of the complement, and, where infinity
    is a boundary point, the outside of a closed disk that holds the whole
    complement (centred on its bounding box).  ``exact`` marks the disk that
    is the domain itself: a point and the outside of an open disk about it,
    or one closed disk with infinity on the boundary.  The domain must be
    hyperbolic, so that a lone component is not a point."""
    comps = domain.complement_components()
    disks = []
    for comp in comps:
        if not isinstance(comp, ComplementPoint):
            continue
        p = comp.point
        others = [c for c in comps if c is not comp]
        if not others:
            continue
        if (len(others) == 1 and isinstance(others[0], ComplementDiskExterior)
                and others[0].center == p):
            disks.append((p, others[0].radius, False, "", True))
        else:
            disks.append((p, _clearance(p, others), False, f"{p:.6g}", False))
    if domain.sphere_boundary_includes_infinity():
        # every component is then a point or a closed disk
        if len(comps) == 1:
            disks.append((comps[0].center, comps[0].radius, True, "", True))
        else:
            spans = [(c.point, 0.0) if isinstance(c, ComplementPoint) else (c.center, c.radius)
                     for c in comps]
            lo_x = min(z.real - r for z, r in spans)
            hi_x = max(z.real + r for z, r in spans)
            lo_y = min(z.imag - r for z, r in spans)
            hi_y = max(z.imag + r for z, r in spans)
            c = complex(0.5 * lo_x + 0.5 * hi_x, 0.5 * lo_y + 0.5 * hi_y)
            # each |z - c| + r is within 4 U of itself; hypot, as abs raises
            # where the modulus overflows
            far = max(math.hypot((z - c).real, (z - c).imag) + r for z, r in spans)
            radius = math.nextafter(far * (1.0 + 8.0 * _U), math.inf)
            disks.append((c, radius, True, "inf", False))
    return disks


def h_interval(domain: Domain, a: complex, b: complex) -> DistanceInterval:
    """Certified interval for the hyperbolic distance between a and b.

    The lower bound is the best of the comparison-domain bounds: the model
    distance (``Component.h_lower``) in the disk or half-plane that a
    complement component bounds, which is exact when that component is the
    domain's only one and infinity is not a boundary point, and the
    twice-punctured-plane bound over anchor pairs.

    The upper bound is the least of the exact distances in the punctured
    disks the domain contains (``_comparison_disks``, measured by
    ``h_Dstar``), since h only grows on a smaller domain, and twice
    ``k_interval_fast``'s upper bound.  A disk counts when it holds both
    points, labelled ``punctured-disk(p)`` about a point component p and
    ``punctured-disk(inf)`` about infinity.  Where the disk is the domain
    itself (``PuncturedUnitDisk`` and the outside of a closed disk, and
    their images), both ends are its enclosure, ``punctured-disk-exact``,
    returned at once, as the ``disk-exact`` intervals are, without k.
    The doubling holds because the domain contains the disk B(z, delta(z)),
    so the hyperbolic density is at most 2/delta and h <= 2k.

    Only when no comparison disk holds both points is the finite density
    bound min(2/delta, (pi/2)/(delta beta)) integrated along one of the
    curves ``k_interval_fast`` measured (see ``_bp_arc_upper``).  That
    density never exceeds 2/delta, so the integral is finite and stops at
    the doubled bound; it replaces it, labelled ``density-bound(<curve>)``,
    only when it comes out strictly below.
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

    # comparison punctured disks, which the domain contains
    for center, radius, outside, name, exact in _comparison_disks(domain):
        bounds = h_Dstar(a, b, center, radius, outside)
        if bounds is None:
            continue
        if exact:
            # the enclosure is the interval; its lower end is raised to the
            # model bound where the points are too close for its rounding
            return DistanceInterval(max(lower, bounds[0]), bounds[1], "punctured-disk-exact",
                                    "punctured-disk-exact")
        if bounds[1] < upper:
            upper, upper_src = bounds[1], f"punctured-disk({name})"
    held = upper < math.inf

    anchors = _anchor_points(domain, a, b)
    for p in anchors:
        for q in anchors:
            if p == q:
                continue
            v = _twice_punctured_lower(a, b, p, q)
            if v is not None and v > lower:
                lower, lower_src = v, f"twice-punctured-lower({p:.6g},{q:.6g})"

    from .solver import _k_interval_fast_curves  # deferred: solver builds on this module

    k_fast, curves = _k_interval_fast_curves(domain, a, b)
    if 2.0 * k_fast.upper < upper:
        upper, upper_src = 2.0 * k_fast.upper, "double-quasihyperbolic"
    if curves and not held:
        v, name = _bp_arc_upper(domain, curves, upper)
        if v < upper:
            upper, upper_src = v, f"density-bound({name})"

    return DistanceInterval(lower, upper, lower_src, upper_src)
