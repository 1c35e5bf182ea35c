"""Plane domains, their boundary geometry, and path length under a density.

A domain is plain data: the closed components of its complement, whether
it contains infinity, and its JSON description.  The distance-to-boundary
field, the nearest boundary points, the chordal boundary distance and the
model lower bounds for h and k are all derived from the components; the
``Domain`` subclasses only build the three.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    INF,
    Annulus,
    ExtPoint,
    Polyline,
    as_finite,
    chordal_distance_field,
    is_infinite,
)


class DomainError(ValueError):
    pass


class OutsideDomainError(DomainError):
    pass


class SchemaError(ValueError):
    pass


class UnsupportedDomainError(DomainError):
    pass


# ---------------------------------------------------------------------------
# Complement components
# ---------------------------------------------------------------------------

def circle_samples(center: complex, radius: float) -> List[complex]:
    """Eight points of a circle, at the angles k pi/4."""
    return [center + radius * complex(math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0))
            for k in range(8)]


def _scaled(v: complex, e: int) -> complex:
    return complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))


def _log_modulus(v: complex) -> float:
    """log |v| for v != 0.  Where |v| would overflow or be subnormal, v is
    first scaled by a power of 2, which is exact, and the power's log added."""
    e = math.frexp(max(abs(v.real), abs(v.imag)))[1]
    if -1021 < e < 1023:
        return math.log(abs(v))
    return math.log(abs(_scaled(v, e))) + e * math.log(2.0)


def k_star_exact(a: complex, b: complex, center: complex = 0.0) -> float:
    """Quasihyperbolic distance in the plane punctured at one point:
    the hypotenuse of the log-radius change and the minimal winding angle.

    Both points, relative to the centre, are first scaled by one power of 2,
    which is exact, so that the larger has a modulus near 1 and no modulus
    overflows.  With va the one of smaller modulus, vb the other and
    d = vb - va, the change is log1p(Re(d conj(va + vb)) / ((|va| + |vb|)
    |va|)), which is log(|vb| / |va|), and the angle is the argument of
    conj(va) vb = |va|^2 + conj(va) d.  Neither is a difference of nearly
    equal numbers, so points close together against their distance to the
    centre keep their relative accuracy.  Where |va| < 2^-500 |vb|, |va|^2
    could underflow; the change, above 346, is then the difference of the
    two log-moduli and the angle the difference of their ``math.atan2``
    values, neither of which cancels there."""
    va, vb = complex(a) - center, complex(b) - center
    if va == 0 or vb == 0:
        raise ValueError("points must avoid the puncture")
    e = math.frexp(max(abs(va.real), abs(va.imag), abs(vb.real), abs(vb.imag)))[1]
    sa, sb = _scaled(va, e), _scaled(vb, e)
    if min(abs(sa), abs(sb)) < 2.0 ** -500 * max(abs(sa), abs(sb)):
        dlog = _log_modulus(vb) - _log_modulus(va)
        dang = math.remainder(math.atan2(vb.imag, vb.real) - math.atan2(va.imag, va.real),
                              2.0 * math.pi)
        return math.hypot(dlog, dang)
    va, vb = sorted((sa, sb), key=abs)
    ra, rb = abs(va), abs(vb)
    d = vb - va
    w = va.conjugate() * d
    dlog = math.log1p((d * (va + vb).conjugate()).real / ((ra + rb) * ra))
    return math.hypot(dlog, math.atan2(w.imag, ra * ra + w.real))


def halfplane_distance(a: complex, b: complex) -> float:
    """Hyperbolic (equals quasihyperbolic) distance in the upper half-plane:
    cosh h = 1 + |a - b|^2 / (2 Im a Im b), so h = 2 asinh(|a - b| /
    (2 sqrt(Im a) sqrt(Im b))).  Neither |a - b| nor the heights are
    squared or multiplied together, so the value neither underflows (at
    1e-200i, 2e-200i, where h = log 2) nor overflows (at i, 1e160i).  Near
    the overflow threshold the quotient is taken as |a/4 - b/4| / (sqrt(Im a)
    sqrt(Im b) / 2) instead, and where 2 sqrt(Im a) sqrt(Im b) is subnormal
    (both heights below about 1e-294), a - b is divided by one root at a
    time, before its modulus is taken, so that no step is subnormal.  Where
    the quotient x itself overflows (a gap huge against the heights, as at
    1e200 + 1e-200i, 1e-200i), 2 asinh x equals 2 log 2x to the last bit, so
    h is taken as 2 (log |a - b| - log sqrt(Im a) - log sqrt(Im b)), with
    |a - b| as 4 |a/4 - b/4|."""
    a, b = as_finite(a), as_finite(b)
    if not (a.imag > 0.0 and b.imag > 0.0):
        raise DomainError("points must lie in the upper half-plane")
    sa, sb = math.sqrt(a.imag), math.sqrt(b.imag)
    if max(abs(a.real), abs(b.real), a.imag, b.imag) < 1e307:  # |a - b| and 2 sa sb are finite
        den = 2.0 * sa * sb
        if den >= sys.float_info.min:
            x = abs(a - b) / den
        else:  # a subnormal product: divide by one root at a time, the larger first
            lo, hi = min(sa, sb), max(sa, sb)
            x = math.hypot((a.real - b.real) / hi, (a.imag - b.imag) / hi) / (2.0 * lo)
        if x < math.inf:
            return 2.0 * math.asinh(x)
    quarter = math.hypot(a.real / 4.0 - b.real / 4.0, a.imag / 4.0 - b.imag / 4.0)
    x = quarter / (0.5 * sa * sb)
    if x < math.inf:
        return 2.0 * math.asinh(x)
    return 2.0 * (math.log(4.0) + math.log(quarter) - math.log(sa) - math.log(sb))


def hyperbolic_disk_distance(a: complex, b: complex) -> float:
    """Hyperbolic distance in the unit disk (curvature -1 normalization
    matching the density 2/(1-|z|^2)): cosh h = 1 + 2 |a - b|^2 / ((1 - |a|^2)
    (1 - |b|^2)), so h = 2 asinh(|a - b| / sqrt((1 - |a|^2)(1 - |b|^2))).
    Each 1 - |z|^2 is taken as (1 - |z|)(1 + |z|), as
    ``_RoundComponent.h_lower`` takes it, so that distinct points a few ulps
    inside the circle keep a finite, positive distance; |a - b| is not
    squared, so that it does not underflow."""
    a, b = as_finite(a), as_finite(b)
    ra, rb = abs(a), abs(b)
    if not (ra < 1.0 and rb < 1.0):
        raise DomainError("points must lie in the open unit disk")
    return 2.0 * math.asinh(abs(a - b) / math.sqrt(((1.0 - ra) * (1.0 + ra))
                                                     * ((1.0 - rb) * (1.0 + rb))))


class Component:
    """A closed component of a domain's complement.  Uniform perfectness sees
    one through ``xi_range_field``, ``distance_to``, ``centers`` and
    ``accumulates_at_infinity``."""

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The least and greatest distance (perhaps inf) from each zeta to the component."""
        raise NotImplementedError

    def distance_to(self, p: complex) -> float:
        return float(self.xi_range_field(p)[0])

    def witness_at(self, zeta: complex, t: float) -> complex:
        """A point of the component at distance t from zeta."""
        raise NotImplementedError

    def k_lower(self, a: complex, b: complex) -> Optional[Tuple[float, str]]:
        """A lower bound for k: (k in a model domain containing the domain, label), or None."""
        return None

    def h_lower(self, a: complex, b: complex) -> Optional[Tuple[float, str]]:
        """A lower bound for h: (h in the model domain that is the
        component's complement on the sphere, the model's name), or None.
        It is exact when the component is the domain's only one and
        infinity is not on the domain's boundary."""
        return None


@dataclass(frozen=True)
class ComplementPoint(Component):
    """A single boundary point."""

    point: complex

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(z, dtype=np.complex128) - self.point)

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return np.full(z.shape, complex(self.point), dtype=np.complex128)

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = np.abs(np.asarray(zeta, dtype=np.complex128) - self.point)
        return d, d

    def witness_at(self, zeta: complex, t: float) -> complex:
        return self.point

    def k_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        return k_star_exact(a, b, self.point), f"winding({self.point:g})"

    def chordal_distance_field(self, z: np.ndarray, lift_z: np.ndarray) -> np.ndarray:
        return chordal_distance_field(z, self.point, lift_z)

    def accumulates_at_infinity(self) -> bool:
        return False

    def centers(self) -> List[complex]:
        return [self.point]

    def transformed(self, scale: complex, shift: complex) -> "ComplementPoint":
        return ComplementPoint(scale * self.point + shift)


@dataclass(frozen=True)
class _RoundComponent(Component):
    """What a closed disk and the closed outside of an open disk share:
    their boundary circle."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be finite and positive")

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        v = z - self.center
        v = np.where(v == 0, 1.0, v)
        return self.center + self.radius * (v / np.abs(v))

    def chordal_distance_field(self, z: np.ndarray, lift_z: np.ndarray) -> np.ndarray:
        if self.center != 0:
            raise UnsupportedDomainError(
                "chordal boundary distance to an off-center circle is not supported")
        z = np.asarray(z, dtype=np.complex128)
        proj = self.radius * np.exp(1j * np.angle(np.where(z == 0, 1.0, z)))
        lift_p = math.hypot(1.0, self.radius)
        # 0 inside the component, as distance_field is
        return np.where(self.distance_field(z) > 0, 2.0 * np.abs(z - proj) / (lift_z * lift_p),
                        0.0)

    def h_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        # w = (z - center) / radius maps the inside of the circle, and w =
        # radius / (z - center) its outside on the sphere, onto the unit
        # disk, where h = 2 asinh(|w_a - w_b| / sqrt((1 - |w_a|^2)(1 -
        # |w_b|^2))).  Written in z, both give the expression below, whose
        # factors |z - center| - radius are the points' distances to the
        # circle, taken as distance_field takes them, so no point of the
        # domain rounds onto the circle; r |a - b| is not squared, so that
        # it does not underflow.  A disk's model contains infinity: it is
        # exact only for a domain that does.  Each length is taken as m 2^e
        # with m in [1/2, 1), so that the product of the four factors cannot
        # leave the normal range (points far from a small circle, or a circle
        # below about 1e-77); scaling by a power of 2 is exact, so x keeps the
        # bits of r |a - b| / sqrt(product) wherever those steps are normal.
        # x itself stays below about 1e16: a factor |z - center| - radius of
        # a point the domain contains is at least an ulp of the radius.
        # Where a modulus overflowed, the bound is the trivial 0.
        ra, rb = (float(x) for x in np.abs(np.array([a, b]) - self.center))
        r = self.radius
        (mr, er), (mg, eg), (m1, e1), (m2, e2), (m3, e3), (m4, e4) = (
            math.frexp(f) for f in (r, abs(a - b), abs(ra - r), ra + r, abs(rb - r), rb + r))
        m, e = (m1 * m2) * (m3 * m4), e1 + e2 + e3 + e4
        if e % 2:
            m, e = 2.0 * m, e - 1
        mx, ex = (mr * mg) / math.sqrt(m), er + eg - e // 2
        if not math.isfinite(mx):
            return 0.0, "disk"
        return 2.0 * math.asinh(math.ldexp(mx, ex)), "disk"

    def transformed(self, scale: complex, shift: complex) -> "_RoundComponent":
        return type(self)(scale * self.center + shift, abs(scale) * self.radius)


@dataclass(frozen=True)
class ComplementDisk(_RoundComponent):
    """A closed disk in the complement."""

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=np.complex128) - self.center)
        return np.maximum(0.0, r - self.radius)

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = np.abs(np.asarray(zeta, dtype=np.complex128) - self.center)
        return np.maximum(0.0, d - self.radius), d + self.radius

    def witness_at(self, zeta: complex, t: float) -> complex:
        u = self.center - zeta
        u = u / abs(u) if u != 0 else 1.0
        return zeta + t * u

    def k_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        return k_star_exact(a, b, self.center), f"winding({self.center:g})"

    def accumulates_at_infinity(self) -> bool:
        return False

    def centers(self) -> List[complex]:
        return [self.center] + circle_samples(self.center, self.radius)


@dataclass(frozen=True)
class ComplementDiskExterior(_RoundComponent):
    """The closed region outside an open disk: {z : |z - center| >= radius}."""

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=np.complex128) - self.center)
        return np.maximum(0.0, self.radius - r)

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        d = np.abs(np.asarray(zeta, dtype=np.complex128) - self.center)
        return np.maximum(0.0, self.radius - d), np.full(d.shape, math.inf)

    def witness_at(self, zeta: complex, t: float) -> complex:
        u = zeta - self.center
        u = u / abs(u) if u != 0 else 1.0
        return zeta + t * u

    def accumulates_at_infinity(self) -> bool:
        return True

    def centers(self) -> List[complex]:
        return circle_samples(self.center, self.radius)


@dataclass(frozen=True)
class ComplementHalfPlane(Component):
    """A closed half-plane {z : Im((z - origin)/u) <= 0}, u = direction/|direction|."""

    origin: complex = 0.0
    direction: complex = 1.0

    def __post_init__(self):
        if self.direction == 0:
            raise ValueError("direction must be nonzero")

    def _unit(self) -> complex:
        return self.direction / abs(self.direction)

    def signed_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return ((z - self.origin) / self._unit()).imag

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.signed_field(z))

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        u = self._unit()
        s = np.maximum(0.0, ((z - self.origin) / u).imag)
        return z - 1j * s * u

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        zeta = np.asarray(zeta, dtype=np.complex128)
        s = ((zeta - self.origin) / self._unit()).imag
        return np.maximum(0.0, s), np.full(zeta.shape, math.inf)

    def witness_at(self, zeta: complex, t: float) -> complex:
        return zeta - 1j * t * self._unit()

    def k_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        u = self._unit()
        return halfplane_distance((a - self.origin) / u, (b - self.origin) / u), "halfplane"

    def h_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        # the hyperbolic and quasihyperbolic metrics of a half-plane agree
        return self.k_lower(a, b)

    def chordal_distance_field(self, z: np.ndarray, lift_z: np.ndarray) -> np.ndarray:
        if self.origin != 0 or self._unit() != 1:
            raise UnsupportedDomainError(
                "chordal boundary distance to a tilted half-plane is not supported")
        # z's image on the unit sphere, (2x, 2y, |z|^2 - 1) / (1 + |z|^2), is
        # at an angle with sine s and cosine c from the great circle of the
        # extended real line; the chord to that circle is s sqrt(2 / (1 + c))
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z)
        lift = lift_z
        s = 2.0 * np.maximum(z.imag, 0.0) / lift / lift  # 0 on the component Im z <= 0
        c = np.hypot(2.0 * z.real / lift / lift, ((r - 1.0) / lift) * ((r + 1.0) / lift))
        return s * np.sqrt(2.0 / (1.0 + c))

    def accumulates_at_infinity(self) -> bool:
        return True

    def centers(self) -> List[complex]:
        return [self.origin]

    def transformed(self, scale: complex, shift: complex) -> "ComplementHalfPlane":
        return ComplementHalfPlane(scale * self.origin + shift, scale * self.direction)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class Domain:
    """A plane domain as data: the closed components of its complement,
    whether it contains infinity, and its JSON description.  The subclasses
    are its constructors; each builds the three and passes them here."""

    def __init__(self, components: Sequence[Component], contains_infinity: bool,
                 spec: dict):
        self._components = tuple(components)
        self._points = tuple(c.point for c in self._components if isinstance(c, ComplementPoint))
        self.contains_infinity = bool(contains_infinity)
        self._json = json.dumps(spec)
        self._gap_ranges: dict = {}

    def complement_components(self) -> Tuple[Component, ...]:
        return self._components

    def sphere_boundary_includes_infinity(self) -> bool:
        """Whether infinity is a boundary point of the domain on the sphere."""
        return not self.contains_infinity and not any(
            comp.accumulates_at_infinity() for comp in self.complement_components())

    # -- membership and boundary distance -----------------------------------

    def contains(self, z: ExtPoint) -> bool:
        if is_infinite(z):
            return self.contains_infinity
        try:
            z = as_finite(z)
        except ValueError:
            return False
        return bool(self.delta_field(np.asarray(z)) > 0.0)

    def delta_field(self, z: np.ndarray) -> np.ndarray:
        """Euclidean distance to the boundary, vectorized, without membership checks."""
        z = np.asarray(z, dtype=np.complex128)
        comps = self.complement_components()
        if not comps:
            return np.full(z.shape, math.inf)
        out = comps[0].distance_field(z)
        for comp in comps[1:]:
            out = np.minimum(out, comp.distance_field(z))
        return out

    def delta(self, z: ExtPoint) -> float:
        """Distance from an interior point to the boundary; raises outside."""
        z = as_finite(z)
        d = float(self.delta_field(np.asarray(z)))
        if d <= 0.0:
            raise OutsideDomainError(f"{z!r} is not in the domain")
        return d

    def chordal_boundary_distance_field(self, z: np.ndarray) -> np.ndarray:
        """Chordal distance to the sphere boundary of the domain, vectorized;
        0 outside the domain, like ``delta_field``.

        One pass: hypot(1, |z|) is computed once per call and shared by every
        component and by the term for infinity, and the minimum is kept in
        one running array, so memory does not grow with the components."""
        z = np.asarray(z, dtype=np.complex128)
        lift_z = np.hypot(1.0, np.abs(z))
        fields = [comp.chordal_distance_field for comp in self.complement_components()]
        if self.sphere_boundary_includes_infinity():
            fields.append(lambda z, lift_z: chordal_distance_field(z, INF, lift_z))
        if not fields:
            raise UnsupportedDomainError("domain has empty sphere boundary")
        # a 0-d input gives numpy scalars, which cannot take ``out=``
        out = np.asarray(fields[0](z, lift_z))
        for part in fields[1:]:
            np.minimum(out, part(z, lift_z), out=out)
        return out if out.ndim else out[()]

    def chordal_boundary_distance(self, z: ExtPoint) -> float:
        """Chordal distance from a finite point of the domain to its sphere
        boundary; raises outside, like ``delta``."""
        z = as_finite(z)
        d = float(self.chordal_boundary_distance_field(np.asarray(z)))
        if d <= 0.0:
            raise OutsideDomainError(f"{z!r} is not in the domain")
        return d

    # -- boundary inventory ---------------------------------------------------

    def finite_boundary_points(self) -> Tuple[complex, ...]:
        return self._points

    def point_punctures(self) -> Optional[Tuple[complex, ...]]:
        """The punctures when every complement component is a point (and
        there is one), else None."""
        if self._points and len(self._points) == len(self._components):
            return self._points
        return None

    def gap_ranges(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """The distances from point component i to the rest of the
        complement, as sorted disjoint closed intervals [lo[k], hi[k]] (hi
        may be inf; both arrays are empty when the point is the only
        component): the union of the other components' ``xi_range_field``
        ranges at the point, taken with the bits that call gives a one-entry
        array.  Built on the first call for each i and kept with the domain."""
        if i not in self._gap_ranges:
            p = np.full(1, self._components[i].point, dtype=np.complex128)
            merged: List[List[float]] = []
            for lo, hi in sorted((float(lo[0]), float(hi[0])) for lo, hi in (
                    c.xi_range_field(p) for j, c in enumerate(self._components) if j != i)):
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            self._gap_ranges[i] = (np.array([r[0] for r in merged], dtype=float),
                                   np.array([r[1] for r in merged], dtype=float))
        return self._gap_ranges[i]

    @property
    def is_hyperbolic(self) -> bool:
        """At least three boundary points on the sphere; a component that is
        not a point is a continuum of them."""
        if len(self._points) < len(self._components):
            return True
        return len(self._points) + self.sphere_boundary_includes_infinity() >= 3

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return json.loads(self._json)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json_dict()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self._json == other._json

    def __hash__(self) -> int:
        return hash(self._json)


def annulus_inside(domain: Domain, ann: Annulus) -> bool:
    """Whether the open annulus avoids every complement component."""
    for comp in domain.complement_components():
        lo, hi = comp.xi_range_field(ann.center)
        if hi > ann.inner * (1.0 + 1e-12) and lo < ann.outer * (1.0 - 1e-12):
            return False
    return True


def _distinct_points(points: Sequence[ExtPoint]) -> Tuple[complex, ...]:
    """The punctures as complex numbers; raises when two coincide."""
    pts = tuple(as_finite(p) for p in points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= 1e-15 * max(abs(pts[i]), abs(pts[j])):
                raise DomainError(f"punctures {i} and {j} coincide")
    return pts


class FiniteComplement(Domain):
    """The plane (or sphere, when ``contains_infinity``) minus finitely many points."""

    def __init__(self, punctures: Sequence[ExtPoint], contains_infinity: bool = False):
        self.punctures = _distinct_points(punctures)
        spec = {"type": "finite_complement",
                "punctures": [[p.real, p.imag] for p in self.punctures]}
        if contains_infinity:
            spec["contains_infinity"] = True
        super().__init__([ComplementPoint(p) for p in self.punctures], contains_infinity, spec)


class UnitDisk(Domain):
    """The open unit disk."""

    def __init__(self):
        super().__init__([ComplementDiskExterior(0.0, 1.0)], False, {"type": "unit_disk"})


class PuncturedUnitDisk(Domain):
    """The open unit disk minus the origin."""

    def __init__(self):
        super().__init__([ComplementPoint(0.0), ComplementDiskExterior(0.0, 1.0)], False,
                         {"type": "punctured_unit_disk"})


class ExteriorUnitDisk(Domain):
    """The open region outside the closed unit disk (infinity excluded)."""

    def __init__(self):
        super().__init__([ComplementDisk(0.0, 1.0)], False, {"type": "exterior_unit_disk"})


class UpperHalfPlane(Domain):
    """The open upper half-plane Im z > 0."""

    def __init__(self):
        super().__init__([ComplementHalfPlane(0.0, 1.0)], False, {"type": "upper_half_plane"})


class PuncturedSubdomain(Domain):
    """A base domain with finitely many interior points removed."""

    def __init__(self, base: Domain, punctures: Sequence[ExtPoint]):
        self.punctures = _distinct_points(punctures)
        for p in self.punctures:
            if not base.contains(p):
                raise DomainError(f"puncture {p!r} is not inside the base domain")
        super().__init__(
            base.complement_components() + tuple(ComplementPoint(p) for p in self.punctures),
            base.contains_infinity,
            {"type": "punctured_subdomain", "base": base.to_json_dict(),
             "punctures": [[p.real, p.imag] for p in self.punctures]})


class TranslatedScaled(Domain):
    """The image of a base domain under z -> scale * z + shift."""

    def __init__(self, base: Domain, scale: complex, shift: complex = 0.0):
        scale = as_finite(scale)
        if scale == 0:
            raise DomainError("scale must be nonzero")
        shift = as_finite(shift)
        super().__init__(
            [comp.transformed(scale, shift) for comp in base.complement_components()],
            base.contains_infinity,
            {"type": "translated_scaled", "base": base.to_json_dict(),
             "scale": [scale.real, scale.imag], "shift": [shift.real, shift.imag]})


# ---------------------------------------------------------------------------
# JSON wire format (strict)
# ---------------------------------------------------------------------------

def _require_fields(obj: dict, where: str, required: Sequence[str],
                    optional: Sequence[str] = ()) -> None:
    """Reject a JSON object with a field outside ``required`` and
    ``optional``, or without one of ``required``; ``where`` names the
    object in the message."""
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown field {key!r} in {where}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {key!r} in {where}")


def _parse_real(value, where: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise SchemaError(f"{where} must be a finite number")
    return float(value)


def _parse_complex(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v) for v in value)):
        raise SchemaError(f"{where} must be a [re, im] pair of finite numbers")
    return complex(value[0], value[1])


def _parse_points(value, where: str) -> List[complex]:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a list of [re, im] pairs")
    return [_parse_complex(v, f"{where}[{i}]") for i, v in enumerate(value)]


_MODEL_DOMAINS = {"unit_disk": UnitDisk, "punctured_unit_disk": PuncturedUnitDisk,
                  "exterior_unit_disk": ExteriorUnitDisk, "upper_half_plane": UpperHalfPlane}


def domain_from_json(obj: dict) -> Domain:
    if not isinstance(obj, dict):
        raise SchemaError("domain description must be a JSON object")
    dtype = obj.get("type")
    where = f"domain type {dtype!r}"
    if isinstance(dtype, str) and dtype in _MODEL_DOMAINS:
        _require_fields(obj, where, (), ("type",))
        return _MODEL_DOMAINS[dtype]()
    if dtype == "finite_complement":
        _require_fields(obj, where, ("punctures",), ("type", "contains_infinity"))
        ci = obj.get("contains_infinity", False)
        if not isinstance(ci, bool):
            raise SchemaError("contains_infinity must be a boolean")
        return FiniteComplement(_parse_points(obj["punctures"], "punctures"), ci)
    if dtype == "punctured_subdomain":
        _require_fields(obj, where, ("base", "punctures"), ("type",))
        return PuncturedSubdomain(domain_from_json(obj["base"]),
                                  _parse_points(obj["punctures"], "punctures"))
    if dtype == "translated_scaled":
        _require_fields(obj, where, ("base", "scale", "shift"), ("type",))
        return TranslatedScaled(domain_from_json(obj["base"]),
                                _parse_complex(obj["scale"], "scale"),
                                _parse_complex(obj["shift"], "shift"))
    raise SchemaError(f"unknown domain type {dtype!r}")


def domain_from_json_text(text: str) -> Domain:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return domain_from_json(obj)


# ---------------------------------------------------------------------------
# Path length under a density
# ---------------------------------------------------------------------------

# How many more pieces than the path has segments ``rho_length`` keeps
# active at once before it gives up.  The largest count seen over the test
# suite, ``qhyp verify-all`` and the benchmark workloads is 1,144,362, at
# rel_tol 1e-12 on a four-segment path.
_MAX_REFINED_PIECES = 1 << 21

def rho_length(path, density: Callable[[np.ndarray], np.ndarray],
               rel_tol: float = 1e-8, stop_above: float = math.inf) -> float:
    """Integrate a positive density along a polyline.

    Adaptive midpoint quadrature, refined breadth-first: each level halves
    every active piece and evaluates the density once, at the midpoints of
    all the left halves and then of all the right halves, and splits the
    values.  The density must be pointwise (each value depends only on its
    own point), as every density in the library is: the values, the errors
    and the early stop are then those of one call per half.  The result is
    accurate to ``rel_tol`` relative error for smooth densities.  A piece
    still unconverged after 60 levels makes the result infinite: its last
    estimate bounds nothing, and it is wrong by any factor where the density
    spans more than about 2^60 along it.  So does a level with more than
    ``_MAX_REFINED_PIECES`` active pieces beyond the path's own segments,
    which bounds the memory a level takes (about 0.5 GB at the cap for the
    quasihyperbolic density on the unit disk minus two points).  So does a
    piece whose density times length overflows.  A density value at a
    quadrature point that is not finite, or is negative, raises
    ``OutsideDomainError``.

    ``stop_above`` ends the refinement early, returning the partial sum as
    soon as it exceeds that value.  A piece is accepted only when
    |fine - coarse| <= 1.5 rel_tol fine, so no accepted contribution is
    negative and the full integral is at least the partial sum: a caller
    that only wants to know whether the length beats ``stop_above`` gets
    the same answer, and a value below ``stop_above`` is never cut short.
    """
    if isinstance(path, Polyline):
        z1s, z2s = path.segments()
    else:
        arr = np.asarray(list(path), dtype=np.complex128)
        z1s, z2s = arr[:-1], arr[1:]
    if len(z1s) == 0:
        return 0.0

    def mid_values(*pieces: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        # the midpoint rule on every (start, end) pair, in one density call
        vals = np.asarray(density(np.concatenate([(a + b) / 2.0 for a, b in pieces])),
                          dtype=float)
        if not (np.isfinite(vals).all() and (vals >= 0.0).all()):
            raise OutsideDomainError("density is not finite and positive on the path")
        with np.errstate(over="ignore"):  # an infinite piece makes the length infinite
            return vals * np.concatenate([np.abs(b - a) for a, b in pieces])

    starts, ends = z1s, z2s
    limit = len(starts) + _MAX_REFINED_PIECES
    coarse = mid_values((starts, ends))
    if not np.isfinite(coarse).all():
        return math.inf
    total = 0.0
    for _ in range(60):
        n = len(starts)
        if n == 0:
            break
        if n > limit:
            return math.inf
        mids = (starts + ends) / 2.0
        halves = mid_values((starts, mids), (mids, ends))
        if not np.isfinite(halves).all():
            return math.inf
        left, right = halves[:n], halves[n:]
        fine = left + right
        err = np.abs(fine - coarse) / 3.0
        done = err <= 0.5 * rel_tol * np.maximum(fine, 1e-300)
        total += float(np.sum(np.where(done, fine + (fine - coarse) / 3.0, 0.0)))
        if total > stop_above:
            return total
        keep = ~done
        starts = np.concatenate([starts[keep], mids[keep]])
        ends = np.concatenate([mids[keep], ends[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
    return math.inf if len(starts) else total


# ---------------------------------------------------------------------------
# Closed-form k-length in the plane minus finitely many points
# ---------------------------------------------------------------------------

_ROUND = 2.0 ** -53        # unit roundoff of a double
_ERR = 16.0 * _ROUND       # relative error budget of a derived coordinate
_PAD = 64.0 * _ROUND       # relative pad of each evaluated piece
_ABS = 2.0 ** -1068        # absolute error budget of a coordinate, for underflow
_TINY = 2.0 ** -1070       # absolute pad of each evaluated piece, for underflow
_LIFTED = 2.0 ** -960      # a subnormal size is scaled up to at least this


def _asinh_ratio(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """asinh(x / d) for x, d >= 0, without overflowing x / d; 0 where x is 0."""
    r = x / d
    big = ~(r < 1e300)  # also nan, at x = d = 0
    val = np.arcsinh(np.where(big, 0.0, r))
    if big.any():
        val = np.where(big, np.log(x + np.hypot(x, d)) - np.log(d), val)
    return np.where(x > 0, val, 0.0)


def _one_side(a: np.ndarray, ell: np.ndarray, d: np.ndarray) -> np.ndarray:
    """asinh((a + ell) / d) - asinh(a / d) for a, ell, d >= 0, the integral of
    1/sqrt(s^2 + d^2) over [a, a + ell], written as log1p of a sum of
    positive terms, so that a short piece far from its puncture keeps its
    relative accuracy; |log((a + ell) / a)| when d is 0.  Meaningless where
    ell is 0, which ``_piece_upper`` masks."""
    b = a + ell
    ra, rb = np.hypot(a, d), np.hypot(b, d)
    x = ell * (1.0 + (a + b) / (ra + rb)) / (a + ra)
    fine = x < 1e300
    return np.where(fine, np.log1p(np.where(fine, x, 0.0)), np.log(b + rb) - np.log(a + ra))


def _piece_upper(s0: Tuple[np.ndarray, np.ndarray], s1: Tuple[np.ndarray, np.ndarray],
                 ell: np.ndarray, d: np.ndarray) -> np.ndarray:
    """An upper bound of the integral of 1/sqrt((t - t_p)^2 + d_p^2) over a
    piece [t0, t1] of length at most ``ell``, where t0 - t_p lies in the
    enclosure ``s0`` = (lo, hi), t1 - t_p in ``s1``, and d_p >= ``d``.

    The integral grows with the length, shrinks as the piece moves away from
    the foot t_p, and shrinks with d_p; a piece that may contain the foot is
    bounded by the two sides' reaches and by asinh(x / d) + asinh((ell - x)
    / d), the piece whose foot lies x past t0, with x = ell / 2 clipped into
    [-s0.hi, -s0.lo] and to ell; it is infinite when d is 0."""
    right, left = s0[0] >= 0.0, s1[1] <= 0.0
    a = np.where(right, s0[0], np.where(left, -s1[1], 0.0))
    val = _one_side(a, ell, d)
    across = np.flatnonzero(~(right | left))
    if across.size:
        da, la = d[across], ell[across]
        x = np.minimum(np.clip(0.5 * la, -s0[1][across], -s0[0][across]), la)
        val[across] = np.where(da > 0, np.minimum(
            _asinh_ratio(np.maximum(-s0[0][across], 0.0), da)
            + _asinh_ratio(np.maximum(s1[1][across], 0.0), da),
            _asinh_ratio(x, da) + _asinh_ratio(la - x, da)), np.inf)
    return np.where(ell > 0, val * (1.0 + _PAD) + _TINY, 0.0)


def punctured_k_length(path, punctures: Sequence[complex]) -> float:
    """The quasihyperbolic length of a polyline in the plane minus the finite
    set ``punctures``, in closed form and rounded outward: never below the
    exact integral of 1/delta, and infinite when the path meets a puncture.

    Each segment [u, v] is parametrised as u + t e, |e| = 1, t in [0, L],
    from its end nearer the punctures.  For a puncture p, w = (p - u) conj(e)
    gives the foot t_p = Re w and the distance d_p = |Im w| of p from the
    segment's line, and |z - p|^2 = (t - t_p)^2 + d_p^2.  The nearest
    puncture changes where the segment crosses a perpendicular bisector, so
    the segment splits into at most P pieces, on each of which 1/delta has
    the antiderivative asinh((t - t_p) / d_p) (a log when d_p is 0).

    Error budget.  With U = 2^-53, every coordinate below is enclosed by its
    computed value plus or minus 16 U times the size it is derived from
    (about twice a first-order count of the roundings involved: U for p - u,
    5 U for the direction e, 3 U for the product), plus 2^-1068 for
    underflow:
    - the offsets t - t_p of u and of v from each foot, within 16 U |p - u|
      and 16 U |p - v|; an interior cut point t uses the enclosure from u or
      from v, whichever is narrower, the latter widened by L's own error of
      4 U L;
    - d_p, taken from the end nearer p, within 16 U min(|p - u|, |p - v|);
    - the side of the bisector of c and q at t, f(t) = Re((z - m) conj(n)),
      m = (c + q)/2, n = (q - c)/|q - c|, as -num + t den with num within
      16 U (|c - u| + |q - u|) and den within 16 U.
    Where f's upper bound is negative for every other q, c is surely the
    nearest puncture: on that core the piece is evaluated at the ends of the
    enclosures that make it largest, as ``_piece_upper`` says.  Between the
    cores lies the uncertainty about the breakpoints; there the smallest of
    four bounds is charged:
    - the 1-Lipschitz bound on delta, delta(t) >= delta(x) - |t - x| from
      either end x of the gap, whose integral is log(delta / (delta - w))
      over a gap of width w;
    - the piece of the puncture c of the core on either side, with d_c^2
      lowered by Q = max over q of 2 |q - c| f_cq, since |z - c|^2 - |z - q|^2
      = 2 |q - c| f_cq(z).
    Every evaluated piece is then padded by 64 U and 2^-1070, their sum by
    2 n U for its n terms, and the total rounded up once with
    ``math.nextafter``.  The 2^-1070 is the underflow budget: a subnormal
    sum is exact, any other subnormal step is off by at most 2^-1075, and
    where a piece's enclosures, distance bound and length are 0 or normal,
    at most six such steps, none steeper than slope 1 (quotients, asinh or
    log1p, the pad's product), lead to its value: 6 * 2^-1075 < 2^-1072.
    The error in d_p is what limits the accuracy: where a segment passes its
    foot, the integral moves by about 2 dd / d_p, so the result is within
    about 1e-12 relative of the exact integral where every d_p exceeds 1e-3
    of the segment's length.  The 2^-1070 pads would swamp a subnormal
    total, which ``_short_k_length`` bounds instead.  Memory is O(P S) for
    P punctures and S segments: the cores and the gaps take one pass over
    the punctures each.
    """
    if isinstance(path, Polyline):
        pts = path.as_array()
    else:
        pts = np.asarray(list(path), dtype=np.complex128)
    p = np.asarray(list(punctures), dtype=np.complex128)[:, None]
    u, v = pts[:-1], pts[1:]
    if u.size == 0:
        return 0.0
    if p.size == 0:
        raise ValueError("need at least one puncture")
    with np.errstate(all="ignore"):
        parts = _rescaled_pieces(u, v, p)
        if not np.all(parts < math.inf):
            return math.inf
        total = _sum_upper(parts)
        if total < sys.float_info.min:
            total = min(total, _short_k_length(u, v, p))
    return total


def _sum_upper(parts: np.ndarray) -> float:
    """The sum of the non-negative ``parts``, rounded up: a sum of n terms is
    off by less than (n - 1) U of itself, and a subnormal sum is exact."""
    return math.nextafter(float(np.sum(parts)) * (1.0 + 2.0 * parts.size * _ROUND), math.inf)


def _short_k_length(u: np.ndarray, v: np.ndarray, p: np.ndarray) -> float:
    """An upper bound of the k-length of the segments [u, v] about the (P, 1)
    column of punctures ``p``, for where that length is subnormal, so that
    each segment's length L is below 2^-1021 of its end u's distance d from
    the punctures.  The 1-Lipschitz bound -log1p(-L / d) <= L / (d - L) then
    exceeds the integral by about 2 L / d relative.  Each L / d is taken at
    scale 2^1000, where it is normal (a subnormal v - u is exact, and the
    scaling too), and only the total's final scaling down rounds in the
    subnormal range, upward; so the bound is within a few U and one step of
    2^-1074 of the integral.  inf where some L / d exceeds 2^-100."""
    scale = 2.0 ** 1000
    r = np.abs((v - u) * scale) / (np.abs(p - u).min(axis=0) * (1.0 - 8.0 * _ROUND))
    if not np.all(r <= 2.0 ** 900):
        return math.inf
    # 8 U covers the roundings and 1 / (1 - L / d); nextafter a subnormal r
    total = _sum_upper(np.nextafter(r * (1.0 + 8.0 * _ROUND), np.inf))
    down = total / scale
    return down if down * scale >= total else math.nextafter(down, math.inf)


def _rescaled_pieces(u: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``_punctured_pieces`` of the segments [u, v], except that a segment
    whose length or distance to a puncture is subnormal is measured after
    multiplying it and the punctures by 2^k, k > 0, which brings that size
    to at least ``_LIFTED``.  The product is exact, and z -> 2^k z maps the
    plane minus the punctures onto the plane minus their images, keeping
    every k-length; a segment where it overflows a coordinate gets inf.
    Where no size is subnormal the result is ``_punctured_pieces``' own."""
    size = np.minimum(np.abs(v - u), np.minimum(np.abs(p - u), np.abs(p - v)).min(axis=0))
    small = (size > 0) & (size < sys.float_info.min)
    if not small.any():
        return _punctured_pieces(u, v, p)
    parts = [_punctured_pieces(u[~small], v[~small], p)]
    shift = math.frexp(_LIFTED)[1] - np.frexp(size)[1]
    for k in np.unique(shift[small]):
        scale = 2.0 ** int(k)
        pick = small & (shift == k)
        su, sv, sp = u[pick] * scale, v[pick] * scale, p * scale
        if all(np.isfinite(z).all() for z in (su, sv, sp)):
            parts.append(_punctured_pieces(su, sv, sp))
        else:
            parts.append(np.full(su.size, np.inf))
    return np.concatenate(parts)


def _punctured_pieces(u: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The padded upper bounds of every core and gap of every segment, for
    ``punctured_k_length``; ``p`` is the (P, 1) column of punctures."""
    pu, pv = p - u, p - v
    ru, rv = np.abs(pu), np.abs(pv)
    flip = rv.min(axis=0) < ru.min(axis=0)   # start from the end nearer the punctures
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    pu, pv, ru, rv = (np.where(flip, pv, pu), np.where(flip, pu, pv),
                      np.where(flip, rv, ru), np.where(flip, ru, rv))
    seg = v - u
    length = np.abs(seg)
    live = length > 0
    if not live.all():
        u, seg, length, pu, pv, ru, rv = (u[live], seg[live], length[live], pu[:, live],
                                          pv[:, live], ru[:, live], rv[:, live])
    nseg = u.size
    if nseg == 0:
        return np.zeros(0)
    e = seg / length
    ec = np.conj(e)
    l_hi, l_lo = length * (1.0 + 4.0 * _ROUND), length * (1.0 - 4.0 * _ROUND)
    wu, wv = pu * ec, pv * ec
    eu, ev = _ERR * ru + _ABS, _ERR * rv + _ABS
    su, sv = -wu.real, -wv.real          # offsets of u and v from each foot
    near_u = ru <= rv
    d = np.where(near_u, np.abs(wu.imag), np.abs(wv.imag))
    d_lo = np.maximum(0.0, (d - np.where(near_u, eu, ev)) * (1.0 - 2.0 * _ROUND))

    def offsets(rows, cols, t, at_v):
        """(lo, hi) of t - t_p for the puncture ``rows`` on the segment
        ``cols`` (index arrays that broadcast); ``at_v`` marks v itself."""
        s_u, s_v, e_u, e_v = su[rows, cols], sv[rows, cols], eu[rows, cols], ev[rows, cols]
        lh, ll = l_hi[cols], l_lo[cols]
        mid = s_u + t
        err_u = e_u + 2.0 * _ROUND * np.abs(mid)
        lo_v, hi_v = s_v - (lh - t), s_v - (ll - t)
        err_v = e_v + 4.0 * _ROUND * (np.abs(s_v) + lh)
        by_u = 2.0 * err_u <= hi_v - lo_v + 2.0 * err_v
        lo = np.where(at_v, s_v - e_v, np.where(by_u, mid - err_u, lo_v - err_v))
        hi = np.where(at_v, s_v + e_v, np.where(by_u, mid + err_u, hi_v + err_v))
        return lo, hi

    def bisector_bounds(c_idx, cols):
        """(A, B) with f_cq(t) <= -A + t B for t >= 0, for every q (rows)
        and the puncture ``c_idx`` (one, or one per column) on the segments
        ``cols``, and 2 |q - c| rounded up; rows q = c hold nan."""
        n = p - p[c_idx, 0]
        nn = np.abs(n)
        nh_c = np.conj(n / nn)
        num = (0.5 * (pu[c_idx, cols] + pu[:, cols]) * nh_c).real
        a = num - (_ERR * (ru[c_idx, cols] + ru[:, cols]) + _ABS)
        return a, (e[cols] * nh_c).real + _ERR, 2.0 * (1.0 + 4.0 * _ROUND) * nn

    # cores: where f's upper bound, -A + t B, is negative for every other q
    npunct = p.shape[0]
    alpha = np.empty((npunct, nseg))
    beta = np.empty((npunct, nseg))
    for c in range(npunct):
        a, b, _ = bisector_bounds(c, slice(None))
        rising = b > 0
        r = np.nextafter(a / b, np.where(rising, -np.inf, np.inf))  # rounded inward
        keep_all = a > 0
        lo = np.where(b < 0, r, np.where(rising | keep_all, -np.inf, np.inf))
        hi = np.where(rising, r, np.where((b < 0) | keep_all, np.inf, -np.inf))
        lo[c], hi[c] = -np.inf, np.inf
        alpha[c] = np.maximum(0.0, lo.max(axis=0))
        beta[c] = np.minimum(hi.min(axis=0), l_hi)
    reach = beta >= l_hi                 # the core ends at v itself
    core = alpha < beta
    rows_c, cols_c = np.nonzero(core)
    pieces = [(rows_c, cols_c, alpha[core], np.zeros(rows_c.size, dtype=bool), beta[core],
               reach[core], (beta[core] - alpha[core]) * (1.0 + 2.0 * _ROUND), d_lo[core])]

    # the gaps: from u to the first core, and from each core to the next
    # one or to v, each with the cores on either side (-1 for none)
    alpha_m = np.where(core, alpha, np.inf)

    def next_core(after):
        end = after.min(axis=0)
        return end, np.where(end < np.inf, after.argmin(axis=0), -1)

    gaps = [(np.zeros(nseg), np.zeros(nseg, dtype=bool), np.full(nseg, -1),
             *next_core(alpha_m))]
    for c in range(npunct):
        gaps.append((np.where(core[c], beta[c], l_hi), reach[c], np.full(nseg, c),
                     *next_core(np.where(alpha_m >= beta[c], alpha_m, np.inf))))
    starts, start_v, left, ends, right = (np.array(x) for x in zip(*gaps))
    last = ends == np.inf                # the gap that ends at v
    ends = np.where(last, l_hi, ends)
    width = np.maximum(0.0, (ends - starts) * (1.0 + 2.0 * _ROUND))
    gj, gs = np.nonzero(width > 0)
    ngap = gs.size
    if ngap:
        w, t0, t1 = width[gj, gs], starts[gj, gs], ends[gj, gs]
        at0, at1 = start_v[gj, gs], last[gj, gs]
        left, right = left[gj, gs], right[gj, gs]
        # the candidate pieces: the puncture of the core on either side, or
        # the nearest one at that end of the segment
        cand = np.concatenate([np.where(left >= 0, left, np.argmin(ru[:, gs], axis=0)),
                               np.where(right >= 0, right, np.argmin(rv[:, gs], axis=0))])
        cols_g = np.concatenate([gs, gs])
        a, b, twice_n = bisector_bounds(cand, cols_g)
        t0_2, t1_2 = np.concatenate([t0, t0]), np.concatenate([t1, t1])
        f_top = np.maximum(np.maximum(t0_2 * b, t1_2 * b) - a, 0.0)
        q = np.where(np.arange(npunct)[:, None] == cand, 0.0, twice_n * f_top).max(axis=0)
        dc = d_lo[cand, cols_g]
        shrink = q / dc / dc * (1.0 + 4.0 * _ROUND)
        reducible = (q == 0) | (shrink < 1.0)
        d_red = np.where(q > 0, dc * np.sqrt(np.maximum(0.0, 1.0 - shrink))
                         * (1.0 - 4.0 * _ROUND), dc)
        pieces.append((cand, cols_g, t0_2, np.concatenate([at0, at0]), t1_2,
                       np.concatenate([at1, at1]), np.concatenate([w, w]), d_red))

    rows, cols, ta, va, tb, vb, ell, dd = (np.concatenate(x) for x in zip(*pieces))
    lo, hi = offsets(np.concatenate([rows, rows]), np.concatenate([cols, cols]),
                     np.concatenate([ta, tb]), np.concatenate([va, vb]))
    n = rows.size
    vals = _piece_upper((lo[:n], hi[:n]), (lo[n:], hi[n:]), ell, dd)
    ncore = rows_c.size
    if not ngap:
        return vals
    # the 1-Lipschitz bound from either end of each gap
    lo, hi = offsets(np.arange(npunct)[:, None], np.concatenate([gs, gs]),
                     np.concatenate([t0, t1]), np.concatenate([at0, at1]))
    dist = np.hypot(np.maximum(0.0, np.maximum(lo, -hi)), d_lo[:, np.concatenate([gs, gs])])
    ratio = (np.concatenate([w, w]) / (dist.min(axis=0) * (1.0 - 4.0 * _ROUND))
             * (1.0 + 2.0 * _ROUND))
    fits = ratio < 1.0
    lipschitz = (np.where(fits, -np.log1p(-np.where(fits, ratio, 0.0)), np.inf)
                 * (1.0 + _PAD) + _TINY)
    reduced = np.where(reducible, vals[ncore:], np.inf)
    charge = np.minimum(lipschitz, reduced).reshape(2, ngap).min(axis=0)
    return np.concatenate([vals[:ncore], charge])
