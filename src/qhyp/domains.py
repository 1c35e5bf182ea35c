"""Plane domains, their boundary geometry, and path length under a density.

Every domain is described by the closed components of its complement; the
distance-to-boundary field, nearest-boundary queries, the chordal boundary
distance, and the strict JSON wire format are all derived from that list.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import NEAREST_BOUNDARY_SLACK
from .geometry import (
    INF,
    ExtPoint,
    Polyline,
    as_finite,
    chordal_distance,
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


def k_star_exact(a: complex, b: complex, center: complex = 0.0) -> float:
    """Quasihyperbolic distance in the plane punctured at one point:
    the hypotenuse of the log-radius change and the minimal winding angle."""
    va, vb = complex(a) - center, complex(b) - center
    if va == 0 or vb == 0:
        raise ValueError("points must avoid the puncture")
    dlog = math.log(abs(vb)) - math.log(abs(va))
    dang = math.remainder(cmath.phase(vb) - cmath.phase(va), 2.0 * math.pi)
    return math.hypot(dlog, dang)


def halfplane_distance(a: complex, b: complex) -> float:
    """Hyperbolic (equals quasihyperbolic) distance in the upper half-plane."""
    a, b = as_finite(a), as_finite(b)
    if not (a.imag > 0.0 and b.imag > 0.0):
        raise DomainError("points must lie in the upper half-plane")
    s = abs(a - b) ** 2 / (2.0 * a.imag * b.imag)
    # acosh(1 + s) computed stably for small s
    return math.log1p(s + math.sqrt(s * (s + 2.0)))


class Component:
    """A closed component of a domain's complement.  Uniform perfectness sees
    one through ``blocked``, ``distance_to`` and ``centers``."""

    def distance_range_from(self, zeta: complex) -> Tuple[float, float]:
        raise NotImplementedError

    def blocked(self, o: complex) -> List[Tuple[float, float]]:
        """The distances from o the component occupies, as intervals."""
        return [self.distance_range_from(o)]

    def distance_to(self, p: complex) -> float:
        return self.distance_range_from(p)[0]

    def witness_at(self, zeta: complex, t: float) -> complex:
        """A point of the component at distance t from zeta."""
        raise NotImplementedError

    def k_lower(self, a: complex, b: complex) -> Optional[Tuple[float, str]]:
        """A lower bound for k: (k in a model domain containing the domain, label), or None."""
        return None


@dataclass(frozen=True)
class ComplementPoint(Component):
    """A single boundary point."""

    point: complex

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(z, dtype=np.complex128) - self.point)

    def nearest_points(self, z: complex) -> List[complex]:
        return [self.point]

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return np.full(z.shape, complex(self.point), dtype=np.complex128)

    def distance_range_from(self, zeta: complex) -> Tuple[float, float]:
        d = abs(zeta - self.point)
        return (d, d)

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

    def nearest_points(self, z: complex) -> List[complex]:
        v = z - self.center
        if v == 0:
            return [self.center + self.radius]
        return [self.center + self.radius * v / abs(v)]

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        v = z - self.center
        v = np.where(v == 0, 1.0, v)
        return self.center + self.radius * v / np.abs(v)

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

    def transformed(self, scale: complex, shift: complex) -> "_RoundComponent":
        return type(self)(scale * self.center + shift, abs(scale) * self.radius)


@dataclass(frozen=True)
class ComplementDisk(_RoundComponent):
    """A closed disk in the complement."""

    def distance_field(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(z, dtype=np.complex128) - self.center)
        return np.maximum(0.0, r - self.radius)

    def distance_range_from(self, zeta: complex) -> Tuple[float, float]:
        d = abs(zeta - self.center)
        return (max(0.0, d - self.radius), d + self.radius)

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

    def distance_range_from(self, zeta: complex) -> Tuple[float, float]:
        d = abs(zeta - self.center)
        return (max(0.0, self.radius - d), math.inf)

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

    def nearest_points(self, z: complex) -> List[complex]:
        u = self._unit()
        s = ((z - self.origin) / u).imag
        return [z - 1j * max(0.0, s) * u]

    def nearest_point_field(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        u = self._unit()
        s = np.maximum(0.0, ((z - self.origin) / u).imag)
        return z - 1j * s * u

    def distance_range_from(self, zeta: complex) -> Tuple[float, float]:
        s = ((zeta - self.origin) / self._unit()).imag
        return (max(0.0, s), math.inf)

    def xi_range_field(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        zeta = np.asarray(zeta, dtype=np.complex128)
        s = ((zeta - self.origin) / self._unit()).imag
        return np.maximum(0.0, s), np.full(zeta.shape, math.inf)

    def witness_at(self, zeta: complex, t: float) -> complex:
        return zeta - 1j * t * self._unit()

    def k_lower(self, a: complex, b: complex) -> Tuple[float, str]:
        u = self._unit()
        return halfplane_distance((a - self.origin) / u, (b - self.origin) / u), "halfplane"

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
    """Base class; concrete variants provide complement components and flags."""

    def complement_components(self) -> Tuple[Component, ...]:
        raise NotImplementedError

    def _contains_infinity(self) -> bool:
        return False

    def sphere_boundary_includes_infinity(self) -> bool:
        """Whether infinity is a boundary point of the domain on the sphere."""
        return not self._contains_infinity() and not any(
            comp.accumulates_at_infinity() for comp in self.complement_components())

    # -- membership and boundary distance -----------------------------------

    def contains(self, z: ExtPoint) -> bool:
        if is_infinite(z):
            return self._contains_infinity()
        try:
            z = as_finite(z)
        except ValueError:
            return False
        return all(float(comp.distance_field(np.asarray(z))) > 0.0
                   for comp in self.complement_components())

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

    def nearest_boundary(self, z: ExtPoint) -> List[complex]:
        """All boundary points at (relatively) minimal distance from ``z``.

        Points within a factor (1 + NEAREST_BOUNDARY_SLACK) of the minimum are
        kept; circular boundaries contribute their radial projection.
        """
        z = as_finite(z)
        d = self.delta(z)
        if math.isinf(d):
            return []
        found: List[complex] = []
        for comp in self.complement_components():
            cd = float(comp.distance_field(np.asarray(z)))
            if cd <= d * (1.0 + NEAREST_BOUNDARY_SLACK):
                for p in comp.nearest_points(z):
                    if not any(abs(p - q) <= 1e-12 * max(1.0, abs(p)) for q in found):
                        found.append(p)
        return found

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
        """Chordal distance from a point of the domain to its sphere
        boundary; raises outside, like ``delta``."""
        if is_infinite(z):
            if not self._contains_infinity():
                raise OutsideDomainError("the point at infinity is not in the domain")
            best = math.inf
            for comp in self.complement_components():
                if isinstance(comp, ComplementPoint):
                    best = min(best, chordal_distance(INF, comp.point))
                else:
                    raise UnsupportedDomainError(
                        "chordal boundary distance from infinity needs a point complement")
            return best
        z = as_finite(z)
        d = float(self.chordal_boundary_distance_field(np.asarray(z)))
        if d <= 0.0:
            raise OutsideDomainError(f"{z!r} is not in the domain")
        return d

    # -- boundary inventory ---------------------------------------------------

    def finite_boundary_points(self) -> Tuple[complex, ...]:
        return tuple(comp.point for comp in self.complement_components()
                     if isinstance(comp, ComplementPoint))

    def sphere_boundary_point_count(self) -> float:
        """Number of sphere-boundary points; math.inf for continuum components."""
        count = 0.0
        for comp in self.complement_components():
            if isinstance(comp, ComplementPoint):
                count += 1
            else:
                return math.inf
        if self.sphere_boundary_includes_infinity():
            count += 1
        return count

    @property
    def is_hyperbolic(self) -> bool:
        """At least three boundary points on the sphere."""
        return self.sphere_boundary_point_count() >= 3

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json_dict()!r})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.to_json_dict() == other.to_json_dict()

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_json_dict(), sort_keys=True))


class FiniteComplement(Domain):
    """The plane (or sphere, when ``contains_infinity``) minus finitely many points."""

    def __init__(self, punctures: Sequence[ExtPoint], contains_infinity: bool = False):
        pts = [as_finite(p) for p in punctures]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= 1e-15 * max(1.0, abs(pts[i]), abs(pts[j])):
                    raise DomainError(f"punctures {i} and {j} coincide")
        self._punctures = tuple(pts)
        self._contains_inf = bool(contains_infinity)
        self._components = tuple(ComplementPoint(p) for p in pts)

    @property
    def punctures(self) -> Tuple[complex, ...]:
        return self._punctures

    def _contains_infinity(self) -> bool:
        return self._contains_inf

    def complement_components(self) -> Tuple[Component, ...]:
        return self._components

    def to_json_dict(self) -> dict:
        out = {"type": "finite_complement",
               "punctures": [[p.real, p.imag] for p in self._punctures]}
        if self._contains_inf:
            out["contains_infinity"] = True
        return out


class UnitDisk(Domain):
    """The open unit disk."""

    def complement_components(self) -> Tuple[Component, ...]:
        return (ComplementDiskExterior(0.0, 1.0),)

    def to_json_dict(self) -> dict:
        return {"type": "unit_disk"}


class PuncturedUnitDisk(Domain):
    """The open unit disk minus the origin."""

    def complement_components(self) -> Tuple[Component, ...]:
        return (ComplementPoint(0.0), ComplementDiskExterior(0.0, 1.0))

    def to_json_dict(self) -> dict:
        return {"type": "punctured_unit_disk"}


class ExteriorUnitDisk(Domain):
    """The open region outside the closed unit disk (infinity excluded)."""

    def complement_components(self) -> Tuple[Component, ...]:
        return (ComplementDisk(0.0, 1.0),)

    def to_json_dict(self) -> dict:
        return {"type": "exterior_unit_disk"}


class UpperHalfPlane(Domain):
    """The open upper half-plane Im z > 0."""

    def complement_components(self) -> Tuple[Component, ...]:
        return (ComplementHalfPlane(0.0, 1.0),)

    def to_json_dict(self) -> dict:
        return {"type": "upper_half_plane"}


class PuncturedSubdomain(Domain):
    """A base domain with finitely many interior points removed."""

    def __init__(self, base: Domain, punctures: Sequence[ExtPoint]):
        pts = [as_finite(p) for p in punctures]
        for p in pts:
            if not base.contains(p):
                raise DomainError(f"puncture {p!r} is not inside the base domain")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= 1e-15 * max(1.0, abs(pts[i]), abs(pts[j])):
                    raise DomainError(f"punctures {i} and {j} coincide")
        self.base = base
        self._punctures = tuple(pts)

    @property
    def punctures(self) -> Tuple[complex, ...]:
        return self._punctures

    def _contains_infinity(self) -> bool:
        return self.base._contains_infinity()

    def complement_components(self) -> Tuple[Component, ...]:
        return self.base.complement_components() + tuple(
            ComplementPoint(p) for p in self._punctures)

    def to_json_dict(self) -> dict:
        return {"type": "punctured_subdomain",
                "base": self.base.to_json_dict(),
                "punctures": [[p.real, p.imag] for p in self._punctures]}


class TranslatedScaled(Domain):
    """The image of a base domain under z -> scale * z + shift."""

    def __init__(self, base: Domain, scale: complex, shift: complex = 0.0):
        scale = as_finite(scale)
        if scale == 0:
            raise DomainError("scale must be nonzero")
        self.base = base
        self.scale = scale
        self.shift = as_finite(shift)
        self._components = tuple(comp.transformed(scale, self.shift)
                                 for comp in base.complement_components())

    def _contains_infinity(self) -> bool:
        return self.base._contains_infinity()

    def complement_components(self) -> Tuple[Component, ...]:
        return self._components

    def to_json_dict(self) -> dict:
        return {"type": "translated_scaled",
                "base": self.base.to_json_dict(),
                "scale": [self.scale.real, self.scale.imag],
                "shift": [self.shift.real, self.shift.imag]}


# ---------------------------------------------------------------------------
# JSON wire format (strict)
# ---------------------------------------------------------------------------

def _require_fields(obj: dict, dtype: str, required: Sequence[str],
                    optional: Sequence[str] = ()) -> None:
    for key in obj:
        if key != "type" and key not in required and key not in optional:
            raise SchemaError(f"unknown field {key!r} for domain type {dtype!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {key!r} for domain type {dtype!r}")


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


def domain_from_json(obj: dict) -> Domain:
    if not isinstance(obj, dict):
        raise SchemaError("domain description must be a JSON object")
    dtype = obj.get("type")
    if dtype == "finite_complement":
        _require_fields(obj, dtype, ["punctures"], ["contains_infinity"])
        ci = obj.get("contains_infinity", False)
        if not isinstance(ci, bool):
            raise SchemaError("contains_infinity must be a boolean")
        return FiniteComplement(_parse_points(obj["punctures"], "punctures"), ci)
    if dtype == "unit_disk":
        _require_fields(obj, dtype, [])
        return UnitDisk()
    if dtype == "punctured_unit_disk":
        _require_fields(obj, dtype, [])
        return PuncturedUnitDisk()
    if dtype == "exterior_unit_disk":
        _require_fields(obj, dtype, [])
        return ExteriorUnitDisk()
    if dtype == "upper_half_plane":
        _require_fields(obj, dtype, [])
        return UpperHalfPlane()
    if dtype == "punctured_subdomain":
        _require_fields(obj, dtype, ["base", "punctures"])
        return PuncturedSubdomain(domain_from_json(obj["base"]),
                                  _parse_points(obj["punctures"], "punctures"))
    if dtype == "translated_scaled":
        _require_fields(obj, dtype, ["base", "scale", "shift"])
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

def rho_length(path, density: Callable[[np.ndarray], np.ndarray],
               rel_tol: float = 1e-8, stop_above: float = math.inf) -> float:
    """Integrate a positive density along a polyline.

    Adaptive midpoint quadrature, refined breadth-first with all active
    subintervals evaluated in one vectorized call per level.  The result is
    accurate to ``rel_tol`` relative error for smooth densities; pieces
    still unconverged after 60 levels contribute their last estimate.  A
    density value at a quadrature point that is not finite, or is negative,
    raises ``OutsideDomainError``.

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

    def mid_value(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        vals = np.asarray(density((a + b) / 2.0), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
            raise OutsideDomainError("density is not finite and positive on the path")
        return vals * np.abs(b - a)

    starts = z1s.copy()
    ends = z2s.copy()
    coarse = mid_value(starts, ends)
    total = 0.0
    for _ in range(60):
        if len(starts) == 0:
            break
        mids = (starts + ends) / 2.0
        left = mid_value(starts, mids)
        right = mid_value(mids, ends)
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
    else:
        total += float(np.sum(coarse))
    return total

