"""Plane and sphere primitives.

Extended points (plane plus a point at infinity), the chordal metric, round
annuli with modulus bookkeeping, polylines, and the arc-plus-radial-segment
path used throughout as a cheap near-geodesic.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constants import INCIDENCE_RTOL


class _Infinity:
    """Singleton marker for the point at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()
ExtPoint = Union[complex, float, int, _Infinity]


def is_infinite(p: ExtPoint) -> bool:
    return isinstance(p, _Infinity)


def as_finite(p: ExtPoint) -> complex:
    """Coerce to a finite complex number, rejecting INF and non-finite floats."""
    if is_infinite(p):
        raise ValueError("expected a finite point, got the point at infinity")
    z = complex(p)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"point has non-finite coordinates: {z!r}")
    return z


def _unique_points(points: Iterable[complex]) -> List[complex]:
    """The points in order, each dropped that lies within 1e-12 times
    max(1, |p|) of a point kept before it."""
    kept: List[complex] = []
    for p in points:
        if not any(abs(p - q) <= 1e-12 * max(1.0, abs(p)) for q in kept):
            kept.append(p)
    return kept


# ---------------------------------------------------------------------------
# Chordal metric
# ---------------------------------------------------------------------------

def _lift_norm(z: complex) -> float:
    """sqrt(1 + |z|^2), overflow-safe."""
    return math.hypot(1.0, abs(z))


def chordal_distance(p: ExtPoint, q: ExtPoint) -> float:
    """Chordal distance on the sphere: 2|p-q| / (sqrt(1+|p|^2) sqrt(1+|q|^2))."""
    if is_infinite(p) and is_infinite(q):
        return 0.0
    if is_infinite(p):
        p, q = q, p
    z = as_finite(p)
    if is_infinite(q):
        return 2.0 / _lift_norm(z)
    w = as_finite(q)
    if z == w:
        return 0.0
    return 2.0 * abs(z - w) / (_lift_norm(z) * _lift_norm(w))


def chordal_distance_field(z: np.ndarray, p: ExtPoint,
                           lift_z: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized chordal distance from each entry of ``z`` to ``p``;
    ``lift_z`` is hypot(1, |z|), when the caller already has it."""
    z = np.asarray(z, dtype=np.complex128)
    if lift_z is None:
        lift_z = np.hypot(1.0, np.abs(z))
    if is_infinite(p):
        return 2.0 / lift_z
    w = as_finite(p)
    return 2.0 * np.abs(z - w) / (lift_z * _lift_norm(w))


# ---------------------------------------------------------------------------
# Segment utilities
# ---------------------------------------------------------------------------

def segment_point_distance(z1, z2, p):
    """Distance from point(s) ``p`` to the segment(s) [z1, z2].

    All arguments broadcast; returns an ndarray (or scalar float).  The
    foot's parameter is Re((p - z1) conj(w)) / |w|^2, w = z2 - z1; where that
    square or product leaves the float range (lengths beyond about 1e154),
    it is Re((p - z1) / w) instead, which numpy forms without squaring.
    """
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)
    w = z2 - z1
    with np.errstate(over="ignore", invalid="ignore"):
        ww = np.abs(w) ** 2
        t = ((p - z1) * np.conjugate(w)).real / np.where(ww > 0.0, ww, 1.0)
    huge = ~(np.isfinite(t) & (ww < math.inf))
    if huge.any():
        t = np.where(huge, ((p - z1) / np.where(w != 0, w, 1.0)).real, t)
    t = np.clip(t, 0.0, 1.0)
    foot = z1 + t * w
    out = np.abs(foot - p)
    if out.ndim == 0:
        return float(out)
    return out


def line_circle_roots(v: complex, w: complex, radius: float) -> Optional[Tuple[float, float]]:
    """The roots t1 < t2 of |v + t w| = ``radius``, or None where the line
    misses or touches the circle, or |w|^2 is 0."""
    ww = abs(w) ** 2
    if ww == 0.0:
        return None
    b = 2.0 * (v.conjugate() * w).real
    disc = b * b - 4.0 * ww * (abs(v) ** 2 - radius * radius)
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return (-b - s) / (2.0 * ww), (-b + s) / (2.0 * ww)


# ---------------------------------------------------------------------------
# Round annuli
# ---------------------------------------------------------------------------

class Annulus:
    """Open round annulus {z : inner < |z - center| < outer}.

    Bounded annuli may be built from the conformal-center radius ``d``
    (geometric mean of the radii) and half-modulus ``m``, so that
    ``inner = d e^-m`` and ``outer = d e^m``.  Two degenerate kinds carry a
    single radius: a punctured disk (``inner == 0``) and a disk exterior
    (``outer == inf``); both have infinite modulus.  A ``d e^-m`` that
    underflows to 0 gives the punctured disk.
    """

    __slots__ = ("center", "inner", "outer")

    def __init__(self, center: complex, d: float = None, m: float = None, *,
                 inner: float = None, outer: float = None):
        center = as_finite(center)
        by_dm = d is not None or m is not None
        by_radii = inner is not None or outer is not None
        if by_dm == by_radii:
            raise ValueError("give exactly one of (d, m) or (inner, outer)")
        if by_dm:
            if d is None or m is None:
                raise ValueError("both d and m are required")
            if not (d > 0.0 and math.isfinite(d)):
                raise ValueError(f"conformal-center radius must be finite and positive, got {d}")
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError(f"half-modulus must be finite and positive, got {m}")
            inner = d * math.exp(-m)
            try:
                outer = d * math.exp(m)
            except OverflowError:
                # e^m overflows where d e^m need not, as at a subnormal d
                half = math.exp(0.5 * m)
                outer = d * half * half
                if math.isinf(outer):
                    raise OverflowError(f"outer radius d e^m overflows, d={d}, m={m}")
        else:
            if inner is None or outer is None:
                raise ValueError("both inner and outer are required")
            inner = float(inner)
            outer = float(outer)
            if not (inner >= 0.0 and math.isfinite(inner)):
                raise ValueError(f"inner radius must be finite and >= 0, got {inner}")
            if not outer > inner:
                raise ValueError(f"outer radius must exceed inner, got {inner} and {outer}")
            if inner == 0.0 and math.isinf(outer):
                raise ValueError("a punctured plane is not an annulus here")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)

    def __setattr__(self, name, value):
        raise AttributeError("Annulus is immutable")

    # -- classification ----------------------------------------------------

    @property
    def kind(self) -> str:
        if self.inner == 0.0:
            return "punctured_disk"
        if math.isinf(self.outer):
            return "exterior"
        return "bounded"

    @property
    def is_degenerate(self) -> bool:
        return self.kind != "bounded"

    @property
    def d(self) -> float:
        """Conformal-center radius sqrt(inner * outer)."""
        if self.is_degenerate:
            raise ValueError("degenerate annulus has no conformal-center radius")
        return math.sqrt(self.inner * self.outer)

    @property
    def half_modulus(self) -> float:
        return 0.5 * self.modulus

    @property
    def modulus(self) -> float:
        """log(outer / inner); infinite for the degenerate kinds."""
        if self.is_degenerate:
            return math.inf
        return math.log(self.outer / self.inner)

    # -- membership ---------------------------------------------------------

    def contains(self, z: ExtPoint) -> bool:
        """Strict membership of a point in the open annulus."""
        if is_infinite(z):
            return False
        r = abs(as_finite(z) - self.center)
        return self.inner < r < self.outer

    def _in_inner_part(self, e: ExtPoint) -> bool:
        if is_infinite(e):
            return False
        r = abs(as_finite(e) - self.center)
        if self.inner == 0.0:
            return r <= INCIDENCE_RTOL * max(1.0, abs(self.center))
        return r <= self.inner * (1.0 + INCIDENCE_RTOL)

    def _in_outer_part(self, e: ExtPoint) -> bool:
        if is_infinite(e):
            return True
        if math.isinf(self.outer):
            return False
        r = abs(as_finite(e) - self.center)
        return r >= self.outer * (1.0 - INCIDENCE_RTOL)

    def separates(self, points: Iterable[ExtPoint]) -> bool:
        """True when the set touches both complementary parts and misses the annulus.

        The inner part is the closed disk of radius ``inner`` (just the center
        for a punctured disk); the outer part is the closed complement of the
        disk of radius ``outer`` together with infinity.  A set with a point
        strictly inside the annulus is never separated by it.
        """
        has_inner = False
        has_outer = False
        for e in points:
            if self._in_inner_part(e):
                has_inner = True
            elif self._in_outer_part(e):
                has_outer = True
            else:
                return False
        return has_inner and has_outer

    # -- crossings ------------------------------------------------------------

    def crossing_count(self, path: "Polyline") -> int:
        """Number of times the path traverses the annulus side to side.

        Contact events with the closed inner part and the closed outer part
        are extracted per segment (with a relative penetration tolerance, so
        tangential grazes do not count) and the transitions inner<->outer in
        the chronological event sequence are counted.
        """
        if math.isinf(self.outer):
            return 0
        events: List[str] = []

        r_in = self.inner * (1.0 - INCIDENCE_RTOL)
        r_out = self.outer * (1.0 + INCIDENCE_RTOL)
        pts = path.points
        for i in range(len(pts) - 1):
            z1 = pts[i] - self.center
            z2 = pts[i + 1] - self.center
            seg_events: List[Tuple[float, str]] = []
            w = z2 - z1
            ww = abs(w) ** 2

            def _level_interval(rho: float) -> Tuple[float, float]:
                # the part of [0, 1] where |z1 + t w| <= rho
                roots = line_circle_roots(z1, w, rho)
                if roots is not None:
                    return (max(0.0, roots[0]), min(1.0, roots[1]))
                return (0.0, 1.0) if ww == 0.0 and abs(z1) ** 2 <= rho * rho else (1.0, 0.0)

            if self.inner == 0.0:
                d_min = segment_point_distance(z1, z2, 0.0)
                if d_min <= 1e-12 * max(1.0, abs(z1), abs(z2)):
                    tt = 0.0 if ww == 0.0 else min(1.0, max(0.0, ((-z1) * w.conjugate()).real / ww))
                    seg_events.append((tt, "I"))
            else:
                lo, hi = _level_interval(r_in)
                if lo <= hi:
                    seg_events.append((lo, "I"))
            lo, hi = _level_interval(r_out)
            if lo > hi:
                # never gets within the outer radius: whole segment is outside
                seg_events.append((0.0, "O"))
            else:
                if lo > 0.0:
                    seg_events.append((0.0, "O"))
                if hi < 1.0:
                    seg_events.append((hi, "O"))
            seg_events.sort(key=lambda ev: ev[0])
            for _, kind in seg_events:
                if not events or events[-1] != kind:
                    events.append(kind)
        return max(0, len(events) - 1)

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Annulus) and self.center == other.center
                and self.inner == other.inner and self.outer == other.outer)

    def __hash__(self) -> int:
        return hash((self.center, self.inner, self.outer))

    def __repr__(self) -> str:
        return f"Annulus(center={self.center!r}, inner={self.inner!r}, outer={self.outer!r})"


# ---------------------------------------------------------------------------
# Polylines
# ---------------------------------------------------------------------------

def _finite_array(points: Sequence[ExtPoint]) -> Optional[np.ndarray]:
    """The points as one complex128 array, or None when some point is not a
    finite number (``as_finite`` then tells which, and how)."""
    try:
        z = np.asarray(points, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        return None
    if z.ndim != 1 or not np.isfinite(z).all():
        return None
    return z


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of Python's ``abs`` (np.abs differs in the last bit)."""
    return np.hypot(z.real, z.imag)


def _overflowing(z: np.ndarray) -> bool:
    """Whether the modulus of a vertex, or of the difference of two
    consecutive ones, overflows where Python's ``abs`` raises on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _abs(z)
        dz = z[1:] - z[:-1]
        gap = _abs(dz)
    return bool(np.isinf(r[:-1]).any() or np.isinf(r[1:]).any()
                or (np.isinf(gap) & np.isfinite(dz)).any())


class Polyline:
    """Immutable piecewise linear path through the finite vertices it is
    given, in order.  Consecutive vertices may coincide: a zero-length
    segment adds nothing to a length, and every measurement skips it.  The
    vertices are kept as a tuple and as the read-only array they were
    validated in."""

    __slots__ = ("points", "_array", "_length")

    def __init__(self, points: Sequence[ExtPoint]):
        z = _finite_array(points)
        if z is None:
            # the first point that is not a finite number raises
            z = np.array([as_finite(p) for p in points], dtype=np.complex128)
        if len(z) == 0:
            raise ValueError("a polyline needs at least one point")
        if _overflowing(z):
            raise OverflowError("absolute value too large")
        if z is points:
            z = z.copy()  # the caller's own array stays writable and apart
        z.flags.writeable = False
        object.__setattr__(self, "points", tuple(z.tolist()))
        object.__setattr__(self, "_array", z)
        object.__setattr__(self, "_length", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polyline is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def as_array(self) -> np.ndarray:
        """The vertices, as a read-only complex array."""
        return self._array

    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        z = self.as_array()
        return z[:-1], z[1:]

    @property
    def euclidean_length(self) -> float:
        if self._length is None:
            z = self.as_array()
            object.__setattr__(self, "_length", float(np.sum(np.abs(np.diff(z)))) if len(z) > 1 else 0.0)
        return self._length

    def reversed(self) -> "Polyline":
        return Polyline(self.points[::-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Polyline({len(self.points)} points, length={self.euclidean_length:.6g})"


# ---------------------------------------------------------------------------
# Arc-plus-radial joining path
# ---------------------------------------------------------------------------

# Largest angular step: at most one degree, and small enough that the chord
# sag of each arc piece stays below 1e-6 of the arc radius.
_ARC_STEP = min(math.radians(1.0), 2.0 * math.acos(1.0 - 1e-6))


def chi_arc(a: ExtPoint, b: ExtPoint, center: ExtPoint = 0.0) -> Polyline:
    """Join ``a`` to ``b`` by a circle arc at the smaller distance from
    ``center`` followed by a radial segment out to the farther point.

    The arc takes the shorter angular route; an exact half-turn goes
    counterclockwise.  Total length is at most (pi/2 + 1) |a - b|.  The
    interior vertices are computed about ``center`` and shifted back, but
    the first and last vertex are ``a`` and ``b`` themselves, so the path
    joins them at every scale.
    """
    c = as_finite(center)
    a = as_finite(a)
    b = as_finite(b)
    if a == b:
        return Polyline([a])
    va = a - c
    vb = b - c
    if va == 0 or vb == 0:
        raise ValueError("endpoints must differ from the arc center")
    flipped = abs(va) > abs(vb)
    if flipped:
        va, vb = vb, va
    # radial projection of the far point onto the near radius
    pivot = vb * (abs(va) / abs(vb))
    dphi = cmath.phase(pivot / va)
    pts = np.array([va])
    if abs(dphi) > 0.0:
        n = max(1, math.ceil(abs(dphi) / _ARC_STEP))
        # va rot^k for k < n, one product at a time as Python's complex
        # multiply takes it: numpy runs an accumulation whose output overlaps
        # its input (three terms or more) in its plain loop, where a single
        # product may take the fused vector loop and round differently
        steps = np.full(max(n, 3), cmath.exp(1j * dphi / n))
        steps[0] = va
        pts = np.append(np.multiply.accumulate(steps)[:n], pivot)
    if abs(vb) > abs(va):
        pts = np.append(pts, vb)
    if flipped:
        pts = pts[::-1]
    return Polyline(np.concatenate([[a], pts[1:-1] + c, [b]]))
