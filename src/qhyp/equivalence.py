"""Explicit quasiisometries between the hyperbolic and quasihyperbolic
metrics of a punctured plane domain, the certified verifier for rough
isometry claims, and the divergence construction showing the two metrics are
not equivalent with multiplicative constant one.

The global map is the identity on the thick part of the domain and collapses
each cusp neighborhood (around a puncture, or around infinity) onto a ray
aimed at the nearest other boundary point.  Near a puncture the hyperbolic
metric makes angular travel arbitrarily cheap while the quasihyperbolic one
charges full price, so a rough isometry has to flatten angles there; the ray
profile reparametrizes the log-distance to the puncture so that radial travel
costs match up to an additive constant.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import KAPPA
from .beta import UPDisk, UPDiskExterior, UPSet, up_modulus_sup
from .densities import h_interval, h_upper_three_punct
from .domains import Domain
from .solver import VerdictCounts, k_interval_fast, k_star_exact


# ---------------------------------------------------------------------------
# The ray-collapse building blocks
# ---------------------------------------------------------------------------

def theta_ray(p: complex, xi: complex) -> complex:
    """Unit direction from a puncture toward its witness boundary point."""
    v = complex(xi) - complex(p)
    if v == 0:
        raise ValueError("witness must differ from the puncture")
    return v / abs(v)


def psi_log(z: complex, p: complex, s: float) -> float:
    """Log-depth of z inside the scale-s neighborhood of p: log(s / |z - p|)."""
    r = abs(complex(z) - complex(p))
    if r <= 0 or s <= 0:
        raise ValueError("need z != p and a positive scale")
    return math.log(s / r)


def phi_punctured_disk(z: complex, r: float = 0.25) -> complex:
    """Model collapse map of the punctured unit disk onto itself, sending the
    hyperbolic metric to the quasihyperbolic one up to a rough isometry with
    multiplicative constant one.  The image radius solves
    |phi| * log(1/|phi|) matching scaled to r at |z| = r."""
    z = complex(z)
    az = abs(z)
    if not 0.0 < az < 1.0:
        raise ValueError("point must lie in the punctured unit disk")
    if not 0.0 < r < 1.0:
        raise ValueError("profile radius must lie in (0, 1)")
    return (z / az) * r * math.log(1.0 / r) / math.log(1.0 / az)


def phi_p(z: complex, p: complex, xi: complex, r_p: float) -> complex:
    """Cusp collapse near a finite puncture: send z to the ray from p toward
    xi, at radius r_p * log(s/r_p) / log(s/|z-p|) with s = |xi - p|."""
    p, xi, z = complex(p), complex(xi), complex(z)
    s = abs(xi - p)
    u = psi_log(z, p, s)
    u_r = math.log(s / r_p)
    if u <= 0 or u_r <= 0:
        raise ValueError("point must lie strictly inside the witness scale")
    return p + theta_ray(p, xi) * r_p * (u_r / u)


def phi_infinity(z: complex, xi: complex, r_inf: float) -> complex:
    """Collapse of the neighborhood of infinity onto the outward ray through
    the witness xi (the puncture of largest modulus):

    z maps to (xi/|xi|) * r_inf * log(|z|/|xi|) / log(r_inf/|xi|).
    """
    z, xi = complex(z), complex(xi)
    if xi == 0:
        raise ValueError("the witness for infinity must be nonzero")
    if not abs(z) > abs(xi):
        raise ValueError("point must lie outside the witness circle")
    if not r_inf > abs(xi):
        raise ValueError("chart radius must exceed the witness modulus")
    scale = math.log(r_inf / abs(xi))
    return (xi / abs(xi)) * r_inf * math.log(abs(z) / abs(xi)) / scale


# ---------------------------------------------------------------------------
# Global map configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PunctureConfig:
    """Chart layout for the global collapse map: one disk per puncture, one
    exterior chart for the end at infinity, each with its ray witness."""

    punctures: Tuple[complex, ...]
    radii: Tuple[float, ...]
    xis: Tuple[complex, ...]
    r_inf: float
    xi_inf: complex

    def __post_init__(self):
        object.__setattr__(self, "punctures", tuple(complex(p) for p in self.punctures))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "xis", tuple(complex(x) for x in self.xis))
        object.__setattr__(self, "xi_inf", complex(self.xi_inf))

    def violations(self) -> List[str]:
        out: List[str] = []
        P, R, X = self.punctures, self.radii, self.xis
        if not (len(P) == len(R) == len(X)):
            return ["punctures, radii and witnesses must align"]
        if len(P) < 2:
            out.append("need at least two finite punctures")
        tol = 1e-9
        for i, p in enumerate(P):
            others = [q for j, q in enumerate(P) if j != i]
            if not others:
                continue
            s = min(abs(q - p) for q in others)
            if R[i] <= 0:
                out.append(f"radius {i} must be positive")
                continue
            if 2.0 * R[i] > s * (1.0 + tol):
                out.append(f"chart {i}: 2 r must not exceed the nearest-boundary gap")
            if abs(abs(X[i] - p) - s) > tol * max(1.0, s):
                out.append(f"chart {i}: witness must be a nearest other puncture")
        for i in range(len(P)):
            for j in range(i + 1, len(P)):
                if 2.0 * (R[i] + R[j]) > abs(P[i] - P[j]) * (1.0 + tol):
                    out.append(f"charts {i},{j}: disks must stay separated")
        if self.r_inf <= 0:
            out.append("exterior chart radius must be positive")
        else:
            for i, p in enumerate(P):
                if abs(p) + R[i] > self.r_inf / 4.0 * (1.0 + tol):
                    out.append(f"chart {i}: disk must fit inside a quarter of "
                               "the exterior radius")
        big = max(abs(p) for p in P) if P else 0.0
        if abs(self.xi_inf) < big * (1.0 - tol) or self.xi_inf == 0:
            out.append("exterior witness must be a puncture of largest modulus")
        return out

    def validate(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("; ".join(problems))


def _tie_break_key(v: complex) -> Tuple[float, float, float, float]:
    return (math.atan2(v.imag, v.real), abs(v), v.real, v.imag)


def default_config(domain: Domain) -> PunctureConfig:
    """Canonical chart layout: radii a quarter of each nearest gap, exterior
    radius four times the furthest disk reach, witnesses chosen by smallest
    principal argument (then modulus, then coordinates)."""
    comps = domain.complement_components()
    from .domains import ComplementPoint
    if not comps or not all(isinstance(c, ComplementPoint) for c in comps):
        raise ValueError("the global map needs a finite set of punctures")
    P = [c.point for c in comps]
    if len(P) < 2:
        raise ValueError("need at least two punctures")
    radii: List[float] = []
    xis: List[complex] = []
    for p in P:
        others = [q for q in P if q != p]
        s = min(abs(q - p) for q in others)
        near = [q for q in others if abs(q - p) <= s * (1.0 + 1e-12)]
        near.sort(key=lambda q: _tie_break_key(q - p))
        radii.append(s / 4.0)
        xis.append(near[0])
    big = max(abs(p) for p in P)
    far = [q for q in P if abs(q) >= big * (1.0 - 1e-12) and q != 0]
    far.sort(key=_tie_break_key)
    r_inf = 4.0 * max(abs(p) + r for p, r in zip(P, radii))
    return PunctureConfig(punctures=tuple(P), radii=tuple(radii),
                          xis=tuple(xis), r_inf=r_inf, xi_inf=far[0])


@dataclass(frozen=True)
class GlobalQIMap:
    """Identity on the thick part, ray collapse in each cusp chart."""

    domain: Domain
    config: PunctureConfig
    up_modulus: float
    m_prime: Optional[float]
    additive_constant: Optional[float]

    def chart_of(self, z: complex) -> str:
        z = complex(z)
        cfg = self.config
        for i, p in enumerate(cfg.punctures):
            if abs(z - p) < cfg.radii[i]:
                return f"puncture:{i}"
        if abs(z) > cfg.r_inf:
            return "infinity"
        return "middle"

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        cfg = self.config
        for i, p in enumerate(cfg.punctures):
            if abs(z - p) < cfg.radii[i]:
                return phi_p(z, p, cfg.xis[i], cfg.radii[i])
        if abs(z) > cfg.r_inf:
            return phi_infinity(z, cfg.xi_inf, cfg.r_inf)
        return z

    def as_dict(self) -> dict:
        cfg = self.config
        return {"punctures": [[p.real, p.imag] for p in cfg.punctures],
                "radii": list(cfg.radii),
                "witnesses": [[x.real, x.imag] for x in cfg.xis],
                "r_inf": cfg.r_inf,
                "xi_inf": [cfg.xi_inf.real, cfg.xi_inf.imag],
                "up_modulus": self.up_modulus,
                "m_prime": self.m_prime,
                "additive_constant": self.additive_constant}


def build_global_qi_map(domain: Domain,
                        config: Optional[PunctureConfig] = None,
                        allow_unbounded: bool = False) -> GlobalQIMap:
    """Assemble the global collapse map and its rough-isometry additive
    constant.

    The constant is kappa + max(2M + log 4, 12 kappa + 4), where M is the
    supremum of moduli of round annuli separating the thickened boundary
    (puncture disks plus the exterior chart).  When that supremum cannot be
    certified finite the construction refuses unless `allow_unbounded` is
    set, in which case the map is returned without constants.
    """
    cfg = config or default_config(domain)
    cfg.validate()
    for p in cfg.punctures:
        if not any(abs(p - q) <= 1e-12 * max(1.0, abs(q))
                   for q in domain.finite_boundary_points()):
            raise ValueError("config punctures must match the domain")
    E = UPSet(disks=tuple(UPDisk(p, r) for p, r in zip(cfg.punctures, cfg.radii)),
              disk_exteriors=(UPDiskExterior(0.0, cfg.r_inf),))
    rep = up_modulus_sup(E)
    M = rep.sup_modulus
    if rep.unbounded or not math.isfinite(M):
        if not allow_unbounded:
            raise ValueError("separating-annulus modulus could not be bounded; "
                             "pass allow_unbounded to build the bare map")
        return GlobalQIMap(domain, cfg, math.inf, None, None)
    m_prime = max(2.0 * M + math.log(4.0), 12.0 * KAPPA + 4.0)
    return GlobalQIMap(domain, cfg, M, m_prime, KAPPA + m_prime)


# ---------------------------------------------------------------------------
# Certified rough-isometry verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoughIsometryReport(VerdictCounts):
    ok: bool
    pairs: int
    multiplicative: float
    additive: float
    violations: Tuple[dict, ...]
    slack: float
    proved: int = 0

    def as_dict(self) -> dict:
        return {"ok": self.ok, "pairs": self.pairs,
                "multiplicative": self.multiplicative, "additive": self.additive,
                "violations": list(self.violations), "slack": self.slack,
                **self.verdicts()}


def verify_rough_isometry(domain: Domain, phi: Callable[[complex], complex],
                          pairs: Sequence[Tuple[complex, complex]],
                          multiplicative: float = 1.0,
                          additive: float = 0.0) -> RoughIsometryReport:
    """Check h(a, b)/L - C <= k(phi a, phi b) <= L h(a, b) + C on the given
    pairs using certified enclosures on both sides.

    A pair is recorded as a violation only when the enclosures prove the
    claimed window is left; inconclusive pairs never fail.  `slack` is the
    largest certified excess over the window (zero when everything holds).
    Each pair is counted once: as violated, as proved when both enclosures
    lie inside the window, or else as inconclusive.
    """
    L, C = float(multiplicative), float(additive)
    if L <= 0:
        raise ValueError("multiplicative constant must be positive")
    violations: List[dict] = []
    slack = 0.0
    n = proved = 0
    for a, b in pairs:
        a, b = complex(a), complex(b)
        n += 1
        hiv = h_interval(domain, a, b)
        fa, fb = complex(phi(a)), complex(phi(b))
        kiv = k_interval_fast(domain, fa, fb)
        over = kiv.lower - (L * hiv.upper + C) if math.isfinite(hiv.upper) else -math.inf
        under = (hiv.lower / L - C) - kiv.upper if math.isfinite(kiv.upper) else -math.inf
        slack = max(slack, over, under, 0.0)
        tol = 1e-9 * max(1.0, kiv.lower, hiv.lower)
        if over > tol or under > tol:
            violations.append({"a": [a.real, a.imag], "b": [b.real, b.imag],
                               "h": hiv.as_dict(), "k_image": kiv.as_dict(),
                               "excess": max(over, under)})
        elif kiv.upper <= L * hiv.lower + C and hiv.upper / L - C <= kiv.lower:
            proved += 1
    return RoughIsometryReport(ok=not violations, pairs=n, multiplicative=L,
                               additive=C, violations=tuple(violations),
                               slack=slack, proved=proved)


# ---------------------------------------------------------------------------
# Scalar inequality helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QIEReport:
    lhs: float
    rhs: float
    ok: bool


def qie_inequality_check(K: float, L: float, x: float, y: float) -> QIEReport:
    """Check (K + x)/(K + y) >= (L/(K + L)) * (x/y) for x >= y > 0 and
    positive constants; the workhorse scalar bound behind chaining additive
    and multiplicative distortion estimates."""
    if not (K > 0 and L > 0 and x >= y > 0):
        raise ValueError("need K, L > 0 and x >= y > 0")
    lhs = (K + x) / (K + y)
    rhs = (L / (K + L)) * (x / y)
    return QIEReport(lhs=lhs, rhs=rhs, ok=lhs >= rhs * (1.0 - 1e-12))


@dataclass(frozen=True)
class QSIdentityReport:
    index: Optional[int]
    tau: float
    log_ratios: Tuple[float, ...]


def qs_eventual_identity_index(H: float, alpha: float,
                               log_moduli: Sequence[float]) -> QSIdentityReport:
    """Smallest index from which successive chordal gaps to infinity contract
    by at least tau = (1/(2H))^(1/alpha) (clamped below one), certifying that
    a quasisymmetric boundary map with control H t^alpha must eventually fix
    the tail of the sequence.

    Takes log-moduli so the sequence may grow far beyond floating range.
    """
    if not (H > 0 and alpha > 0):
        raise ValueError("need positive control parameters")
    t = np.asarray(list(log_moduli), dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("need an increasing sequence of log-moduli")
    tau = min((1.0 / (2.0 * H)) ** (1.0 / alpha), 1.0 - 1e-12)
    # log chi(z, inf) = log 2 - (1/2) log(1 + |z|^2), computed in log space
    log_chi = math.log(2.0) - 0.5 * np.logaddexp(0.0, 2.0 * t)
    ratios = np.diff(log_chi)
    good = ratios <= math.log(tau)
    index: Optional[int] = None
    for i in range(ratios.size - 1, -1, -1):
        if not good[i]:
            break
        index = i
    return QSIdentityReport(index=index, tau=tau,
                            log_ratios=tuple(float(r) for r in ratios))


# ---------------------------------------------------------------------------
# The divergence construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceRow:
    n: int
    L: float
    a: float
    b: float
    k_lower: float
    h_upper: Optional[float]
    bound: Optional[float]


@dataclass(frozen=True)
class DivergenceTable:
    rows: Tuple[DivergenceRow, ...]

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("n,L,k_lower,h_upper,bound\n")
        for r in self.rows:
            h = "" if r.h_upper is None else f"{r.h_upper:.17g}"
            g = "" if r.bound is None else f"{r.bound:.17g}"
            buf.write(f"{r.n},{r.L:.17g},{r.k_lower:.17g},{h},{g}\n")
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def counterexample_divergence(max_n: int = 7) -> DivergenceTable:
    """Pairs a_n = e^(-L_n), b_n = e^(L_n) with L_n = 2^(n-1) in the plane
    punctured at 0 and 1: the quasihyperbolic distance is at least 2 L_n
    while the hyperbolic distance is at most 4 + pi log L_n, so the gap
    (the `bound` column) grows without bound.  No rough isometry with
    multiplicative constant one can relate the two metrics here.
    ``max_n`` runs from 1 to 10: past n = 10, b_n = e^(2^(n-1)) overflows
    a double.
    """
    if max_n < 1:
        raise ValueError("need at least one row")
    if max_n > 10:
        raise ValueError(f"max_n must be at most 10 (b_n = e^(2^(n-1)) "
                         f"overflows a double past it), got {max_n}")
    rows: List[DivergenceRow] = []
    for n in range(1, max_n + 1):
        L = 2.0 ** (n - 1)
        a = math.exp(-L)
        b = math.exp(L)
        k_lo = k_star_exact(a, b, 0.0)
        if L > 1.0:
            h_up = h_upper_three_punct(a, b)
            bound = k_lo - h_up
        else:
            h_up = None
            bound = None
        rows.append(DivergenceRow(n=n, L=L, a=a, b=b, k_lower=k_lo,
                                  h_upper=h_up, bound=bound))
    return DivergenceTable(rows=tuple(rows))
