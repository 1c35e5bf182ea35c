"""Self-contained acceptance gate: twelve numbered criteria exercising the
library end to end.  Each criterion returns (ok, detail) and never raises on
a mere numeric failure; run_all collects the results in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .constants import KAPPA
from .geometry import Annulus, is_infinite
from .domains import (
    ComplementPoint,
    FiniteComplement,
    UpperHalfPlane,
    halfplane_distance,
    hyperbolic_disk_distance,
    k_star_exact,
)
from .densities import h_interval, h_upper_Dstar, lambda01_lower
from .beta import (
    UPCircleFamily,
    beta,
    bp_lambda_bounds,
    check_abc,
    check_bp_decay,
    chordal_up_to_euclidean_bound,
    fat_annulus_witness,
    up_modulus_sup,
)
from .solver import (
    Resolution,
    check_annulus_k_comparison,
    gp_lower_bound,
    k_chordal_numeric,
    k_interval_fast,
    k_numeric,
)
from .equivalence import (
    build_global_qi_map,
    counterexample_divergence,
    phi_punctured_disk,
    qie_inequality_check,
    qs_eventual_identity_index,
    verify_rough_isometry,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def criterion_01_kappa() -> Tuple[bool, str]:
    """The sharp constant Gamma(1/4)^4 / (4 pi^2) and its reciprocal."""
    ref = 4.376879230452955
    inv = 0.22847329052223173
    ok = (4.37687915 <= KAPPA <= 4.37687930
          and _close(KAPPA, ref, 1e-14)
          and _close(1.0 / KAPPA, inv, 1e-15))
    return ok, f"kappa={KAPPA!r}, 1/kappa={1.0 / KAPPA!r}"


def criterion_02_exact_formulas() -> Tuple[bool, str]:
    """Closed forms on the half-plane, disk, and once-punctured plane."""
    checks = [
        ("halfplane arccosh", halfplane_distance(1j, 1 + 2j), 0.9624236501192069),
        ("halfplane log2", halfplane_distance(1j, 2j), math.log(2.0)),
        ("h equals k on halfplane", halfplane_distance(1j, 2j), math.log(2.0)),
        ("one-puncture quarter turn", k_star_exact(1.0, 1j), math.pi / 2.0),
        ("one-puncture radial", k_star_exact(1.0, math.e), 1.0),
        ("gap bound", gp_lower_bound(FiniteComplement([0.0]), 1.0,
                                     complex(1.0, math.sqrt(2.0))),
         0.8813735870195429),
        ("disk diameter", hyperbolic_disk_distance(0.0, 0.5), math.log(3.0)),
    ]
    bad = [f"{name}: {got!r} vs {want!r}"
           for name, got, want in checks if not _close(got, want, 1e-12)]
    if bad:
        return False, "; ".join(bad)
    return True, "; ".join(f"{name}={got:.15g}" for name, got, _ in checks)


def criterion_03_sharp_density() -> Tuple[bool, str]:
    """The density lower bound is attained at -1 for the plane punctured at
    0 and 1, where the boundary-gap exponent vanishes."""
    dom = FiniteComplement([0.0, 1.0])
    lam = float(lambda01_lower(-1.0))
    res = beta(dom, -1.0)
    bounds = bp_lambda_bounds(dom, -1.0)
    ok = (_close(lam, 1.0 / KAPPA, 1e-15)
          and _close(lam, 0.22847329052223173, 1e-15)
          and res.value == 0.0
          and _close(bounds.lower, 1.0 / KAPPA, 1e-14)
          and not bounds.upper_available)
    return ok, (f"lower density at -1: {lam!r}, exponent {res.value!r}, "
                f"pointwise bound {bounds.lower!r} (upper available: "
                f"{bounds.upper_available})")


def criterion_04_beta_decay() -> Tuple[bool, str]:
    """Exponent values and two-sided decay across a depth-5 annulus of the
    plane punctured at 0, -e^-5, -e^5."""
    m = 5.0
    dom = FiniteComplement([0.0, -math.exp(-m), -math.exp(m)])
    b1 = beta(dom, 1.0)
    bm1 = beta(dom, -1.0)
    rep = check_bp_decay(dom, Annulus(0.0, d=1.0, m=m), samples=200, seed=0)
    ok = (_close(b1.value, 5.0, 1e-12)
          and 2.5 <= bm1.value <= 10.0
          and rep.ok)
    return ok, (f"beta(1)={b1.value!r}, beta(-1)={bm1.value!r}, decay "
                f"violations {rep.violations}/{rep.samples} "
                f"(ratio range [{rep.worst_low:.4f}, {rep.worst_high:.4f}])")


def criterion_05_annulus_comparison() -> Tuple[bool, str]:
    """Inside an essential annulus the boundary gap and the metric match the
    one-puncture model within factor two."""
    dom = FiniteComplement([0.0, 100.0])
    ann = Annulus(0.0, inner=0.01, outer=50.0)
    rep = check_annulus_k_comparison(dom, ann, n_pairs=12, seed=0)
    return rep.ok, (f"pairs={rep.pairs}, gap sandwich ok={rep.delta_ok}, "
                    f"k/k_one-puncture ratios certified in "
                    f"[{rep.worst_ratio_high:.4f} lower, {rep.worst_ratio_low:.4f} upper], "
                    f"violations={len(rep.violations)}")


def criterion_06_fat_annulus() -> Tuple[bool, str]:
    """The depth-5 witness: quasihyperbolic distance at least 2 across the
    throat while the hyperbolic distance stays near 0.316."""
    w = fat_annulus_witness(5.0)
    ok = (w.annulus_separates
          and _close(w.k_star_ab, 2.0, 1e-12)
          and w.k_enclosure[0] <= 2.0 <= w.k_enclosure[1]
          and _close(w.h_lower_ab, 0.3162425434962525, 1e-5)
          and _close(w.h_lower_ab, w.h_lower_closed_form, 1e-12)
          and w.bp_upper_integral <= 1.1
          and _close(w.bp_upper_integral, w.bp_upper_closed_form, 1e-9)
          and _close(w.bp_upper_closed_form, 0.8024030134443301, 1e-12))
    return ok, (f"h lower {w.h_lower_ab!r} (closed {w.h_lower_closed_form!r}), "
                f"k one-puncture {w.k_star_ab!r}, density integral "
                f"{w.bp_upper_integral!r} <= 1.1")


def criterion_07_punctured_disk_estimates() -> Tuple[bool, str]:
    """Two-sided hyperbolic enclosure deep in the cusp of the plane punctured
    at 0 and 1, with the frozen anchor pair: the enclosure lies inside the
    paper's estimates, the twice-punctured lower bound and the punctured-disk
    upper estimate (its upper end is the exact distance in the punctured
    unit disk, log 2)."""
    dom = FiniteComplement([0.0, 1.0])
    a, b = math.exp(-4.0), math.exp(-2.0)
    iv = h_interval(dom, a, b)
    want_up = h_upper_Dstar(a, b)
    want_lo = math.log((KAPPA + 4.0) / (KAPPA + 2.0))
    ok = (want_lo - 1e-12 <= iv.lower <= iv.upper <= want_up
          and _close(iv.lower, want_lo, 1e-12) and _close(iv.upper, math.log(2.0), 1e-12)
          and _close(want_up, 5.2255073223871396, 1e-12)
          and _close(want_lo, 0.2727966094135875, 1e-12))
    rng = np.random.default_rng(0)
    for _ in range(10):
        r = np.exp(rng.uniform(math.log(1e-4), math.log(0.25), 2))
        th = rng.uniform(0.0, 2.0 * math.pi, 2)
        za, zb = (r * np.exp(1j * th)).tolist()
        jv = h_interval(dom, za, zb)
        if not (0.0 <= jv.lower <= jv.upper and math.isfinite(jv.upper)):
            ok = False
    return ok, (f"anchor pair enclosure [{iv.lower!r}, {iv.upper!r}], "
                f"wanted [{want_lo!r}, {want_up!r}]; 10 sampled cusp pairs finite")


def criterion_08_bounce_or_cross() -> Tuple[bool, str]:
    """The grid solver's near-geodesics (spiral chains here) bounce off or
    cross each essential dyadic annulus at most once (quasihyperbolic
    constants pi and log 2)."""
    dom = FiniteComplement([0.0, 1.0])
    res = Resolution(radial=128, angular=128)
    mu, nu = math.pi, math.log(2.0)
    details = []
    ok = True
    for a, b in [(-0.5 + 0.0j, 1.5 + 0.0j), (0.25j, 2.0 + 0.25j)]:
        g = k_numeric(dom, a, b, res)
        rep = check_abc(dom, g.path, mu, nu)
        ok = ok and rep.ok
        details.append(f"pair ({a:g})-({b:g}): {rep.checked} annuli met, "
                       f"violations {len(rep.violations)}")
    return ok, "; ".join(details)


def criterion_09_uniform_perfectness() -> Tuple[bool, str]:
    """Supremum of separating moduli: exactly log 4 for the geometric circle
    family, unbounded with isolated points for the three-point set, and the
    chordal-to-euclidean conversion constants."""
    r1 = up_modulus_sup((ComplementPoint(0.0), UPCircleFamily(0.0, 4.0, 1.0)))
    r2 = up_modulus_sup((ComplementPoint(0.0), ComplementPoint(1.0)))
    iso = sorted("inf" if is_infinite(p) else f"{complex(p).real:g}"
                 for p in r2.isolated)
    conv = chordal_up_to_euclidean_bound(2.0)
    try:
        chordal_up_to_euclidean_bound(1.9)
        reject = False
    except ValueError:
        reject = True
    ok = ((not r1.unbounded) and _close(r1.sup_modulus, math.log(4.0), 1e-15)
          and r2.unbounded and iso == ["0", "1", "inf"]
          and conv.center_outside == 8.0 and conv.center_inside == 32.0
          and conv.general == 1024.0 and reject)
    return ok, (f"family sup={r1.sup_modulus!r} (log 4 = {math.log(4.0)!r}), "
                f"three-point isolated={iso}, conversions=({conv.center_outside}, "
                f"{conv.center_inside}, {conv.general}), rejects M<2: {reject}")


def criterion_10_qi_maps() -> Tuple[bool, str]:
    """Collapse-map anchors: the model punctured-disk map, the identity on
    the half-plane as a (1,0)-rough isometry, the chaining inequality, the
    eventual-identity index, and the global map construction."""
    val = phi_punctured_disk(1.0 / 16.0, r=0.25)
    model_ok = _close(abs(val - 0.125), 0.0, 1e-15)

    hp = UpperHalfPlane()
    pairs = [(1j, 2j), (1j, 1 + 2j), (0.5 + 0.25j, -1 + 4j), (3j, 0.1j)]
    rep = verify_rough_isometry(hp, lambda z: z, pairs,
                                multiplicative=1.0, additive=0.0)
    ident_ok = rep.ok and rep.slack <= 1e-9

    q = qie_inequality_check(1.0, 1.0, 10.0, 1.0)
    qie_ok = q.ok and _close(q.lhs, 5.5, 1e-12) and _close(q.rhs, 5.0, 1e-12)

    qs = qs_eventual_identity_index(2.0, 1.0, [2.0 ** n for n in range(0, 11)])
    qs_ok = qs.index is not None and qs.index <= 2

    dom = FiniteComplement([0.0, 1.0])
    gmap = build_global_qi_map(dom)
    mid = gmap(0.5 + 0.5j)
    inner = gmap(1e-6)
    global_ok = (gmap.additive_constant is not None
                 and math.isfinite(gmap.additive_constant)
                 and gmap.additive_constant > 12.0 * KAPPA + 4.0
                 and mid == 0.5 + 0.5j
                 and dom.contains(inner) and abs(inner) < 0.25)
    ok = model_ok and ident_ok and qie_ok and qs_ok and global_ok
    return ok, (f"model map value {val!r} (want 0.125 on the ray); identity "
                f"slack {rep.slack!r}; chaining {q.lhs!r}>={q.rhs!r}; eventual "
                f"index {qs.index}; global constant {gmap.additive_constant!r}")


def criterion_11_divergence() -> Tuple[bool, str]:
    """The divergence table: frozen gap values at rows 3 and 7, monotone
    growth, and exceeding 40 by row 6."""
    table = counterexample_divergence(7)
    rows = {r.n: r for r in table.rows}
    b3 = rows[3].bound
    b7 = rows[7].bound
    grow = all(rows[n + 1].bound > rows[n].bound for n in range(4, 7))
    ok = (rows[1].h_upper is None and rows[1].bound is None
          and b3 is not None and _close(b3, -0.35517218060720435, 1e-9)
          and b7 is not None and _close(b7, 110.93448345817839, 1e-9)
          and grow and rows[6].bound > 40.0)
    return ok, (f"bound(3)={b3!r}, bound(7)={b7!r}, rising for n>=4: {grow}, "
                f"bound(6)={rows[6].bound!r} > 40")


def criterion_12_chordal_consistency() -> Tuple[bool, str]:
    """Fifty seeded pairs in the plane punctured at 0 and 1: the chordally
    normalized distance enclosure must stay inside the sandwich
    [k/4, 8 (1 + D)^4 k] with D = 1 (so factor 128)."""
    dom = FiniteComplement([0.0, 1.0])
    res = Resolution(radial=128, angular=128)
    rng = np.random.default_rng(0)
    bad = 0
    n = 50
    done = 0
    worst = 0.0
    while done < n:
        z = rng.uniform(-3.0, 3.0, 2) + 1j * rng.uniform(-3.0, 3.0, 2)
        a, b = complex(z[0]), complex(z[1])
        if min(abs(a), abs(b), abs(a - 1), abs(b - 1)) < 0.05 or a == b:
            continue
        done += 1
        ke = k_interval_fast(dom, a, b)
        kc = k_chordal_numeric(dom, a, b, res).distance
        hi_violation = kc.lower > 128.0 * ke.upper * (1.0 + 1e-9)
        lo_violation = math.isfinite(kc.upper) and \
            kc.upper < 0.25 * ke.lower * (1.0 - 1e-9)
        if hi_violation or lo_violation:
            bad += 1
        if ke.upper > 0:
            worst = max(worst, kc.lower / ke.upper)
    return bad == 0, (f"{done} pairs, sandwich violations {bad}, largest "
                      f"certified chordal/euclidean ratio {worst:.4f} (cap 128)")


CRITERIA: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "sharp-constant", criterion_01_kappa),
    (2, "exact-formulas", criterion_02_exact_formulas),
    (3, "sharp-density-at-minus-one", criterion_03_sharp_density),
    (4, "exponent-decay", criterion_04_beta_decay),
    (5, "annulus-comparison", criterion_05_annulus_comparison),
    (6, "fat-annulus-witness", criterion_06_fat_annulus),
    (7, "cusp-enclosures", criterion_07_punctured_disk_estimates),
    (8, "bounce-or-cross", criterion_08_bounce_or_cross),
    (9, "uniform-perfectness", criterion_09_uniform_perfectness),
    (10, "collapse-maps", criterion_10_qi_maps),
    (11, "divergence-table", criterion_11_divergence),
    (12, "chordal-consistency", criterion_12_chordal_consistency),
]


def run_all(numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    chosen = set(numbers) if numbers else None
    out: List[CriterionResult] = []
    for num, name, fn in CRITERIA:
        if chosen is not None and num not in chosen:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # surface the failure, never hide it
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CriterionResult(number=num, name=name, ok=ok, detail=detail))
    return out
