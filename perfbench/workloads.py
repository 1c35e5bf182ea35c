"""The benchmark's workloads, their seeded inputs and their output oracles.

A workload builds its domains in ``setup`` (which ends with one tiny warm-up
query) and then hands out passes: lists of queries, each one timed call into
the library's public API.  The caller runs one query after the other in one
thread.  Every query carries an oracle that runs after the clock stops; extra
library calls an oracle needs are made there, outside the timed query.

Nothing here imports numpy or qhyp at module level, so that the set-up time
measured around ``setup`` includes importing them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# Criterion 12's sandwich for the chordally normalized distance, and the
# relative slack the library itself grants quadrature-based upper bounds.
CHORDAL_LOW, CHORDAL_HIGH = 0.25, 128.0
REL = 1e-9


def use_checkout_src() -> None:
    """Import qhyp from the checkout's own ``src``; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "qhyp" / "__init__.py").is_file():
        raise SystemExit(f"error: no qhyp sources under {src}")
    sys.path.insert(0, str(src))


@dataclass
class Outcome:
    """What an oracle found about one query's output."""

    problems: List[str] = field(default_factory=list)
    # (kind, sum of log(upper/lower), count) over the enclosures the query
    # returned that are finite with a positive lower end
    widths: List[tuple] = field(default_factory=list)
    # None where the notion does not apply to the query
    inconclusive: Optional[bool] = None


def log_width(kind: str, iv) -> tuple:
    if iv.lower > 0 and math.isfinite(iv.upper):
        return (kind, math.log(iv.upper / iv.lower), 1)
    return (kind, 0.0, 0)


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Oracles (pure functions, so the self-test can feed them wrong answers)
# ---------------------------------------------------------------------------

def interval_problems(label: str, iv) -> List[str]:
    lo, up = iv.lower, iv.upper
    if not (0.0 <= lo <= up):
        return [f"{label}: interval [{lo!r}, {up!r}] breaks 0 <= lower <= upper"]
    return []


def geodesic_pair_problems(label: str, punctures: Sequence[complex], a: complex,
                           b: complex, kn, kc, kf) -> List[str]:
    """k_numeric and k_interval_fast must overlap, the chordal interval must
    sit in criterion 12's sandwich around k_interval_fast, and one-puncture
    enclosures must contain the exact distance."""
    from qhyp import k_star_exact

    out: List[str] = []
    for name, iv in (("k_numeric", kn), ("k_chordal_numeric", kc), ("k_interval_fast", kf)):
        out += interval_problems(f"{label} {name}", iv)
    if max(kn.lower, kf.lower) > min(kn.upper, kf.upper) * (1.0 + REL):
        out.append(f"{label}: k_numeric {kn.lower!r}..{kn.upper!r} and k_interval_fast "
                   f"{kf.lower!r}..{kf.upper!r} are disjoint")
    if kc.lower > CHORDAL_HIGH * kf.upper * (1.0 + REL) or (
            math.isfinite(kc.upper) and kc.upper < CHORDAL_LOW * kf.lower * (1.0 - REL)):
        out.append(f"{label}: chordal {kc.lower!r}..{kc.upper!r} leaves "
                   f"[k/4, 128k] around {kf.lower!r}..{kf.upper!r}")
    if len(punctures) == 1:
        exact = k_star_exact(a, b, punctures[0])
        for name, iv in (("k_numeric", kn), ("k_interval_fast", kf)):
            if not iv.lower * (1.0 - REL) <= exact <= iv.upper * (1.0 + REL):
                out.append(f"{label}: {name} misses the exact one-puncture distance {exact!r}")
    return out


def rough_isometry_verdict(h, k_image, multiplicative: float, additive: float) -> str:
    """'proved', 'violated' or 'inconclusive' for h/L - C <= k <= L h + C."""
    L, C = multiplicative, additive
    tol = REL * max(1.0, k_image.lower, h.lower)
    if (k_image.lower - (L * h.upper + C) > tol
            or (h.lower / L - C) - k_image.upper > tol):
        return "violated"
    if k_image.upper <= L * h.lower + C and h.upper / L - C <= k_image.lower:
        return "proved"
    return "inconclusive"


def verify_pair_problems(label: str, h, k_ab, k_image, report,
                         multiplicative: float, additive: float) -> tuple:
    out = interval_problems(f"{label} h", h) + interval_problems(f"{label} k", k_ab)
    verdict = rough_isometry_verdict(h, k_image, multiplicative, additive)
    if verdict == "violated" or report.violations:
        out.append(f"{label}: rough-isometry window proved violated")
    if h.lower > 2.0 * k_ab.upper * (1.0 + REL):
        out.append(f"{label}: h lower {h.lower!r} exceeds 2 k upper {2.0 * k_ab.upper!r}")
    return out, verdict


def read_heatmap(path: str, nx: int, ny: int):
    """The (z, value) columns of a heatmap CSV, or a problem string."""
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip()
        if header != "re,im,value":
            return None, f"{path}: header {header!r}"
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (nx * ny, 3):
        return None, f"{path}: {data.shape[0]} rows, wanted {nx * ny}"
    return (data[:, 0] + 1j * data[:, 1], data[:, 2]), None


def field_problems(label: str, name: str, dom, punctures: Sequence[complex],
                   z, values) -> tuple:
    """Checks of one heatmap; returns (problems, BP enclosure widths or None)."""
    import numpy as np
    from qhyp import bp_lower_density

    out: List[str] = []
    widths = None
    inside = dom.delta_field(z) > 0
    if name == "delta":
        want = np.min(np.abs(z[:, None] - np.asarray(punctures)[None, :]), axis=1)
        if not np.allclose(values, want, rtol=1e-12, atol=0.0):
            out.append(f"{label}: delta differs from min_j |z - p_j|")
    elif name == "beta":
        if not np.all(values[inside] >= 0.0):
            out.append(f"{label}: negative or undefined beta inside the domain")
    elif name == "bp-upper":
        lower = bp_lower_density(dom)(z)
        ok = np.isfinite(values) & inside
        if np.any(lower[ok] > values[ok] * (1.0 + REL)):
            out.append(f"{label}: bp-lower exceeds bp-upper")
        good = ok & (lower > 0)
        widths = np.log(values[good] / lower[good])
    elif name == "chordal-qh-density" and not punctures:
        if not (np.all(np.isfinite(values)) and np.all(values > 0)):
            out.append(f"{label}: half-plane chordal density not finite and positive")
    return out, widths


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Record of a workload: why it exists, which layers it exercises and
    bypasses, and which end-to-end metric each layer metric should move."""

    name = ""
    why = ""
    exercises: Sequence[str] = ()
    bypasses: Sequence[str] = ()
    predictions: Sequence[str] = ()

    def setup(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """The part of set-up that constructs domains and maps."""
        raise NotImplementedError

    def passes(self, seed: int):
        """Yield lists of queries, one list per pass, without end.  Every pass
        holds the same queries in the same order, on inputs re-drawn from the
        seed, so that latencies can be compared position by position."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Geodesic(Workload):
    name = "geodesic"
    why = ("grid solver: graph build, Dijkstra and path relaxation do nearly all "
           "the work; four punctures double the charts over two")
    exercises = ("solver", "domains.delta_field", "domains.chordal_boundary_distance_field",
                 "domains.complement_components", "domains.rho_length", "geometry")
    bypasses = ("beta", "densities.h_interval", "equivalence", "cli")
    predictions = (
        "solver._build_graph.self_s, solver.graph.nodes/edges -> wall_s, query_p50_s, peak_rss_mb",
        "solver._shortest_path.s (Dijkstra) -> at most ~2.5% of wall_s",
        "solver._relax_path.self_s, solver.relax.sweeps/budget_frac -> wall_s; watch log widths",
        "domains.delta_field calls (~13k small per solve) -> query_p50_s",
        "domains.chordal_boundary_distance_field -> chordal solves, query_max_s",
        "domains.complement_components.calls -> per-call overhead, query_p50_s",
        "geometry.segment_point_distance.self_s (edge clearance) -> wall_s",
        "domains.rho_length -> about 1% of a solve",
    )

    ROADMAP_PAIR = (-0.5 + 0.3j, 2.1 - 1.0j)
    TWO = (0.0, 1.0)
    FOUR = (0.0, 1.0, 1j, -1.5 + 0.5j)
    # Images of a problem, domain and endpoints together: bit 0 conjugates,
    # bits 1-2 rotate by a power of i, bit 3 swaps the endpoints.
    IMAGES = 16

    def __init__(self, resolution: int = 128, seeded_pairs: int = 3) -> None:
        self.n = resolution
        self.seeded_pairs = seeded_pairs

    def setup(self) -> None:
        self.build()
        from qhyp import FiniteComplement, Resolution

        # warm-up: every solver once, tiny, on a one-puncture pair
        one = FiniteComplement([0.0])
        problems = []
        for q in self._pair_queries("warmup", one, (0.0,), 1.0 + 0.5j, -0.5 - 0.5j,
                                    Resolution(radial=16, angular=16)):
            problems += q.check(q.call()).problems
        if problems:
            raise RuntimeError("; ".join(problems))

    def build(self) -> None:
        from qhyp import FiniteComplement, Resolution

        self.res = Resolution(radial=self.n, angular=self.n)
        # the domains' images under conjugation and rotation
        self.domains = {}
        for punctures in (self.TWO, self.FOUR):
            for image in range(self.IMAGES // 2):
                moved = tuple(self._image(p, image) for p in punctures)
                self.domains[punctures, image] = (FiniteComplement(list(moved)), moved)

    @staticmethod
    def _image(z: complex, image: int) -> complex:
        if image & 1:
            z = z.conjugate()
        return z * 1j ** ((image >> 1) & 3)

    def _sampled_pair(self, rng):
        # criterion 12's sampler: [-3, 3]^2, away from every puncture
        while True:
            z = rng.uniform(-3.0, 3.0, 2) + 1j * rng.uniform(-3.0, 3.0, 2)
            a, b = complex(z[0]), complex(z[1])
            if a != b and min(abs(w - p) for w in (a, b) for p in self.FOUR) >= 0.05:
                return a, b

    def passes(self, seed: int):
        import numpy as np

        # Every pass solves the same problems: the ROADMAP one and the first
        # pairs of criterion 12's sampler with its own seed 0.  The seed picks,
        # per pass and problem, an image under conjugation, rotation by a
        # power of i and endpoint swap.  These are isometries of the
        # quasihyperbolic metric that map the solver's log-polar charts onto
        # themselves, so the points change but the graph, the sweeps and the
        # distance do not.  (Moving the endpoints instead, even by 1% of
        # their distance to the boundary, changed a pair's relaxation from 28
        # sweeps to 7.)  Seed 0's first pass is the problems as drawn.
        sampler = np.random.default_rng(0)
        problems = [(self.TWO, self.ROADMAP_PAIR)]
        problems += [(self.FOUR, self._sampled_pair(sampler))
                     for _ in range(self.seeded_pairs)]
        p = 0
        while True:
            queries = []
            for j, (punctures, (a, b)) in enumerate(problems):
                image = (seed + 3 * p + 5 * j) % self.IMAGES
                dom, moved = self.domains[punctures, image % (self.IMAGES // 2)]
                a, b = self._image(a, image), self._image(b, image)
                if image & 8:
                    a, b = b, a
                label = f"p{p}.roadmap" if j == 0 else f"p{p}.{j - 1}"
                queries += self._pair_queries(label, dom, moved, a, b, self.res)
            yield queries
            p += 1

    @staticmethod
    def _pair_queries(label, dom, punctures, a, b, res) -> List[Query]:
        # Entry points are looked up when called, so a query made before the
        # tracer is installed or removed calls whatever is bound at the time.
        import qhyp

        got: Dict[str, object] = {}

        def check_numeric(result):
            iv = got["k_numeric"] = result.distance
            return Outcome(interval_problems(f"{label} k_numeric", iv),
                           [log_width("k", iv)], math.isinf(iv.upper))

        def check_chordal(result):
            # k_interval_fast is the cross-check, computed outside the query
            kn, kc = got["k_numeric"], result.distance
            kf = qhyp.k_interval_fast(dom, a, b)
            problems = geodesic_pair_problems(label, punctures, a, b, kn, kc, kf)
            return Outcome(problems, [log_width("kc", kc), log_width("k", kf)],
                           math.isinf(kc.upper))

        return [
            Query(f"{label}.k_numeric", lambda: qhyp.k_numeric(dom, a, b, res), check_numeric),
            Query(f"{label}.k_chordal_numeric", lambda: qhyp.k_chordal_numeric(dom, a, b, res),
                  check_chordal),
        ]


class Verify(Workload):
    name = "verify"
    why = ("qi-verify --mode global: no grid; h's strict rho_length over the "
           "Beardon-Pommerenke density bound does nearly all the work")
    exercises = ("equivalence", "densities.h_interval", "densities._bp_arc_upper",
                 "domains.rho_length", "domains.delta_field", "beta.beta_field",
                 "beta.up_modulus_sup (set-up)", "solver.k_interval_fast")
    bypasses = ("solver._build_graph", "solver._shortest_path", "solver._relax_path",
                "domains.chordal_boundary_distance_field", "cli")
    predictions = (
        "domains.rho_length self_s/density_points/raised/ok_frac -> query_max_s, wall_s, "
        "peak_rss_mb, inconclusive_frac",
        "beta.beta_field.self_s -> query_max_s (12.5 s of the slow pair)",
        "domains.delta_field (about 200 calls of 6e5 points) -> query_max_s",
        "densities.h_interval.s/upper_inf, densities._bp_arc_upper.s -> query_max_s, "
        "h_log_width_mean",
        "beta.up_modulus_sup.s, equivalence.build_global_qi_map.s -> setup_s",
        "equivalence.verify_rough_isometry.self_s -> wall_s",
        "solver grid layers -> no change",
    )

    # The pairs of `qhyp qi-verify --mode global --pairs 4 --seed 0`.
    SAMPLER_PAIRS, SAMPLER_SEED = 4, 0
    WARMUP_PAIR = (0.1 + 0.1j, 0.15 + 0.05j)

    def __init__(self, pairs: Optional[int] = None) -> None:
        self.limit = pairs

    def setup(self) -> None:
        self.build()
        from qhyp import verify_rough_isometry

        a, b = self.WARMUP_PAIR
        verify_rough_isometry(self.dom, self.gmap, [(a, b)], additive=self.additive)

    def build(self) -> None:
        from qhyp import FiniteComplement, build_global_qi_map

        self.dom = FiniteComplement([0.0, 1.0])
        self.gmap = build_global_qi_map(self.dom)
        self.additive = self.gmap.additive_constant

    def passes(self, seed: int):
        from qhyp.cli import _sample_pairs

        base = _sample_pairs(self.dom, self.SAMPLER_PAIRS, self.SAMPLER_SEED)[:self.limit]
        p = 0
        while True:
            queries = []
            for i, (a, b) in enumerate(base):
                # Complex conjugation and endpoint order are symmetries of the
                # plane minus {0, 1} that the library treats identically, so
                # the seed changes the points without changing the work; seed
                # 0's first pass is the sampler's pairs as drawn.
                image = ((seed >> (2 * i)) + p) & 3
                if image & 1:
                    a, b = a.conjugate(), b.conjugate()
                if image & 2:
                    a, b = b, a
                queries.append(self._pair_query(f"p{p}.{i}", a, b))
            yield queries
            p += 1

    def _pair_query(self, label: str, a: complex, b: complex) -> Query:
        import qhyp
        import qhyp.equivalence as eq

        seen: List[object] = []

        def call():
            # keep the h enclosure verify_rough_isometry computes, so that the
            # oracle need not compute it again
            inner = eq.h_interval

            def capture(*args, **kwargs):
                iv = inner(*args, **kwargs)
                seen.append(iv)
                return iv
            capture.__wrapped__ = inner
            eq.h_interval = capture
            try:
                return qhyp.verify_rough_isometry(self.dom, self.gmap, [(a, b)],
                                                  additive=self.additive)
            finally:
                eq.h_interval = inner

        def check(report):
            h = seen[-1] if seen else qhyp.h_interval(self.dom, a, b)
            k_ab = qhyp.k_interval_fast(self.dom, a, b)
            k_img = qhyp.k_interval_fast(self.dom, complex(self.gmap(a)),
                                         complex(self.gmap(b)))
            problems, verdict = verify_pair_problems(label, h, k_ab, k_img, report,
                                                     1.0, self.additive)
            return Outcome(problems, [log_width("h", h)], verdict == "inconclusive")
        return Query(label, call, check)


class Field(Workload):
    name = "field"
    why = ("heatmap CLI: few bulk calls on 2.6e5-point arrays plus CSV output; "
           "the same domains and beta layers as the other workloads, used in bulk")
    exercises = ("cli.heatmap", "beta.beta_field", "domains.delta_field",
                 "domains.chordal_boundary_distance_field")
    bypasses = ("solver", "densities.h_interval", "domains.rho_length", "equivalence")
    predictions = (
        "cli.heatmap.self_s, cli.heatmap.csv_bytes (CSV formatting) -> wall_s",
        "beta.beta_field.self_s/points -> wall_s",
        "domains.delta_field (a few bulk calls) -> wall_s",
        "domains.chordal_boundary_distance_field (half-plane per-point loop) -> query_max_s",
        "domains.complement_components.calls -> no change",
        "solver, rho_length, h_interval -> no change",
    )

    # the plane minus 16 points e^{2 pi i k/16} (1 + 0.5 (k mod 2))
    RING = 16
    MAPS = ("beta", "bp-upper", "delta", "chordal-qh-density")

    def __init__(self, n: int = 512, n_halfplane: int = 256) -> None:
        self.n, self.n_hp = n, n_halfplane

    def setup(self) -> None:
        self.build()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="heatmap-", dir=OUT_DIR)
        run_heatmap(self.ring_json, "beta", (-2.0, 2.0, -2.0, 2.0), 4, 4,
                    os.path.join(self.tmp, "warmup.csv"))
        self._remove("warmup.csv")

    def build(self) -> None:
        import json
        from qhyp import FiniteComplement, UpperHalfPlane

        self.ring = [complex(math.cos(2 * math.pi * k / self.RING),
                             math.sin(2 * math.pi * k / self.RING)) * (1.0 + 0.5 * (k % 2))
                     for k in range(self.RING)]
        self.ring_dom = FiniteComplement(self.ring)
        self.ring_json = json.dumps({"type": "finite_complement",
                                     "punctures": [[p.real, p.imag] for p in self.ring]})
        self.hp_dom = UpperHalfPlane()
        self.hp_json = json.dumps({"type": "upper_half_plane"})

    def passes(self, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        p = 0
        while True:
            # a seeded sub-cell shift of each window
            u, v = rng.uniform(0.0, 1.0, 2)
            cell = 4.0 / (self.n - 1)
            win = (-2.0 + u * cell, 2.0 + u * cell, -2.0 + v * cell, 2.0 + v * cell)
            queries = [self._map_query(f"p{p}.{name}", self.ring_json, self.ring_dom,
                                       self.ring, name, win, self.n)
                       for name in self.MAPS]
            cx, cy = 4.0 / (self.n_hp - 1), 2.99 / (self.n_hp - 1)
            hp_win = (-2.0 + u * cx, 2.0 + u * cx, 0.01 + v * cy, 3.0 + v * cy)
            queries.append(self._map_query(f"p{p}.halfplane", self.hp_json, self.hp_dom,
                                           (), "chordal-qh-density", hp_win, self.n_hp))
            yield queries
            p += 1

    def _map_query(self, label, dom_json, dom, punctures, name, win, n) -> Query:
        path = os.path.join(self.tmp, label + ".csv")

        def check(rc):
            try:
                if rc != 0:
                    return Outcome([f"{label}: heatmap exit status {rc}"])
                data, problem = read_heatmap(path, n, n)
                if problem:
                    return Outcome([f"{label}: {problem}"])
                problems, widths = field_problems(label, name, dom, punctures, *data)
                if widths is None:
                    return Outcome(problems)
                return Outcome(problems, [("bp", float(widths.sum()), int(widths.size))])
            finally:
                self._remove(label + ".csv", label + ".json")
        return Query(label, lambda: run_heatmap(dom_json, name, win, n, n, path), check)

    def _remove(self, *names: str) -> None:
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.tmp, name))

    def close(self) -> None:
        tmp = getattr(self, "tmp", None)
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)


def run_heatmap(dom_json: str, name: str, win, nx: int, ny: int, out: str) -> int:
    """`qhyp heatmap` in-process, its stdout line discarded."""
    from qhyp.cli import main

    argv = ["heatmap", "--domain", dom_json, "--field", name,
            "--window", *(repr(float(w)) for w in win),
            "--nx", str(nx), "--ny", str(ny), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


WORKLOADS = {w.name: w for w in (Geodesic, Verify, Field)}
