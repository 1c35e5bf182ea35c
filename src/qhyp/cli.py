"""Command line interface.

Subcommands:
  distance        two-sided distance enclosure between two points
  geodesic        numeric near-geodesic with its certified enclosure
  heatmap         sample a scalar field on a grid, CSV plus JSON sidecar
  beta-map        boundary-gap exponent report at chosen points
  up-check        uniform-perfectness functional of a described set
  qi-verify       certified rough-isometry verification
  counterexample  the divergence table (text or CSV)
  verify-all      run the numbered acceptance criteria

Conventions: complex numbers on the command line are written "re,im" (a bare
real is accepted); randomness is controlled by --seed (default 0, a PCG64
generator); JSON output prints floats with full round-trip precision; CSV
uses the %.17g format.  Exit status is 0 on success, 1 when a requested
check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from .beta import (
    beta,
    beta_field,
    bp_lower_density,
    bp_upper_density,
    up_modulus_sup,
    up_set_from_json,
)
from .densities import chordal_quasihyperbolic_density, h_interval, quasihyperbolic_density
from .domains import (
    Domain,
    DomainError,
    OutsideDomainError,
    SchemaError,
    _parse_complex as _json_complex,
    _parse_points,
    _parse_real as _json_real,
    domain_from_json_text,
)
from .equivalence import (
    PunctureConfig,
    build_global_qi_map,
    counterexample_divergence,
    verify_rough_isometry,
)
from .gridcsv import write_grid_csv
from .solver import Resolution, k_chordal_numeric, k_interval_fast, k_numeric
from .acceptance import CRITERIA, run_all


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def _read_spec(spec: str) -> str:
    """The JSON text of a ``--domain``, ``--set`` or ``--config`` value:
    the value itself when it is a JSON object, else the file it names."""
    if spec.lstrip().startswith("{"):
        return spec
    with open(spec) as fh:
        return fh.read()


def _load_domain(spec: str) -> Domain:
    return domain_from_json_text(_read_spec(spec))


def _load_json(spec: str) -> dict:
    return json.loads(_read_spec(spec))


def _puncture_config(raw) -> PunctureConfig:
    """The chart layout given to ``qi-verify --config``."""
    if not isinstance(raw, dict):
        raise SchemaError("chart layout must be a JSON object")
    for key in ("punctures", "radii", "xis", "r_inf", "xi_inf"):
        if key not in raw:
            raise SchemaError(f"chart layout is missing field {key!r}")
    if not isinstance(raw["radii"], list):
        raise SchemaError("radii must be a list of numbers")
    return PunctureConfig(
        punctures=_parse_points(raw["punctures"], "punctures"),
        radii=[_json_real(r, f"radii[{i}]") for i, r in enumerate(raw["radii"])],
        xis=_parse_points(raw["xis"], "xis"),
        r_inf=_json_real(raw["r_inf"], "r_inf"),
        xi_inf=_json_complex(raw["xi_inf"], "xi_inf"))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _resolution(args) -> Resolution:
    n = getattr(args, "resolution", None)
    if n is None:
        n = 256
    return Resolution(radial=n, angular=n)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_distance(args) -> int:
    dom = _load_domain(args.domain)
    a, b = args.src, args.dst
    out = {"domain": dom.to_json_dict(),
           "a": [a.real, a.imag], "b": [b.real, b.imag],
           "metric": args.metric, "method": args.method}
    if args.metric == "h":
        iv = h_interval(dom, a, b)
    elif args.metric == "k":
        if args.method == "numeric":
            iv = k_numeric(dom, a, b, _resolution(args)).distance
        else:
            iv = k_interval_fast(dom, a, b)
    else:  # k-chordal
        iv = k_chordal_numeric(dom, a, b, _resolution(args)).distance
    out["distance"] = iv.as_dict()
    _emit(out)
    return 0


def _cmd_geodesic(args) -> int:
    if args.max_vertices < 0:
        raise ValueError(f"--max-vertices must be >= 0, got {args.max_vertices}")
    dom = _load_domain(args.domain)
    if args.metric == "k-chordal":
        result = k_chordal_numeric(dom, args.src, args.dst, _resolution(args))
    else:
        result = k_numeric(dom, args.src, args.dst, _resolution(args))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("re,im\n")
            for p in result.path.points:
                fh.write(f"{p.real:.17g},{p.imag:.17g}\n")
    payload = result.as_dict()
    if args.max_vertices and len(payload["path"]) > args.max_vertices:
        payload["path"] = payload["path"][:args.max_vertices]
        payload["path_truncated"] = True
    _emit(payload)
    return 0


_FIELDS = {
    "beta": lambda dom: (lambda z: beta_field(dom, z)),
    "delta": lambda dom: (lambda z: dom.delta_field(z)),
    "qh-density": quasihyperbolic_density,
    "chordal-qh-density": chordal_quasihyperbolic_density,
    "bp-lower": bp_lower_density,
    "bp-upper": bp_upper_density,
}


def _cmd_heatmap(args) -> int:
    dom = _load_domain(args.domain)
    x0, x1, y0, y1 = args.window
    if not all(map(math.isfinite, (x0, x1, y0, y1, x1 - x0, y1 - y0))):
        raise ValueError("--window bounds, width and height must be finite")
    if not (x1 > x0 and y1 > y0):
        raise ValueError("window must satisfy x0 < x1 and y0 < y1")
    if args.nx < 1 or args.ny < 1:
        raise ValueError("--nx and --ny must be at least 1")
    field = _FIELDS[args.field](dom)
    xs = np.linspace(x0, x1, args.nx)
    ys = np.linspace(y0, y1, args.ny)
    Z = xs[None, :] + 1j * ys[:, None]
    t0 = time.perf_counter()
    V = np.asarray(field(Z), dtype=float)
    t1 = time.perf_counter()
    with open(args.out, "w") as fh:
        write_fallback = write_grid_csv(fh, "re,im,value", xs, ys, V)
    t2 = time.perf_counter()
    finite = V[np.isfinite(V)]
    sidecar = {"domain": dom.to_json_dict(), "field": args.field,
               "window": [x0, x1, y0, y1], "nx": args.nx, "ny": args.ny,
               "csv": args.out,
               "finite_fraction": float(finite.size) / float(V.size),
               "min": float(finite.min()) if finite.size else None,
               "max": float(finite.max()) if finite.size else None,
               "field_s": t1 - t0, "write_s": t2 - t1,
               "write_fallback": write_fallback}
    side_path = args.out + ".json" if not args.out.endswith(".csv") \
        else args.out[:-4] + ".json"
    with open(side_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"wrote {args.nx * args.ny} samples to {args.out} "
          f"(metadata in {side_path})")
    return 0


def _cmd_beta_map(args) -> int:
    dom = _load_domain(args.domain)
    reports = []
    for z in args.at:
        res = beta(dom, z)
        entry = res.as_dict()
        entry["point"] = [z.real, z.imag]
        reports.append(entry)
    _emit({"domain": dom.to_json_dict(), "reports": reports})
    return 0


def _cmd_up_check(args) -> int:
    E = up_set_from_json(_load_json(args.set))
    rep = up_modulus_sup(E, horizon=args.horizon)
    _emit(rep.as_dict())
    return 0


_DRAWS_PER_PAIR = 1000   # sampling budget of _sample_pairs


def _sample_pairs(dom: Domain, n: int, seed: int) -> List[tuple]:
    """``n`` seeded pairs of distinct points, drawn from a window around the
    finite boundary points, each at least span/100 from the boundary.
    Raises ``ValueError`` when ``_DRAWS_PER_PAIR * n`` draws do not find
    them, as when the window misses the domain."""
    pts = dom.finite_boundary_points()
    if pts:
        xs = [p.real for p in pts]
        ys = [p.imag for p in pts]
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        cx, cy = (max(xs) + min(xs)) / 2.0, (max(ys) + min(ys)) / 2.0
    else:
        span, cx, cy = 1.0, 0.0, 1.5
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(_DRAWS_PER_PAIR * n):
        if len(pairs) == n:
            break
        z = (cx + rng.uniform(-2.0 * span, 2.0 * span, 2)
             + 1j * (cy + rng.uniform(-2.0 * span, 2.0 * span, 2)))
        a, b = complex(z[0]), complex(z[1])
        try:
            if dom.delta(a) > 0.01 * span and dom.delta(b) > 0.01 * span and a != b:
                pairs.append((a, b))
        except OutsideDomainError:
            continue
    if len(pairs) < n:
        raise ValueError(
            f"found {len(pairs)} of {n} pairs in {_DRAWS_PER_PAIR * n} draws from "
            f"the window [{cx - 2.0 * span:g}, {cx + 2.0 * span:g}] x "
            f"[{cy - 2.0 * span:g}, {cy + 2.0 * span:g}]; does it meet the domain?")
    return pairs


def _cmd_qi_verify(args) -> int:
    if args.pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
    dom = _load_domain(args.domain)
    pairs = _sample_pairs(dom, args.pairs, args.seed)
    if args.mode == "identity":
        phi = lambda z: z
        additive = args.additive if args.additive is not None else 0.0
        rep = verify_rough_isometry(dom, phi, pairs,
                                    multiplicative=args.multiplicative,
                                    additive=additive)
        payload = {"mode": "identity", "report": rep.as_dict()}
    else:
        cfg = _puncture_config(_load_json(args.config)) if args.config else None
        gmap = build_global_qi_map(dom, cfg, allow_unbounded=args.allow_unbounded)
        additive = args.additive
        if additive is None:
            if gmap.additive_constant is None:
                raise ValueError("no certified additive constant; pass --additive")
            additive = gmap.additive_constant
        rep = verify_rough_isometry(dom, gmap, pairs,
                                    multiplicative=args.multiplicative,
                                    additive=additive)
        payload = {"mode": "global", "map": gmap.as_dict(), "report": rep.as_dict()}
    _emit(payload)
    return 0 if rep.ok else 1


def _cmd_counterexample(args) -> int:
    table = counterexample_divergence(args.max_n)
    if args.csv:
        table.write_csv(args.csv)
    for r in table.rows:
        h = "-" if r.h_upper is None else f"{r.h_upper:.6f}"
        g = "-" if r.bound is None else f"{r.bound:.6f}"
        print(f"n={r.n:2d}  L={r.L:10.1f}  k_lower={r.k_lower:12.1f}  "
              f"h_upper={h:>12}  gap={g:>12}")
    positive = [r.n for r in table.rows if r.bound is not None and r.bound > 0]
    if positive:
        print(f"certified gap turns positive at n = {positive[0]}")
    else:
        print("no positive gap yet; raise --max-n")
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def _cmd_verify_all(args) -> int:
    numbers = None
    if args.criteria:
        numbers = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        known = {num for num, _, _ in CRITERIA}
        unknown = [n for n in numbers if n not in known]
        if unknown:
            raise ValueError(f"--criteria: unknown criterion "
                             f"{', '.join(map(str, unknown))} "
                             f"(known: {min(known)}-{max(known)})")
    results = run_all(numbers)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failed += 1
        print(f"{mark}  criterion {r.number:02d} ({r.name}): {r.detail}")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values such as ``-0.5,0``, ``-2`` or
    ``-inf``.

    Stock argparse only whitelists bare negative numbers, so a complex
    coordinate with a negative real part would be read as an option flag.
    Widening the matcher keeps ``--from -0.5,0`` working without quoting
    tricks, and lets ``-inf``, ``-infinity`` and ``-nan`` (any case) reach
    the finiteness checks; no option strings of ours look like numbers, so
    nothing else changes.  The matcher must be replaced per instance
    because the base initializer installs its own compiled pattern on self.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+|inf(inity)?|nan)([,e].*)?$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qhyp", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def add_domain(p):
        p.add_argument("--domain", required=True,
                       help="domain description: JSON text or a path to a JSON file")

    p = sub.add_parser("distance", help="two-sided distance enclosure")
    add_domain(p)
    p.add_argument("--from", dest="src", type=_parse_complex, required=True)
    p.add_argument("--to", dest="dst", type=_parse_complex, required=True)
    p.add_argument("--metric", choices=["k", "h", "k-chordal"], default="k")
    p.add_argument("--method", choices=["fast", "numeric"], default="fast")
    p.add_argument("--resolution", type=int, default=None,
                   help="grid resolution for the numeric method (default 256)")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("geodesic", help="numeric near-geodesic")
    add_domain(p)
    p.add_argument("--from", dest="src", type=_parse_complex, required=True)
    p.add_argument("--to", dest="dst", type=_parse_complex, required=True)
    p.add_argument("--metric", choices=["k", "k-chordal"], default="k")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--csv", default=None, help="write path vertices to this CSV file")
    p.add_argument("--max-vertices", type=int, default=0,
                   help="truncate the JSON vertex list (0 keeps everything)")
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("heatmap", help="sample a field on a grid")
    add_domain(p)
    p.add_argument("--field", choices=sorted(_FIELDS), required=True)
    p.add_argument("--window", type=float, nargs=4, required=True,
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--ny", type=int, default=128)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_heatmap)

    p = sub.add_parser("beta-map", help="boundary-gap exponent at points")
    add_domain(p)
    p.add_argument("--at", type=_parse_complex, action="append", required=True,
                   help="point 're,im'; repeatable")
    p.set_defaults(fn=_cmd_beta_map)

    p = sub.add_parser("up-check", help="uniform-perfectness functional")
    p.add_argument("--set", required=True,
                   help="set description: JSON text or a path to a JSON file")
    p.add_argument("--horizon", type=int, default=8)
    p.set_defaults(fn=_cmd_up_check)

    p = sub.add_parser("qi-verify", help="certified rough-isometry check")
    add_domain(p)
    p.add_argument("--mode", choices=["identity", "global"], default="identity")
    p.add_argument("--pairs", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multiplicative", type=float, default=1.0)
    p.add_argument("--additive", type=float, default=None)
    p.add_argument("--config", default=None,
                   help="chart layout JSON for global mode (optional)")
    p.add_argument("--allow-unbounded", action="store_true")
    p.set_defaults(fn=_cmd_qi_verify)

    p = sub.add_parser("counterexample", help="divergence table")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("verify-all", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.set_defaults(fn=_cmd_verify_all)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (SchemaError, DomainError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
