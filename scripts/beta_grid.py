#!/usr/bin/env python3
"""Survey the boundary-gap exponent over a rectangle and summarize it.

Samples beta on a grid, reports where it peaks, how much of the window sits
below a threshold (the region where the density upper bound is weak), and
optionally dumps the grid as CSV for plotting with any external tool.

Usage:
    python3 scripts/beta_grid.py --punctures 0,0 1,0 --window -2 3 -2 2
    python3 scripts/beta_grid.py --punctures 0,0 403.43,0 --nx 200 --csv /tmp/b.csv
"""

import argparse
import sys

import numpy as np

from qhyp.beta import beta_field
from qhyp.domains import FiniteComplement
from qhyp.gridcsv import write_grid_csv


def parse_complex(text: str) -> complex:
    re_part, _, im_part = text.partition(",")
    return complex(float(re_part), float(im_part or 0.0))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--punctures", nargs="+", required=True,
                    help="puncture list, each written re,im")
    ap.add_argument("--window", type=float, nargs=4,
                    metavar=("X0", "X1", "Y0", "Y1"),
                    default=[-2.0, 3.0, -2.0, 2.0])
    ap.add_argument("--nx", type=int, default=120)
    ap.add_argument("--ny", type=int, default=80)
    ap.add_argument("--threshold", type=float, default=0.5)
    ap.add_argument("--csv", default="")
    ns = ap.parse_args(argv)

    dom = FiniteComplement([parse_complex(t) for t in ns.punctures])
    x0, x1, y0, y1 = ns.window
    xs = np.linspace(x0, x1, ns.nx)
    ys = np.linspace(y0, y1, ns.ny)
    Z = xs[None, :] + 1j * ys[:, None]
    B = beta_field(dom, Z)

    finite = B[np.isfinite(B)]
    if finite.size == 0:
        print("window contains no domain points", file=sys.stderr)
        return 1

    i, j = np.unravel_index(np.nanargmax(np.where(np.isfinite(B), B, -1.0)),
                            B.shape)
    peak = Z[i, j]
    frac_low = float(np.mean(finite < ns.threshold))
    print(f"samples: {finite.size} finite of {B.size}")
    print(f"beta range: [{finite.min():.6f}, {finite.max():.6f}]")
    print(f"peak at {peak.real:.6f}{peak.imag:+.6f}i")
    print(f"fraction below {ns.threshold}: {frac_low:.3f}")
    for q in (0.1, 0.5, 0.9):
        print(f"quantile {q:.0%}: {np.quantile(finite, q):.6f}")

    if ns.csv:
        with open(ns.csv, "w") as fh:
            write_grid_csv(fh, "re,im,beta", xs, ys, B)
        print(f"wrote {ns.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
