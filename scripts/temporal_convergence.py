#!/usr/bin/env python3
"""Temporal refinement study on the manufactured nonlinear solution.

Halves the time step over a list of step counts on a fixed fine mesh and
reports the measured order for each scheme.
"""

import argparse
import os
import sys

from swemix.cli import run_command
from swemix.config import parse_text
from swemix.driver import convergence, make_output_dir
from swemix.imex import scheme_names

TEMPLATE = """
case.name = mms_nonlinear
physics.f0 = 1.0
time.dt = 0.01
time.t_final = {t_final}
time.scheme = {scheme}
mesh.nx = {nx}
mesh.ny = {nx}
disc.order = 3
output.csv_series = false
output.dir = {out}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schemes", nargs="+", default=scheme_names())
    ap.add_argument("--steps", nargs="+", type=int, default=[8, 16, 32, 64],
                    help="step counts per level (dt = t_final / steps)")
    ap.add_argument("--nx", type=int, default=32)
    ap.add_argument("--t-final", type=float, default=0.5)
    ap.add_argument("--out", default="out/temporal")
    args = ap.parse_args()
    # the CSVs are written after the study: fail on their directory first
    make_output_dir(args.out)

    for scheme in args.schemes:
        cfg = parse_text(TEMPLATE.format(scheme=scheme, nx=args.nx, t_final=args.t_final, out=args.out))
        result = convergence(cfg, args.steps, "temporal")
        print(f"\n== scheme {scheme} ==")
        print(result.table())
        result.to_csv(os.path.join(args.out, f"temporal_{scheme}.csv"))
    return 0


if __name__ == "__main__":
    # a swemix error is one line on stderr and exit code 1 or 2, as for the CLI
    sys.exit(run_command(main))
