#!/usr/bin/env python3
"""Spatial refinement study on the linear standing wave.

Marches the gravity-wave eigenmode in linear mode (implicit trace solver
only) at a fixed small time step and reports L2 errors and convergence
rates across a sequence of meshes, for each requested polynomial degree.
"""

import argparse
import os
import sys

from swemix.cli import run_command
from swemix.config import parse_text
from swemix.driver import convergence, make_output_dir

TEMPLATE = """
case.name = standing_wave
case.linear_mode = true
time.dt = {dt}
time.t_final = {t_final}
time.scheme = ars233
disc.order = {order}
output.csv_series = false
output.dir = {out}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--levels", nargs="+", type=int, default=[8, 16, 32])
    ap.add_argument("--dt", type=float, default=1e-4)
    ap.add_argument("--t-final", type=float, default=0.25)
    ap.add_argument("--out", default="out/spatial")
    args = ap.parse_args()
    # the CSVs are written after the study: fail on their directory first
    make_output_dir(args.out)

    for order in args.orders:
        cfg = parse_text(
            TEMPLATE.format(dt=args.dt, t_final=args.t_final, order=order, out=args.out)
        )
        result = convergence(cfg, args.levels, "spatial")
        print(f"\n== degree p = {order} ==")
        print(result.table())
        result.to_csv(os.path.join(args.out, f"spatial_p{order}.csv"))
    return 0


if __name__ == "__main__":
    # a swemix error is one line on stderr and exit code 1 or 2, as for the CLI
    sys.exit(run_command(main))
