"""Command-line entry points.

    swemix run <config>
    swemix convergence <config> --levels 8 16 32 --mode spatial
    swemix tableau-check <name>

Exit codes: 0 success, 1 validation/configuration error, 2 solver failure.
"""

import argparse
import os
import sys

from . import driver, imex
from .config import load_config
from .errors import (
    ConfigError,
    DryStateError,
    InvalidArgumentError,
    SolverFailureError,
    SwemixError,
)


def _build_parser():
    parser = argparse.ArgumentParser(prog="swemix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time-march a configured case")
    p_run.add_argument("config", help="path to a key = value configuration file")

    p_conv = sub.add_parser("convergence", help="spatial or temporal refinement study")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", nargs="+", type=int, required=True,
                        help="mesh sizes (spatial) or step counts (temporal)")
    p_conv.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")

    p_tab = sub.add_parser("tableau-check", help="verify order conditions of a scheme")
    p_tab.add_argument("name", help=f"one of: {', '.join(imex.scheme_names())}")
    return parser


def _cmd_run(args):
    cfg = load_config(args.config)
    driver.run(cfg)
    return 0


def _cmd_convergence(args):
    cfg = load_config(args.config)
    # the CSV is written after the study: fail on its directory before
    driver.check_levels(args.levels, args.mode)
    driver.make_output_dir(cfg.output.dir)
    result = driver.convergence(cfg, args.levels, args.mode)
    print(result.table())
    path = os.path.join(cfg.output.dir, f"convergence_{args.mode}.csv")
    result.to_csv(path)
    print(f"wrote {path}")
    return 0


def _cmd_tableau_check(args):
    tab = imex.tableau(args.name)
    checks = imex.check_order_conditions(tab, up_to_order=min(tab.order, 3))
    print(f"{tab.name}: {tab.stages} stages, nominal order {tab.order}, "
          f"stiffly accurate: {tab.stiffly_accurate}")
    failed = 0
    for chk in checks:
        status = "pass" if chk.ok else "FAIL"
        print(f"  [{status}] order {chk.order}: {chk.label:28s} residual {chk.residual:.3e}")
        failed += not chk.ok
    if failed:
        print(f"{failed} condition(s) failed")
        return 1
    print("all conditions satisfied")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        return _cmd_tableau_check(args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailureError, DryStateError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except SwemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
