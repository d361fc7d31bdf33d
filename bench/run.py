#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mms_p3_64 --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload (one round = one call of the program's
entry point to its end, then the independent checks) until ``--seconds``
have passed and the workload's minimum round count is reached.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics, the tracing overhead among them.

The program is imported from ``src/`` beside this directory and nowhere
else; without it the script exits with an error before any round.  The
workloads have no random inputs: ``--seed`` is accepted and recorded only.
"""

import os

# One BLAS/OpenMP thread (<= nproc on any machine), fixed before numpy loads,
# so runs on a shared 2-core machine do not contend with themselves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

END_TO_END = {
    "setup_s": "s",
    "step_ms.p75": "ms",
    "step_ms.p90": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_STEPS = 100  # a p90 needs at least ten samples beyond it
# Timings are read on their slow side, not at the median: the shared machine
# the bounds were set on runs Python-heavy code at two speeds that alternate
# within seconds, and the slower one fills at least a tenth of nearly every
# run (bench/README.md, "Why the slow side").
ROUND_PERCENTILE = 90


def import_program():
    """Put ``src/`` first on the path and check that swemix loads from there."""
    src = ROOT / "src"
    if not (src / "swemix" / "__init__.py").is_file():
        raise SystemExit(f"error: program source {src / 'swemix'} not found")
    sys.path.insert(0, str(src))
    import swemix

    if Path(swemix.__file__).resolve().parent != (src / "swemix").resolve():
        raise SystemExit(f"error: swemix was imported from {swemix.__file__}, not {src}")


def run_round(wl, clock, tracer, run_id):
    """One complete call of the workload plus its checks."""
    out_dir = WORK / f"{wl.name}-{os.getpid()}-{run_id}"
    t0 = time.perf_counter()
    prepared = wl.prepare(str(out_dir))
    if tracer is not None:
        tracer.install()
        tracer.rec.run_id = run_id
    clock.install()
    clock.begin(time.perf_counter())
    t_open = time.perf_counter()
    root = tracer.rec.open(wl.root) if tracer is not None else None
    result = error = None
    try:
        result = wl.call(prepared)
    except Exception:  # a failed round: its steps count as failed, the run goes on
        error = traceback.format_exc()
    finally:
        clock.end()
        if root is not None:
            tracer.rec.close(root)
        t_close = time.perf_counter()
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
    steps = clock.steps
    if error is None:
        try:
            failures = wl.check(result, steps)
        except Exception:  # a check that cannot read the result is a failed check
            failures = [f"check raised:\n{traceback.format_exc()}"]
    else:  # no result to check, so the round cannot count as correct
        failures = [f"round {run_id} raised: {error.strip().splitlines()[-1]}"]
    t_end = time.perf_counter()
    shutil.rmtree(out_dir, ignore_errors=True)
    if error is not None:
        print(f"round {run_id} raised:\n{error}", file=sys.stderr)
    return {
        "run_id": run_id,
        "traced": tracer is not None,
        "setup": clock.setup_seconds,
        "wall": t_end - t0,
        "outside": (t_open - t0) + (t_end - t_close),
        "step_seconds": [s.seconds for s in steps if not s.raised and s.finite],
        "attempted": wl.planned_steps(steps),
        "failed": wl.failed_steps(steps),
        "failures": failures,
    }


def shape_failures(wl, tracer, rnd):
    """Call counts a traced round must show, for the hooks that are present."""
    calls = tracer.round_counts(rnd["run_id"])
    exact, positive = wl.shape(rnd["attempted"])
    present = tracer.present_spans
    out = [
        f"traced round {rnd['run_id']}: {name} called {calls[name]} times, expected {want}"
        for name, want in exact.items()
        if name in present and calls[name] != want
    ]
    out += [
        f"traced round {rnd['run_id']}: {name} never called"
        for name in positive
        if name in present and calls[name] == 0
    ]
    return out


def end_to_end_metrics(rounds):
    steps_ms = np.array([s for r in rounds for s in r["step_seconds"]]) * 1e3
    values = {
        "setup_s": float(np.percentile([r["setup"] for r in rounds], ROUND_PERCENTILE)),
        "wall_s": float(np.percentile([r["wall"] for r in rounds], ROUND_PERCENTILE)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if steps_ms.size:
        values["step_ms.p75"] = float(np.percentile(steps_ms, 75))
    if steps_ms.size >= P90_MIN_STEPS:
        values["step_ms.p90"] = float(np.percentile(steps_ms, 90))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items() if name in values}


def run(workload, seconds, trace, seed, tiny=False, trace_path=None):
    """Run rounds of one workload; return the result object, the rounds and
    the failure messages."""
    import tracing
    import workloads

    wl = workloads.get(workload, tiny=tiny)
    clock = tracing.StepClock()
    tracer = tracing.Tracer() if trace else None
    min_rounds = 2 if trace else wl.min_rounds
    rounds = []
    start = time.perf_counter()
    while (
        len(rounds) < min_rounds
        or time.perf_counter() - start < seconds
        or (trace and len(rounds) % 2)
    ):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(wl, clock, tracer if traced else None, f"{workload}-s{seed}-r{len(rounds)}"))
        gc.collect()

    failures = [f for r in rounds for f in r["failures"]]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        for r in traced_rounds:
            failures += shape_failures(wl, tracer, r)
        metrics = tracer.metrics(traced_rounds, [r for r in rounds if not r["traced"]])
        failures += tracer.accounting_failures(traced_rounds)
        metrics = {name: {"value": float(v), "unit": tracing.unit(name)} for name, v in metrics.items()}
        tracer.write(trace_path or str(WORK / f"trace-{workload}-seed{seed}.json"), seed)
    else:
        metrics = end_to_end_metrics(rounds)
    result = {
        "correct": not failures,
        "attempted": int(sum(r["attempted"] for r in rounds)),
        "failed": int(sum(r["failed"] for r in rounds)),
        "metrics": metrics,
    }
    return result, rounds, failures


def main(argv=None):
    import_program()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="recorded only; the workloads have no random inputs")
    ap.add_argument("--seconds", type=float, default=10.0, help="minimum measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result, rounds, failures = run(args.workload, args.seconds, bool(args.trace), args.seed)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed} (no random inputs), trace {args.trace}, "
          f"{len(rounds)} rounds, {result['attempted']} steps attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
