#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across separate runs.

    python3 bench/steady.py --runs 10

Runs ``bench/run.py`` with seeds 1..N for each workload in BENCHMARK.json,
each run in its own process, and reports for every end-to-end metric the
median and the inter-quartile spread ``(q3 - q1) / median`` (quartiles from
``statistics.quantiles(values, n=4)``) beside the metric's bound in
BENCHMARK.json, plus the share of failed steps.  A spread under a third of
its bound is marked ``ok``, one under the bound ``near``, any other
``OVER``.  Exits 1 if a run fails, is incorrect, or a spread is over its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def summarize(spec, workload, results):
    rows = []
    ok = True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        status = "ok" if spread <= metric["bound"] / 3 else "near" if spread <= metric["bound"] else "OVER"
        ok &= status != "OVER"
        rows.append({"metric": metric["name"], "unit": metric["unit"], "median": med,
                     "spread": spread, "bound": metric["bound"], "status": status})
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    return {"workload": workload, "runs": len(results), "correct": correct, "failed_shares": shares,
            "metrics": rows}, ok and correct and len(shares) == 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result, took = run_once(spec, workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        summary, ok = summarize(spec, workload, results)
        all_ok &= ok
        print(f"\n{workload}: {summary['runs']} runs, correct={summary['correct']}, "
              f"failed shares {summary['failed_shares']}")
        for row in summary["metrics"]:
            print(f"  {row['metric']:12s} median {row['median']:12.6g} {row['unit']:3s} "
                  f"spread {row['spread']:7.4f} bound {row['bound']:.2f}  {row['status']}")
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
