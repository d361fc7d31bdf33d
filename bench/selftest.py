#!/usr/bin/env python3
"""Quick self-test of the benchmark (a few seconds).

    python3 bench/selftest.py

1. Runs every workload at a tiny size through the untraced and the traced
   path and requires a correct result with no failed step, and metric
   names and units that match BENCHMARK.json.
2. Hands every correctness check a perturbed result and requires it to
   fail, so a check that cannot fail is caught.

Exits 0 when every test passes, 1 otherwise.
"""

import copy
import json
import math
import shutil
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import run  # sets the BLAS thread count before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SELFTEST_DIR = run.WORK / "selftest"


def run_once(wl, name):
    """One call of a workload with the step clock; returns (result, steps)."""
    out_dir = SELFTEST_DIR / name
    prepared = wl.prepare(str(out_dir))
    clock = tracing.StepClock()
    clock.install()
    try:
        clock.begin(tracing.now())
        result = wl.call(prepared)
        clock.end()
    finally:
        clock.uninstall()
    return result, clock.steps


def expect_failure(failures, fragment, what):
    assert any(fragment in f for f in failures), f"{what}: expected a failure mentioning {fragment!r}, got {failures}"


# ----------------------------------------------------------- tiny workloads


def test_tiny_workloads():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert e2e == run.END_TO_END, f"BENCHMARK.json end_to_end differs from run.py: {e2e}"
    for name in workloads.WORKLOADS:
        result, _, failures = run.run(name, 0.0, False, seed=0, tiny=True)
        assert result["correct"] and result["failed"] == 0, (name, failures, result)
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        want = {k: u for k, u in e2e.items() if k != "step_ms.p90"}  # tiny runs have < 100 steps
        assert got == want, (name, got)
        assert all(m["value"] > 0 for m in result["metrics"].values()), (name, result["metrics"])

        trace_path = str(SELFTEST_DIR / f"trace-{name}.json")
        result, rounds, failures = run.run(name, 0.0, True, seed=0, tiny=True, trace_path=trace_path)
        assert result["correct"] and result["failed"] == 0, (name, failures, result)
        assert len(rounds) == 2 and rounds[1]["traced"] and not rounds[0]["traced"]
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == layers, f"{name}: traced metrics differ from BENCHMARK.json per_layer"
        assert result["metrics"]["trace.hooks_absent"]["value"] == 0
        spans = json.loads(Path(trace_path).read_text())["spans"]
        assert spans and all(s[2] >= s[1] for s in spans)


def test_raising_step_fails_the_rest_of_its_round():
    from swemix import hdg
    from swemix.errors import SolverFailureError

    wl = workloads.get("mms_p3_64", tiny=True)
    real, calls = hdg.implicit_solve, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 4:  # two implicit stages per step: steps 1 and 2 complete
            raise SolverFailureError("injected")
        return real(*args, **kwargs)

    hdg.implicit_solve = failing
    try:
        result, rounds, failures = run.run("mms_p3_64", 0.0, False, seed=0, tiny=True)
    finally:
        hdg.implicit_solve = real
    assert (rounds[0]["attempted"], rounds[0]["failed"]) == (wl.steps, wl.steps - 2), rounds[0]
    assert result["correct"] is False, result
    expect_failure(failures, "raised: swemix.errors.SolverFailureError", "a round that raised")


def test_accounting_fails_on_a_dropped_span():
    tracer = tracing.Tracer()
    wl = workloads.get("stability_20cfl", tiny=True)
    rnd = run.run_round(wl, tracing.StepClock(), tracer, "accounting")
    assert rnd["failures"] == [] and tracer.accounting_failures([rnd]) == []

    # Drop the root span: its children become roots and its self time is lost.
    spans = tracer.rec.spans
    root = next(i for i, s in enumerate(spans) if s[3] < 0)
    tracer.rec.spans = [s[:3] + [-1 if s[3] == root else s[3] - (s[3] > root)] + s[4:]
                        for i, s in enumerate(spans) if i != root]
    expect_failure(tracer.accounting_failures([rnd]), "round wall", "root span dropped")

    # A span recorded under another round's id leaves this round short too.
    tracer.rec.spans = [list(s) for s in spans]
    tracer.rec.spans[root][4] = "another round"
    expect_failure(tracer.accounting_failures([rnd]), "round wall", "root span misattributed")


def test_absent_hook_is_not_fatal():
    tracer = tracing.Tracer()
    real_hooks = tracing._hooks
    tracing._hooks = lambda r: real_hooks(r) + [("gone.helper", "swemix.driver", "no_such_helper", None)]
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        tracing._hooks = real_hooks
    assert tracer.absent == ["swemix.driver.no_such_helper"], tracer.absent


# ------------------------------------------------------- perturbed results


def state_copy(result, data=None, **changes):
    """A stand-in for a driver RunResult with some fields replaced."""
    fields = dict(
        t_final=result.t_final,
        steps=result.steps,
        final_field=SimpleNamespace(data=result.final_field.data.copy() if data is None else data),
        csv_path=result.csv_path,
        vtk_paths=list(result.vtk_paths),
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def rewrite_csv(path, column, change, new_path):
    series = checks.read_csv_series(path)
    series[column] = change(series[column].copy())
    names = list(series)
    rows = [",".join(names)] + [",".join(repr(float(series[n][i])) for n in names) for i in range(series["step"].size)]
    Path(new_path).write_text("\n".join(rows) + "\n")
    return str(new_path)


def test_driver_run_checks_fail_on_perturbed_results():
    wl = workloads.get("mms_p3_64", tiny=True)
    result, steps = run_once(wl, "mms")
    assert wl.check(result, steps) == []
    tol = wl.tolerance()

    data = result.final_field.data.copy()
    data[..., 1] += 2.0 * tol
    expect_failure(wl.check(state_copy(result, data), steps), "L2 errors", "momentum off by 2 tol")

    data = result.final_field.data.copy()
    data[..., 0] += 1e-9
    fails = wl.check(state_copy(result, data), steps)
    expect_failure(fails, "mass drift", "uniform phi' shift of 1e-9")

    data = result.final_field.data.copy()
    data[3, 1, 1, 2] = np.nan
    expect_failure(wl.check(state_copy(result, data), steps), "non-finite", "one NaN")

    late = state_copy(result, t_final=result.t_final * (1 + 1e-9))
    expect_failure(wl.check(late, steps), "final time", "final time off by 1e-9")
    expect_failure(wl.check(state_copy(result, steps=result.steps - 1), steps), "steps taken", "one step short")
    expect_failure(wl.check(result, steps[:-1]), "steps taken", "one observed step missing")
    shifted = [copy.copy(s) for s in steps]
    shifted[2].t += 0.5 * wl.dt
    expect_failure(wl.check(result, shifted), "k * dt", "a step at the wrong time")

    csv = rewrite_csv(result.csv_path, "mass", lambda m: m * (1 + np.linspace(0, 1e-9, m.size)),
                      SELFTEST_DIR / "mass.csv")
    expect_failure(wl.check(state_copy(result, csv_path=csv), steps), "CSV mass", "drifting CSV mass")


def test_linear_wave_checks_fail_on_perturbed_results():
    wl = workloads.get("wave_linear_iterative", tiny=True)
    result, steps = run_once(wl, "wave")
    assert wl.check(result, steps) == []
    tol = wl.tolerance()

    def rise(e):
        e[4] = e[3] * (1 + 1e-12)
        return e

    csv = rewrite_csv(result.csv_path, "energy", rise, SELFTEST_DIR / "energy.csv")
    expect_failure(wl.check(state_copy(result, csv_path=csv), steps), "energy rises", "energy up by 1e-12")

    data = result.final_field.data.copy()
    data[..., 2] *= 1 + 1e-9
    expect_failure(wl.check(state_copy(result, data), steps), "final energy", "CSV energy not the final state's")

    paths = list(result.vtk_paths)
    expect_failure(wl.check(state_copy(result, vtk_paths=paths[:-1]), steps), "VTK snapshots", "missing snapshot")

    lines = Path(paths[1]).read_text().splitlines()
    lut = lines.index("LOOKUP_TABLE default")
    for k in range(lut + 1, lut + 1 + 9):  # the first element's nodes
        lines[k] = repr(float(lines[k]) + 20.0 * tol)
    bad = SELFTEST_DIR / "perturbed.vtk"
    bad.write_text("\n".join(lines) + "\n")
    expect_failure(wl.check(state_copy(result, vtk_paths=[paths[0], str(bad)] + paths[2:]), steps),
                   "L2 errors", "snapshot phi' off on one element")

    lines = Path(paths[1]).read_text().splitlines()
    pts = next(i for i, line in enumerate(lines) if line.startswith("POINTS"))
    x, y, z = lines[pts + 1].split()
    lines[pts + 1] = f"{float(x) + 1e-6!r} {y} {z}"
    bad.write_text("\n".join(lines) + "\n")
    expect_failure(wl.check(state_copy(result, vtk_paths=[paths[0], str(bad)] + paths[2:]), steps),
                   "coordinates", "one point moved")

    bad.write_text("\n".join(Path(paths[1]).read_text().splitlines()[:-5]) + "\n")
    expect_failure(wl.check(state_copy(result, vtk_paths=[paths[0], str(bad)] + paths[2:]), steps),
                   "does not parse", "truncated snapshot")


def test_stability_checks_fail_on_perturbed_results():
    wl = workloads.get("stability_20cfl", tiny=True)
    result, steps = run_once(wl, "stability")
    assert wl.check(result, steps) == []

    grown = [copy.copy(s) for s in steps]
    grown[wl.n_steps // 2].phi_max = 3.0 * wl.amplitude_factor * wl.phi_bar
    expect_failure(wl.check(result, grown), "split-method growth", "split state grown 3x")

    tame = [copy.copy(s) for s in steps]
    for s in tame[wl.n_steps :]:
        s.raised, s.finite, s.phi_max = False, True, 10.0 * wl.amplitude_factor * wl.phi_bar
    expect_failure(wl.check(result, tame), "explicit control growth", "control that stays bounded")

    expect_failure(wl.check(SimpleNamespace(**{**vars(result), "dt": result.dt * (1 + 1e-9)}), steps),
                   "dt ", "dt off by 1e-9")
    expect_failure(wl.check(SimpleNamespace(**{**vars(result), "explicit_max_ratio": 5.0}), steps),
                   "explicit control growth", "reported control growth of 5")
    expect_failure(wl.check(result, steps[: wl.n_steps - 1]), "steps taken", "one split step missing")


def test_shape_checks_fail_on_wrong_counts():
    wl = workloads.get("wave_linear_iterative", tiny=True)
    exact, _ = wl.shape(wl.steps)
    tracer = SimpleNamespace(present_spans=set(exact), round_counts=lambda run_id: {**exact, "dg.tendency": 3})
    rnd = {"run_id": "r", "attempted": wl.steps}
    expect_failure(run.shape_failures(wl, tracer, rnd), "dg.tendency called 3 times", "tendency on a linear run")
    tracer.round_counts = lambda run_id: {**exact, "hdg.assemble_local": 2}
    expect_failure(run.shape_failures(wl, tracer, rnd), "hdg.assemble_local", "two assemblies for one diagonal")
    tracer.present_spans = set()
    assert run.shape_failures(wl, tracer, rnd) == [], "absent hooks must not be checked"


def test_tolerance_follows_method_order():
    # Halving dt cuts the time term by 2^q; halving h cuts the space term by 2^(p+1).
    t1 = checks.error_tolerance(1.0, 1.0, 0.1, 2, 0.0, 0.1, 3)
    t2 = checks.error_tolerance(1.0, 1.0, 0.05, 2, 0.0, 0.1, 3)
    assert math.isclose(t1 / t2, 4.0)
    s1 = checks.error_tolerance(1.0, 0.0, 0.1, 2, 1.0, 0.1, 3)
    s2 = checks.error_tolerance(1.0, 0.0, 0.1, 2, 1.0, 0.05, 3)
    assert math.isclose(s1 / s2, 16.0)
    nodes, weights = checks.gll(3)
    assert math.isclose(weights.sum(), 2.0) and math.isclose(nodes[1], -math.sqrt(1 / 5))


def main():
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    SELFTEST_DIR.mkdir(parents=True, exist_ok=True)
    failed = 0
    try:
        for test in tests:
            try:
                test()
                print(f"ok    {test.__name__}")
            except Exception:  # report every test, then fail the run
                failed += 1
                print(f"FAIL  {test.__name__}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
