"""Step clock, spans and per-layer hooks, all installed from outside the program.

Every hook replaces a callable at the name where its caller looks it up
(``driver`` imports ``write_vtk`` and ``l2_error`` by name, ``dg`` calls
``rusanov_flux`` and ``swe.*`` through module globals, ``hdg`` calls
``scipy.sparse.linalg.splu`` and ``gmres`` through the scipy module, and so
on) and puts the original back afterwards.  A hook whose target no longer exists is
reported as absent, not fatal.

The step clock is the only hook active in an untraced round: it times each
``imex.step`` call and, before the first one, factorizes the trace system
for every distinct implicit diagonal, which the program otherwise does
lazily inside the first step, so that set-up ends where stepping begins.
"""

import dataclasses
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

now = time.perf_counter


# ------------------------------------------------------------------ patching


class Patch:
    """Replace ``module.path`` (a dotted attribute path) while active."""

    def __init__(self, module, path):
        self.module, self.path = module, path
        self.owner = self.attr = self.original = None

    def resolve(self):
        """Return the current target, or None if it no longer exists."""
        try:
            owner = importlib.import_module(self.module)
        except ImportError:
            return None
        *parents, attr = self.path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            return None
        self.owner, self.attr, self.original = owner, attr, target
        return target

    def apply(self, replacement):
        setattr(self.owner, self.attr, replacement)

    def restore(self):
        setattr(self.owner, self.attr, self.original)


# ---------------------------------------------------------------- step clock


@dataclass
class StepRecord:
    t: float
    seconds: float  # from this step's start to the next step's start (or round end), hook work excluded
    finite: bool
    phi_max: float  # max |phi'| of the state the step returned (inf if it raised)
    raised: bool


class StepClock:
    """Times each ``imex.step`` call of a round and ends set-up before the first."""

    def __init__(self):
        self.patch = Patch("swemix.imex", "step")
        self.begin(None)

    def begin(self, start):
        self.start = start
        self.setup_end = None
        self.steps = []
        self._step_start = None
        self._excluded = 0.0

    def _close_step(self, at):
        if self._step_start is not None:
            self.steps[-1].seconds = at - self._step_start - self._excluded
            self._step_start = None

    def end(self):
        """Close the last step at the return of the workload call."""
        self._close_step(now())
        if self.setup_end is None:
            self.setup_end = now()

    @property
    def setup_seconds(self):
        return self.setup_end - self.start

    def install(self):
        real = self.patch.resolve()
        if real is None:
            raise RuntimeError("swemix.imex.step not found; the step clock cannot run")
        clock = self

        @functools.wraps(real)
        def step(pair, q, t, dt, tab):
            t0 = now()
            clock._close_step(t0)
            if clock.setup_end is None:
                _factor_ahead(pair, dt, tab)
                clock.setup_end = t0 = now()
            clock.steps.append(StepRecord(t, 0.0, False, float("inf"), True))
            clock._step_start, clock._excluded = t0, 0.0
            out = real(pair, q, t, dt, tab)
            t1 = now()
            data = np.asarray(getattr(out, "data", out))
            with np.errstate(invalid="ignore", over="ignore"):
                rec = clock.steps[-1]
                rec.raised = False
                rec.finite = bool(np.all(np.isfinite(data)))
                rec.phi_max = float(np.max(np.abs(data[..., 0])))
            clock._excluded = now() - t1
            return out

        self.patch.apply(step)

    def uninstall(self):
        self.patch.restore()


def _factor_ahead(pair, dt, tab):
    """Build the cached trace system for every distinct implicit diagonal,
    with the exact shift ``imex.step`` will ask for, so the first step finds
    it ready.  Operators without a solver bank (the explicit control) skip."""
    system_for = getattr(getattr(pair, "bank", None), "system_for", None)
    if system_for is None:
        return
    diagonals = []
    for i in range(tab.stages):
        shift = tab.A_im[i, i]
        if shift != 0.0 and shift not in diagonals:
            diagonals.append(shift)
    for shift in diagonals:
        system_for(shift * dt)


# --------------------------------------------------------------------- spans


class SpanRecorder:
    """Spans (name, start, end, parent index, run id) and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.gauges = {}
        self.run_id = None
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = now()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def count(self, name, value=1):
        self.counters[name] += value

    def write(self, path, absent, seed):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "seed": seed,
                    "absent_hooks": absent,
                    "fields": ["name", "start", "end", "parent", "run"],
                    "spans": self.spans,
                },
                fh,
            )


# --------------------------------------------------------------------- hooks


def _after(fn, after):
    """Call ``after(result, args, kwargs)`` once ``fn`` returns; a non-None
    return value replaces the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        replaced = after(result, args, kwargs)
        return result if replaced is None else replaced

    return wrapper


def _hooks(rec):
    """(span name or None, module, attribute path, extra wrapper or None)."""

    def trace_sizes(system, args, kwargs):
        H = getattr(system, "H", None)
        if H is not None:
            rec.gauges["hdg.trace_dofs"] = H.shape[0]
            rec.gauges["hdg.H_nnz"] = H.nnz

    def lu_size(lu, args, kwargs):
        rec.count("hdg.lu_nnz", getattr(lu, "nnz", 0))

    def block_jacobi_size(op, args, kwargs):
        num_faces, n1 = args[1], args[2]
        rec.count("hdg.lu_nnz", num_faces * n1 * n1)

    def vtk_size(path, args, kwargs):
        if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
            rec.count("output.vtk_bytes", os.path.getsize(path))

    def traced_source(case, args, kwargs):
        source = getattr(case, "mms_source", None)
        if source is None:
            return None
        return dataclasses.replace(case, mms_source=rec.span("cases.mms_source", source))

    def iterations(gmres):
        @functools.wraps(gmres)
        def counted(*args, **kwargs):
            n = 0

            def callback(_):
                nonlocal n
                n += 1

            try:
                return gmres(*args, callback=callback, callback_type="pr_norm", **kwargs)
            finally:
                rec.count("hdg.trace_iters_total", n)

        return counted

    def after(fn_after):
        return lambda fn: _after(fn, fn_after)

    return [
        ("driver.build_simulation", "swemix.driver", "build_simulation", None),
        (None, "swemix.driver", "make_case", after(traced_source)),
        ("mesh.build_structured", "swemix.driver", "build_structured", None),
        ("hdg.assemble_local", "swemix.hdg", "assemble_local", None),
        ("hdg.condense_and_factor", "swemix.hdg", "condense_and_factor", after(trace_sizes)),
        ("hdg.factor", "scipy.sparse.linalg", "splu", after(lu_size)),
        ("hdg.factor", "swemix.hdg", "_block_jacobi", after(block_jacobi_size)),
        ("hdg.solve_trace", "swemix.hdg", "CondensedSystem.solve_trace", None),
        (None, "scipy.sparse.linalg", "gmres", iterations),
        ("hdg.implicit_solve", "swemix.hdg", "implicit_solve", None),
        ("dg.tendency", "swemix.dg", "ExplicitOperator.tendency", None),
        ("dg.rusanov_flux", "swemix.dg", "rusanov_flux", None),
        ("swe.flux", "swemix.swe", "flux_nonlinear", None),
        ("swe.flux", "swemix.swe", "flux_full", None),
        ("swe.source", "swemix.swe", "source", None),
        ("imex.step", "swemix.imex", "step", None),
        ("cases.l2_error", "swemix.driver", "l2_error", None),
        ("driver.total_mass", "swemix.driver", "total_mass", None),
        ("driver.energy_proxy", "swemix.driver", "energy_proxy", None),
        ("output.write_vtk", "swemix.driver", "write_vtk", after(vtk_size)),
        ("output.csv", "swemix.output", "CsvSeriesWriter.add", None),
        ("output.csv", "swemix.output", "CsvSeriesWriter.write", None),
    ]


class Tracer:
    """Installs the per-layer hooks for traced rounds and derives the metrics."""

    def __init__(self):
        self.rec = SpanRecorder()
        self.absent = []
        self.present_spans = set()
        self._active = []

    def install(self):
        self.absent = []
        self.present_spans = set(ROOT_SPANS)
        for name, module, path, extra in _hooks(self.rec):
            patch = Patch(module, path)
            target = patch.resolve()
            if target is None:
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = target if extra is None else extra(target)
            if name is not None:
                wrapped = self.rec.span(name, wrapped)
                self.present_spans.add(name)
            patch.apply(wrapped)
            self._active.append(patch)

    def uninstall(self):
        while self._active:
            self._active.pop().restore()

    def write(self, path, seed):
        self.rec.write(path, self.absent, seed)

    def accounting_failures(self, traced):
        """Per traced round, the self times of its spans plus the time the
        round spent outside its root span (prepare, hook installation,
        checks; timed by the round itself) must make up the round's wall
        time.  A lost or misattributed span breaks the sum."""
        out = []
        for r in traced:
            spans = sum(self._self_times(r["run_id"]).values())
            accounted = spans + r["outside"]
            if abs(accounted - r["wall"]) > ACCOUNTING_TOL_S:
                out.append(f"traced round {r['run_id']}: span self times {spans:.6f} s + {r['outside']:.6f} s "
                           f"outside the root span = {accounted:.6f} s, round wall {r['wall']:.6f} s")
        return out

    def _self_times(self, run_id=None):
        """Self time per span name, over all spans or those of one round."""
        covered = defaultdict(list)  # parent index -> child intervals
        for _, start, end, parent, _ in self.rec.spans:
            if parent >= 0:
                covered[parent].append((start, end))
        self_time = defaultdict(float)
        for idx, (name, start, end, _, run) in enumerate(self.rec.spans):
            if run_id is None or run == run_id:
                self_time[name] += (end - start) - _union(covered.get(idx, ()))
        return self_time

    def round_counts(self, run_id):
        """Calls per span name within one traced round."""
        counts = defaultdict(int)
        for name, _, _, _, run in self.rec.spans:
            if run == run_id:
                counts[name] += 1
        return counts

    def metrics(self, traced, untraced):
        """Per-layer metrics per traced round (sums divided by the round
        count); ``traced`` and ``untraced`` are the two kinds of rounds."""
        spans = self.rec.spans
        n = max(len(traced), 1)
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, _ in spans:
            total[name] += end - start
            calls[name] += 1
        self_time = self._self_times()

        m = {}
        for name in LAYER_SPANS:
            m[f"{name}.s"] = total[name] / n
            m[f"{name}.calls"] = calls[name] / n
        m["driver.self_s"] = sum(self_time[r] for r in ROOT_SPANS) / n
        m["dg.tendency.self_s"] = self_time["dg.tendency"] / n
        m["imex.step.self_s"] = self_time["imex.step"] / n
        m["hdg.condense_backsub.s"] = self_time["hdg.implicit_solve"] / n
        m["hdg.assemblies"] = calls["hdg.assemble_local"] / n
        m["hdg.trace_dofs"] = self.rec.gauges.get("hdg.trace_dofs", 0)
        m["hdg.H_nnz"] = self.rec.gauges.get("hdg.H_nnz", 0)
        m["hdg.lu_nnz"] = self.rec.counters["hdg.lu_nnz"] / n
        m["hdg.lu_mb"] = m["hdg.lu_nnz"] * LU_BYTES_PER_NNZ / 1e6
        m["hdg.trace_iters"] = self.rec.counters["hdg.trace_iters_total"] / max(calls["hdg.solve_trace"], 1)
        m["output.vtk_bytes"] = self.rec.counters["output.vtk_bytes"] / n
        traced_wall = float(np.median([r["wall"] for r in traced]))
        m["trace.wall_s"] = traced_wall
        m["trace.self_sum_s"] = sum(self_time.values()) / n
        m["trace.overhead_s"] = traced_wall - float(np.median([r["wall"] for r in untraced]))
        m["trace.setup_s"] = float(np.median([r["setup"] for r in traced]))
        m["trace.spans"] = len(spans) / n
        m["trace.hooks_absent"] = len(self.absent)
        return m


def _union(intervals):
    """Length of the union of (start, end) intervals."""
    length, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length


# The round reads the clock just outside the root span's own readings, so
# the accounting differs from the wall time by two clock calls only
# (about 10 us measured); the slack allows for a garbage collection there.
ACCOUNTING_TOL_S = 1e-3

# Values (float64) plus row indices (int32) per stored factor entry.
LU_BYTES_PER_NNZ = 12

ROOT_SPANS = ("driver.run", "driver.stability_study")

LAYER_SPANS = (
    "driver.run",
    "driver.stability_study",
    "driver.build_simulation",
    "mesh.build_structured",
    "hdg.assemble_local",
    "hdg.condense_and_factor",
    "hdg.factor",
    "hdg.solve_trace",
    "hdg.implicit_solve",
    "dg.tendency",
    "dg.rusanov_flux",
    "swe.flux",
    "swe.source",
    "cases.mms_source",
    "imex.step",
    "cases.l2_error",
    "driver.total_mass",
    "driver.energy_proxy",
    "output.write_vtk",
    "output.csv",
)


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return {"hdg.lu_mb": "MB", "output.vtk_bytes": "bytes", "hdg.trace_iters": "1/solve"}.get(name, "count")
