"""A run needs NumPy alone, on either trace-solver backend.

The test suite itself imports SciPy, so each check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys
import textwrap

import swemix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(swemix.__file__)))

PRELUDE = """
import sys

import swemix
import swemix.cli
from swemix.cases import case_names
from swemix.config import parse_text
from swemix.driver import run


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def config(case, out, backend="direct", linear=False):
    return "\\n".join([
        f"case.name = {case}",
        f"case.linear_mode = {str(linear).lower()}",
        "time.scheme = ars233",
        "time.dt = 0.01",
        "time.t_final = 0.02",
        "mesh.nx = 3",
        "mesh.ny = 2",
        "disc.order = 2",
        f"solver.backend = {backend}",
        f"output.dir = {out}",
        "output.vtk_every_n_steps = 1",
    ])


assert scipy_modules() == [], scipy_modules()
"""


def _python(code, cwd):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_direct_runs_load_no_scipy(tmp_path):
    # every shipped case on its own mesh: doubly periodic for
    # mms_nonlinear, walled for standing_wave and lake_at_rest; the
    # standing wave also in linear mode
    _python(
        """
        runs = [(case, False) for case in case_names()] + [("standing_wave", True)]
        for k, (case, linear) in enumerate(runs):
            result = run(parse_text(config(case, f"out{k}", linear=linear)), quiet=True)
            assert result.steps == 2 and len(result.vtk_paths) == 3, case
        assert scipy_modules() == [], scipy_modules()
        """,
        tmp_path,
    )


def test_runs_on_both_backends_load_no_scipy(tmp_path):
    # every shipped case on each backend, and the linear standing wave on
    # gmres, where the preconditioned iteration does all the implicit work
    _python(
        """
        runs = [(case, backend, False) for case in case_names() for backend in ("direct", "gmres")]
        runs.append(("standing_wave", "gmres", True))
        for k, (case, backend, linear) in enumerate(runs):
            cfg = parse_text(config(case, f"out{k}", backend=backend, linear=linear))
            result = run(cfg, quiet=True)
            assert result.steps == 2 and len(result.vtk_paths) == 3, (case, backend)
        assert scipy_modules() == [], scipy_modules()
        """,
        tmp_path,
    )
