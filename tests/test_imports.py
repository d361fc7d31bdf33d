"""A direct run needs NumPy alone; SciPy loads only for the gmres backend.

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


def test_gmres_config_loads_scipy_while_it_is_validated(tmp_path):
    # SciPy loads in parse_text, before the run times its set-up
    _python(
        """
        cfg = parse_text(config("standing_wave", "out", backend="gmres"))
        assert "scipy.sparse.linalg" in sys.modules
        loaded = scipy_modules()
        assert run(cfg, quiet=True).steps == 2
        assert scipy_modules() == loaded, sorted(set(scipy_modules()) - set(loaded))
        """,
        tmp_path,
    )


def test_gmres_bank_without_a_config_loads_scipy_at_set_up(tmp_path):
    _python(
        """
        import numpy as np
        from swemix.basis import nodal_basis
        from swemix.dg import StateField
        from swemix.hdg import ImplicitSolverBank
        from swemix.mesh import WALL, build_structured
        from swemix.swe import ModelParams

        mesh = build_structured(3, 2, (0.0, 1.0, 0.0, 1.0), WALL, WALL)
        basis = nodal_basis(2)
        bank = ImplicitSolverBank(mesh, basis, ModelParams(phi_bar=1.0), backend="gmres")
        assert scipy_modules() == []
        r = StateField(np.ones((mesh.num_elements, basis.n, basis.n, 3)), mesh, basis)
        q, _ = bank.solve(0.05, r)
        assert "scipy.sparse.linalg" in sys.modules and np.all(np.isfinite(q.data))
        """,
        tmp_path,
    )
