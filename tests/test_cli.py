import math
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swemix import config, driver, imex
from swemix.basis import MAX_ORDER
from swemix.cases import case_names
from swemix.cli import main
from swemix.hdg import BACKENDS
from swemix.mesh import PERIODIC, WALL

CONFIG = """
case.name = lake_at_rest
time.dt = 0.01
time.t_final = 0.05
mesh.nx = 3
mesh.ny = 3
disc.order = 1
output.dir = {out}
"""


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "series.csv").exists()
    assert "mass drift" in capsys.readouterr().out


def test_run_missing_config_exit_code(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case.name = lake_at_rest\ntime.dt = 0\ntime.t_final = 1\n")
    assert main(["run", str(cfg)]) == 1


def test_run_non_finite_dt_exit_code(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace("time.dt = 0.01", "time.dt = nan"))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: time.dt: must be finite, got nan\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra", ["output.vtk_every_n_steps = 2\n", "output.csv_series = true\n"], ids=["vtk", "csv_only"]
)
def test_run_output_dir_under_a_file_exit_code(tmp_path, capsys, monkeypatch, extra):
    # an output directory that cannot be made is a config error, reported
    # before the first step also when only the CSV series, written at the
    # end, would need it
    steps = []
    step = imex.step
    monkeypatch.setattr(imex, "step", lambda *a: steps.append(a) or step(*a))
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = tmp_path / "out.cfg"
    cfg.write_text(CONFIG.format(out=blocker / "out") + extra)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output.dir: cannot make ")
    assert "Traceback" not in err
    assert steps == []


def test_run_rejects_an_amplitude_for_lake_at_rest(tmp_path, capsys):
    cfg = tmp_path / "lake.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out") + "case.amplitude = 0.5\n")
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: lake_at_rest takes no amplitude, got 0.5\n"
    assert not (tmp_path / "out").exists()


def test_run_solver_failure_names_the_step(tmp_path, capsys):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        """
case.name = standing_wave
time.dt = 0.01
time.t_final = 0.02
mesh.nx = 4
mesh.ny = 4
solver.backend = gmres
solver.rel_tol = 1e-300
solver.max_iter = 1
output.dir = {out}
""".format(out=tmp_path / "out")
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: step 1 (t = 0.01): stage 1 of ars222: trace GMRES")


def test_run_dry_state_names_the_step(tmp_path, capsys):
    cfg = tmp_path / "dry.cfg"
    cfg.write_text(
        """
case.name = mms_nonlinear
case.amplitude = 0.1
time.dt = 0.5
time.t_final = 6.0
mesh.nx = 8
mesh.ny = 8
disc.order = 6
output.dir = {out}
""".format(out=tmp_path / "out")
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"solver failure: step \d+ \(t = [0-9.e+-]+\): non-positive geopotential in element \d+ ", err), err


@pytest.mark.parametrize("t_final", ["2.0", "4.0"])
def test_run_dry_final_state_names_step_1(tmp_path, capsys, t_final):
    # one ars233 step of dt = 2 leaves phi = -0.093 in element 0; the state
    # that step returns is checked, also when it is the run's last step
    cfg = tmp_path / "dry.cfg"
    cfg.write_text(
        """
case.name = mms_nonlinear
case.amplitude = 0.1
time.scheme = ars233
time.dt = 2.0
time.t_final = {t_final}
mesh.nx = 4
mesh.ny = 4
disc.order = 2
output.dir = {out}
""".format(t_final=t_final, out=tmp_path / "out")
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: step 1 (t = 2): non-positive geopotential in element 0 "), err


@pytest.mark.parametrize("csv_series", ["true", "false"])
def test_run_overflowing_diagnostics_name_the_step(tmp_path, capsys, csv_series):
    # the state stays finite, but its energy and its U and V errors
    # overflow when squared: a solver failure, not inf in the CSV or in
    # the summary of a run without one
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        """
case.name = mms_nonlinear
physics.beta = 1e300
case.amplitude = 1e-300
mesh.nx = 1
mesh.ny = 1
disc.order = 1
time.scheme = ars233
time.dt = 1e-10
time.t_final = 1e-10
output.dir = {out}
output.csv_series = {csv_series}
""".format(out=tmp_path / "out", csv_series=csv_series)
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err == "solver failure: step 1 (t = 1e-10): non-finite diagnostics: energy, l2_u, l2_v\n", err
    assert out == "", out
    assert not (tmp_path / "out" / "series.csv").exists()


def test_convergence_subcommand(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(
        """
case.name = standing_wave
case.linear_mode = true
time.dt = 0.002
time.t_final = 0.02
disc.order = 2
output.dir = {out}
""".format(out=tmp_path / "out")
    )
    assert main(["convergence", str(cfg), "--levels", "4", "8", "--mode", "spatial"]) == 0
    out = capsys.readouterr().out
    assert "measured order" in out
    assert os.path.exists(tmp_path / "out" / "convergence_spatial.csv")


def test_convergence_output_dir_under_a_file_exit_code(tmp_path, capsys, monkeypatch):
    # the CSV's directory is made before the study, so a blocked one is a
    # config error before any level runs
    runs = []
    monkeypatch.setattr(driver, "run", lambda *a, **k: runs.append(a))
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONFIG.format(out=blocker / "out"))
    assert main(["convergence", str(cfg), "--levels", "2", "4", "--mode", "spatial"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output.dir: cannot make ")
    assert "Traceback" not in err
    assert runs == []


def test_convergence_single_level_fails(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out"))
    assert main(["convergence", str(cfg), "--levels", "4", "--mode", "spatial"]) == 1


@pytest.mark.parametrize(
    "levels, mode",
    [(["4", "4"], "spatial"), (["2", "-4"], "temporal"), (["2", "0"], "temporal")],
    ids=["4-4", "2-minus4-temporal", "2-0-temporal"],
)
def test_convergence_degenerate_levels_fail(tmp_path, capsys, levels, mode):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out"))
    assert main(["convergence", str(cfg), "--levels", *levels, "--mode", mode]) == 1
    assert "refinement levels must be distinct and >= 1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_tableau_check_subcommand(capsys):
    assert main(["tableau-check", "ars222"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "residual" in out
    assert main(["tableau-check", "rk99"]) == 1


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        """
case.name = standing_wave
time.dt = 5.0
time.t_final = 10.0
mesh.nx = 24
mesh.ny = 24
disc.order = 2
solver.backend = gmres
solver.rel_tol = 1e-14
solver.max_iter = 1
output.dir = {out}
""".format(out=tmp_path / "out")
    )
    assert main(["run", str(cfg)]) == 2
    assert "solver failure" in capsys.readouterr().err




# per key, the values a run usually takes, then the edge values a few
# keys of each config take instead: 0, negatives, 1e-300, 1e300, unknown
# names, and left out for the required keys; the test sets output.dir
# itself
_EDGE = ("0", "-1", "1e-300", "1e300", "-1e300")
_KEYS = {
    "mesh.nx": (st.sampled_from(("1", "2", "3")), ("-1", "0")),
    "mesh.ny": (st.sampled_from(("1", "2", "3")), ("-1", "0")),
    "mesh.xmin": (st.none(), _EDGE),
    "mesh.xmax": (st.none(), _EDGE),
    "mesh.ymin": (st.none(), _EDGE),
    "mesh.ymax": (st.none(), _EDGE),
    "mesh.bc_x": (st.sampled_from((None, WALL, PERIODIC)), ("bogus",)),
    "mesh.bc_y": (st.sampled_from((None, WALL, PERIODIC)), ("bogus",)),
    "disc.order": (st.sampled_from(("1", "2", "3")), ("-1", "0", str(MAX_ORDER + 1))),
    "disc.tau": (st.sampled_from((None, "0.5", "2")), _EDGE),
    "physics.phi_bar": (st.sampled_from((None, "2")), _EDGE),
    "physics.f0": (st.none(), _EDGE),
    "physics.beta": (st.none(), _EDGE),
    "physics.drag": (st.none(), _EDGE),
    "time.dt": (st.sampled_from(("0.01", "0.5")), (None,) + _EDGE),
    "time.t_final": (st.sampled_from((1, 2, 3)), (None, -1, 0, "1e300")),  # steps
    "time.scheme": (st.sampled_from(imex.scheme_names()), ("bogus",)),
    "case.name": (st.sampled_from(case_names()), (None, "bogus")),
    "case.amplitude": (st.none(), _EDGE),
    "case.linear_mode": (st.sampled_from((None, "true", "false")), ("yes",)),
    "solver.backend": (st.sampled_from(BACKENDS), ("bogus",)),
    "solver.rel_tol": (st.none(), _EDGE),
    "solver.max_iter": (st.none(), ("-1", "0", "1")),
    "output.vtk_every_n_steps": (st.sampled_from((None, "0", "1")), ("-1", "2")),
    "output.csv_series": (st.sampled_from(("true", "false")), ("yes",)),
}


@st.composite
def _edge_configs(draw):
    """Config text on at most 3 x 3 cells and 3 steps, with up to three
    keys at edge values.  ``time.t_final`` is drawn as a number of steps
    of ``time.dt``, or as 1e300 where that is not 4 or more finite steps."""
    values = {key: draw(usual) for key, (usual, _) in _KEYS.items()}
    for key in draw(st.lists(st.sampled_from(sorted(_KEYS)), max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_KEYS[key][1]))
    dt, steps = float(values["time.dt"] or 0.0), values["time.t_final"]
    if steps == "1e300":
        assume(not (dt > 0.0 and 3.0 < 1e300 / dt < math.inf))
    elif steps is not None:
        values["time.t_final"] = repr(steps * dt)
    return "".join(f"{key} = {v}\n" for key, v in values.items() if v is not None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_edge_configs())
@example("case.name = mms_nonlinear\nphysics.beta = 1e300\ncase.amplitude = 1e-300\nmesh.nx = 1\nmesh.ny = 1\n"
         "disc.order = 1\ntime.scheme = ars233\ntime.dt = 1e-10\ntime.t_final = 1e-10\n")
@example("case.name = mms_nonlinear\nphysics.beta = 1e300\ncase.amplitude = 1e-300\nmesh.nx = 1\nmesh.ny = 1\n"
         "disc.order = 1\ntime.scheme = ars233\ntime.dt = 1e-10\ntime.t_final = 1e-10\n"
         "output.csv_series = false\n")
@example("case.name = standing_wave\ntime.dt = 1e-300\ntime.t_final = 1e300\n")
def test_run_exit_codes_over_edge_configs(text):
    # exit 0, 1 or 2 and no exception; an exit 0 ends on a finite state,
    # wet in nonlinear mode, with a finite mass drift and finite errors,
    # and writes no nan or inf to its CSV
    assert set(_KEYS) | {"output.dir"} == set(config._KEY_TYPES)
    runs = []
    real_run = driver.run

    def run(cfg, quiet=False):
        runs.append((cfg, real_run(cfg, quiet=quiet)))
        return runs[-1][1]

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(driver, "run", run), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + f"output.dir = {tmp}/out\n")
        code = main(["run", path])
        assert code in (0, 1, 2), text
        if code == 0:
            (cfg, result), = runs
            q = result.final_field
            assert np.all(np.isfinite(q.data)), text
            assert cfg.case.linear_mode or np.min(q.phi_prime) > -cfg.physics.phi_bar, text
            assert np.isfinite(result.mass_drift) and np.all(np.isfinite(result.final_errors)), text
            assert (result.csv_path is not None) == cfg.output.csv_series, text
            if cfg.output.csv_series:
                with open(result.csv_path, encoding="ascii") as fh:
                    csv = fh.read()
                assert "nan" not in csv and "inf" not in csv, text
