import os
import re

import pytest

from swemix import driver, imex
from swemix.cli import main

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
