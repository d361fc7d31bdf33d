import csv
import os
import re

import numpy as np
import pytest

from swemix import hdg, imex
from swemix.basis import nodal_basis
from swemix.cases import l2_error
from swemix.config import CaseConfig, Config, parse_text
from swemix.dg import ExplicitOperator, StateField, nodal_field
from swemix.driver import (
    SplitOperator,
    build_simulation,
    convergence,
    energy_proxy,
    explicit_gravity_dt,
    run,
    stability_study,
    total_mass,
)
from swemix.errors import DryStateError, InvalidArgumentError, InvalidValueError, SolverFailureError
from swemix.hdg import ImplicitSolverBank
from swemix.mesh import build_structured
from swemix.swe import ModelParams


def _cfg(text):
    return parse_text(text)


LAKE = """
case.name = lake_at_rest
time.dt = 0.01
time.t_final = 0.1
mesh.nx = 4
mesh.ny = 4
disc.order = 2
output.dir = {out}
"""


def test_lake_at_rest_run(tmp_path):
    cfg = _cfg(LAKE.format(out=tmp_path / "out"))
    result = run(cfg, quiet=True)
    assert result.steps == 10
    assert np.max(np.abs(result.final_field.data)) < 1e-12
    rows = open(result.csv_path).read().splitlines()
    assert len(rows) == 12  # header + initial + 10 steps
    masses = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])


# One GMRES restart cycle cannot reach a relative tolerance of 1e-300.
UNCONVERGED = """
case.name = standing_wave
time.dt = 0.01
time.t_final = 0.02
mesh.nx = 4
mesh.ny = 4
solver.backend = gmres
solver.rel_tol = 1e-300
solver.max_iter = 1
output.dir = {out}
"""


def test_solver_failure_names_the_step(tmp_path):
    cfg = _cfg(UNCONVERGED.format(out=tmp_path / "out"))
    with pytest.raises(SolverFailureError) as err:
        run(cfg, quiet=True)
    assert str(err.value).startswith("step 1 (t = 0.01): stage 1 of ars222: trace GMRES did not converge")
    stage_error = err.value.__cause__
    assert isinstance(stage_error, SolverFailureError)
    assert err.value.residual is not None and err.value.iterations is not None
    assert (err.value.residual, err.value.iterations) == (stage_error.residual, stage_error.iterations)


def test_stability_study_names_the_failing_step(monkeypatch):
    # ars222 takes two implicit solves a step (stages 1 and 2), so the fifth
    # fails stage 1 of step 3; dt is 20 h / ((p+1)^2 c) = 2.5 on 2 x 2, p = 1
    solve, calls = hdg.implicit_solve, []

    def fail_on_the_fifth(system, rhs):
        calls.append(None)
        if len(calls) == 5:
            raise SolverFailureError("trace solve failed", residual=1.0, iterations=7)
        return solve(system, rhs)

    monkeypatch.setattr(hdg, "implicit_solve", fail_on_the_fifth)
    with pytest.raises(SolverFailureError) as err:
        stability_study(nx=2, order=1, n_steps=4, quiet=True)
    assert str(err.value) == "step 3 (t = 7.5): stage 1 of ars222: trace solve failed"
    assert (err.value.residual, err.value.iterations) == (1.0, 7)


# Half-unit steps on a coarse p = 6 mesh drive the manufactured flow dry
# within a dozen steps.
GOES_DRY = """
case.name = mms_nonlinear
case.amplitude = 0.1
time.dt = 0.5
time.t_final = 6.0
mesh.nx = 8
mesh.ny = 8
disc.order = 6
output.dir = {out}
"""


def test_dry_state_names_the_step(tmp_path):
    cfg = _cfg(GOES_DRY.format(out=tmp_path / "out"))
    with pytest.raises(DryStateError) as err:
        run(cfg, quiet=True)
    match = re.match(r"step (\d+) \(t = ([0-9.e+-]+)\): non-positive geopotential in element (\d+) ", str(err.value))
    assert match is not None, str(err.value)
    step, t, element = int(match[1]), float(match[2]), int(match[3])
    assert t == step * 0.5
    stage_error = err.value.__cause__
    assert isinstance(stage_error, DryStateError)
    assert err.value.element == stage_error.element == element
    assert str(err.value).endswith(str(stage_error))


def _return_from_step(monkeypatch, phi_prime):
    """Make every IMEX step return its input with phi' at node 0 of element 1
    set to ``phi_prime``."""
    def step(pair, q, t, dt, tab):
        data = q.data.copy()
        data[1, 0, 0, 0] = phi_prime
        return StateField(data, q.mesh, q.basis)

    monkeypatch.setattr(imex, "step", step)


def test_non_finite_state_names_the_step(tmp_path, monkeypatch):
    _return_from_step(monkeypatch, np.nan)
    with pytest.raises(SolverFailureError) as err:
        run(_cfg(LAKE.format(out=tmp_path / "out")), quiet=True)
    assert str(err.value) == "step 1 (t = 0.01): non-finite state"


def test_dry_returned_state_names_the_step(tmp_path, monkeypatch):
    # phi_bar + phi' = 0 is dry: the end-of-step check uses the flux's <= 0
    _return_from_step(monkeypatch, -1.0)
    with pytest.raises(DryStateError) as err:
        run(_cfg(LAKE.format(out=tmp_path / "out")), quiet=True)
    assert str(err.value) == "step 1 (t = 0.01): non-positive geopotential in element 1 (min 0.000e+00)"
    assert err.value.element == 1


def test_linear_mode_does_not_check_for_a_dry_state(tmp_path, monkeypatch):
    # the linearized equations do not need phi > 0
    _return_from_step(monkeypatch, -2.0)
    result = run(_cfg(LAKE.format(out=tmp_path / "out") + "case.linear_mode = true\n"), quiet=True)
    assert result.final_field.data[1, 0, 0, 0] == -2.0


@pytest.mark.parametrize("scheme", ["ars111", "ars222", "ars233"])
def test_lake_at_rest_stays_at_rest_all_schemes(tmp_path, scheme):
    cfg = _cfg(LAKE.format(out=tmp_path / "o") + f"time.scheme = {scheme}\n")
    cfg.time.t_final = 1.0  # 100 steps
    result = run(cfg, quiet=True)
    assert result.steps == 100
    assert np.max(np.abs(result.final_field.data)) <= 1e-12


def test_rerun_is_byte_identical(tmp_path):
    text = """
case.name = standing_wave
case.linear_mode = true
time.dt = 0.005
time.t_final = 0.05
mesh.nx = 6
mesh.ny = 6
disc.order = 2
output.dir = {out}
"""
    a = run(_cfg(text.format(out=tmp_path / "a")), quiet=True)
    b = run(_cfg(text.format(out=tmp_path / "b")), quiet=True)
    assert open(a.csv_path, "rb").read() == open(b.csv_path, "rb").read()


def test_periodic_rerun_is_byte_identical(tmp_path):
    # a doubly periodic mesh takes the FFT trace solve, which must be as
    # deterministic as the cosine/sine transforms used on walls
    text = """
case.name = mms_nonlinear
time.scheme = ars222
time.dt = 0.01
time.t_final = 0.05
mesh.nx = 5
mesh.ny = 4
disc.order = 2
output.dir = {out}
"""
    cfg = _cfg(text.format(out=tmp_path / "a"))
    a = run(cfg, quiet=True)
    b = run(_cfg(text.format(out=tmp_path / "b")), quiet=True)
    assert open(a.csv_path, "rb").read() == open(b.csv_path, "rb").read()


def test_series_errors_are_the_final_field_errors(tmp_path):
    # the per-step errors sample the exact solution at the field's own nodes,
    # and the summary reads the first and last rows the run recorded
    cfg = _cfg("""
case.name = mms_nonlinear
time.dt = 0.01
time.t_final = 0.03
mesh.nx = 4
mesh.ny = 3
disc.order = 2
output.dir = {out}
""".format(out=tmp_path))
    result = run(cfg, quiet=True)
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sim = build_simulation(cfg)
    want = l2_error(result.final_field, sim.case.exact_solution, result.t_final)
    assert [float(rows[-1][name]) for name in ("l2_phi", "l2_u", "l2_v")] == want.tolist()
    assert want.tolist() == result.final_errors.tolist()
    mass0, mass = float(rows[0]["mass"]), float(rows[-1]["mass"])
    assert abs(mass - mass0) / abs(mass0) == result.mass_drift


def test_vtk_snapshots_written(tmp_path):
    cfg = _cfg(LAKE.format(out=tmp_path / "v") + "output.vtk_every_n_steps = 5\n")
    result = run(cfg, quiet=True)
    names = [os.path.basename(p) for p in result.vtk_paths]
    assert names == ["snap_000000.vtk", "snap_000005.vtk", "snap_000010.vtk"]
    for p in result.vtk_paths:
        assert os.path.exists(p)


def test_output_dir_created_and_overwritten(tmp_path):
    out = tmp_path / "fresh" / "nested"
    cfg = _cfg(LAKE.format(out=out))
    run(cfg, quiet=True)
    assert (out / "series.csv").exists()
    first = (out / "series.csv").read_bytes()
    run(cfg, quiet=True)
    assert (out / "series.csv").read_bytes() == first


def test_case_defaults_and_overrides():
    sim = build_simulation(_cfg("case.name = mms_nonlinear\ntime.dt = 0.1\ntime.t_final = 1\n"))
    assert sim.mesh.bc_x == "periodic" and sim.mesh.bc_y == "periodic"
    sim = build_simulation(
        _cfg("case.name = mms_nonlinear\ntime.dt = 0.1\ntime.t_final = 1\nmesh.bc_x = wall\n")
    )
    assert sim.mesh.bc_x == "wall"


def test_explicit_gravity_dt():
    mesh = build_structured(16, 16, (0.0, 1.0, 0.0, 1.0), "wall", "wall")
    basis = nodal_basis(2)
    params = ModelParams(phi_bar=4.0)
    dt = explicit_gravity_dt(mesh, basis, params)
    assert abs(dt - (1.0 / 16) / (9 * 2.0)) < 1e-16


def test_mass_and_energy_proxies():
    params = ModelParams(phi_bar=2.0)
    mesh = build_structured(3, 3, (0.0, 1.0, 0.0, 1.0), "wall", "wall")
    basis = nodal_basis(2)
    field = nodal_field(mesh, basis, lambda x, y: np.stack(
        [np.full_like(x, 0.1), np.full_like(x, 0.3), np.full_like(x, -0.2)], axis=-1))
    assert abs(total_mass(field, params) - 2.1) < 1e-13
    expected_energy = 0.5 * ((0.3**2 + 0.2**2) / 2.0 + 0.1**2)
    assert abs(energy_proxy(field, params) - expected_energy) < 1e-14


def test_linear_mode_zeroes_explicit_side():
    # None is the pair protocol's identically zero tendency: linear mode
    # forms no explicit field at all
    params = ModelParams(phi_bar=1.0)
    mesh = build_structured(2, 2, (0.0, 1.0, 0.0, 1.0), "wall", "wall")
    basis = nodal_basis(1)
    bank = ImplicitSolverBank(mesh, basis, params)
    pair = SplitOperator(ExplicitOperator(mesh, basis), bank, params, linear_mode=True)
    q = nodal_field(mesh, basis, lambda x, y: np.stack(
        [0.2 * x, 0.1 * y, 0.0 * x], axis=-1))
    assert pair.explicit_tendency(q, 0.0) is None


class _ZeroExplicit(SplitOperator):
    """The linear-mode pair with its explicit side as an actual zero field."""

    def explicit_tendency(self, q, t):
        return StateField(np.zeros_like(q.data), q.mesh, q.basis)


@pytest.mark.parametrize("scheme", ["ars111", "ars222", "ars233"])
@pytest.mark.parametrize("bc", ["wall", "periodic"])
def test_linear_mode_step_equals_a_zero_explicit_field(scheme, bc):
    params = ModelParams(phi_bar=1.5)
    mesh = build_structured(3, 2, (0.0, 1.0, 0.0, 1.0), bc, bc)
    basis = nodal_basis(2)
    args = (ExplicitOperator(mesh, basis), ImplicitSolverBank(mesh, basis, params), params)
    linear = SplitOperator(*args, linear_mode=True)
    zero = _ZeroExplicit(*args, linear_mode=True)
    tab = imex.tableau(scheme)
    q0 = StateField(np.random.default_rng(3).standard_normal((6, 3, 3, 3)), mesh, basis)
    q = p = q0
    for k in range(3):
        q = imex.step(linear, q, 0.02 * k, 0.02, tab)
        p = imex.step(zero, p, 0.02 * k, 0.02, tab)
        assert np.array_equal(q.data, p.data), k
    assert not np.array_equal(q.data, q0.data)


@pytest.mark.parametrize("bcs", [("wall", "wall"), ("periodic", "wall"), ("wall", "periodic"),
                                 ("periodic", "periodic")])
def test_linear_run_agrees_between_backends(tmp_path, bcs):
    # the gmres block-Jacobi blocks differ at the ends of a wall axis; a
    # 5 x 3 mesh of a 2 x 1 domain gives both families interior and end
    # faces, unequal counts and non-square elements
    text = (
        "case.name = standing_wave\ncase.linear_mode = true\ntime.scheme = ars233\n"
        "time.dt = 0.01\ntime.t_final = 0.03\ndisc.order = 2\nmesh.nx = 5\nmesh.ny = 3\n"
        f"mesh.xmax = 2.0\nmesh.bc_x = {bcs[0]}\nmesh.bc_y = {bcs[1]}\n"
        f"output.dir = {tmp_path}\noutput.csv_series = false\n"
    )
    direct = run(_cfg(text), quiet=True).final_field.data
    gmres = run(_cfg(text + "solver.backend = gmres\nsolver.rel_tol = 1e-12\n"), quiet=True).final_field.data
    assert np.max(np.abs(gmres - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_explicit_only_operator_identity_solve():
    params = ModelParams(phi_bar=1.0)
    mesh = build_structured(2, 2, (0.0, 1.0, 0.0, 1.0), "wall", "wall")
    basis = nodal_basis(1)
    dg_op = ExplicitOperator(mesh, basis)
    pair = SplitOperator(dg_op, None, params)
    q = nodal_field(mesh, basis, lambda x, y: np.stack(
        [0.0 * x + 0.01, 0.1 * x, 0.0 * x], axis=-1))
    assert pair.implicit_solve(0.3, q) is q
    full = dg_op.tendency(q.data, 0.0, params, full=True)
    assert np.array_equal(pair.explicit_tendency(q, 0.0).data, full)


def test_convergence_requires_two_levels():
    cfg = _cfg("case.name = standing_wave\ntime.dt = 0.01\ntime.t_final = 0.02\n")
    with pytest.raises(InvalidArgumentError):
        convergence(cfg, [8], "spatial")
    with pytest.raises(InvalidArgumentError):
        convergence(cfg, [8, 16], "sideways")


@pytest.mark.parametrize(
    "levels, mode",
    [([4, 4], "spatial"), ([4, 8, 4], "spatial"), ([0, 4], "spatial"), ([2, -4], "temporal"), ([2, 0], "temporal")],
    ids=["4-4", "4-8-4", "0-4", "2-minus4-temporal", "2-0-temporal"],
)
def test_convergence_rejects_degenerate_levels(levels, mode):
    cfg = _cfg("case.name = standing_wave\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n")
    with pytest.raises(InvalidArgumentError, match="levels"):
        convergence(cfg, levels, mode)


def test_convergence_validates_each_level():
    # A Config built in code skips parse_text's validation; its dt = 0
    # must be rejected before the first level runs.
    cfg = Config(case=CaseConfig(name="standing_wave", linear_mode=True))
    with pytest.raises(InvalidValueError, match="time.dt"):
        convergence(cfg, [2, 4], "spatial")


def test_convergence_spatial_smoke(tmp_path):
    cfg = _cfg(
        """
case.name = standing_wave
case.linear_mode = true
time.dt = 0.002
time.t_final = 0.04
time.scheme = ars222
disc.order = 2
output.dir = {out}
""".format(out=tmp_path)
    )
    res = convergence(cfg, [4, 8], "spatial")
    assert res.errors.shape == (2, 3)
    assert res.errors[1, 0] < res.errors[0, 0]  # refinement helps
    path = res.to_csv(str(tmp_path / "conv.csv"))
    rows = open(path).read().splitlines()
    assert rows[0].startswith("level,spacing")
    assert len(rows) == 3
    assert "measured order" in res.table()


def test_convergence_standing_wave_returns_one_row_of_rates():
    cfg = _cfg(
        "case.name = standing_wave\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n"
    )
    res = convergence(cfg, [2, 4], "spatial")
    assert res.rates.shape == (1, 3)


def test_convergence_spacing_is_the_element_width():
    # a 2 x 2 domain: nx = 2 and 4 give elements 1.0 and 0.5 wide
    cfg = _cfg(
        "case.name = standing_wave\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n"
        "mesh.xmax = 2.0\nmesh.ymax = 2.0\n"
    )
    res = convergence(cfg, [2, 4], "spatial")
    assert np.array_equal(res.spacings, [1.0, 0.5])
