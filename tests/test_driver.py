import csv
import os
import re

import numpy as np
import pytest

from swemix import hdg, imex
from swemix.basis import nodal_basis
from swemix.cases import case_names, l2_error, make_case
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
from swemix.errors import (
    DryStateError,
    InvalidArgumentError,
    InvalidValueError,
    SolverFailureError,
    UnknownKeyError,
)
from swemix.hdg import ImplicitSolverBank
from swemix.mesh import PERIODIC, WALL, build_structured
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
    # the case alone sets the domain and the boundary kinds, since its exact
    # solution holds only there; a config overrides only the element counts
    for name in case_names():
        text = f"case.name = {name}\ntime.dt = 0.1\ntime.t_final = 1\nmesh.nx = 3\nmesh.ny = 2\n"
        sim = build_simulation(_cfg(text))
        mesh = sim.mesh
        assert (mesh.xmin, mesh.xmax, mesh.ymin, mesh.ymax) == sim.case.bounds, name
        assert (mesh.bc_x, mesh.bc_y) == (sim.case.bc_x, sim.case.bc_y), name
        assert (mesh.nx, mesh.ny) == (3, 2), name
        with pytest.raises(UnknownKeyError):
            _cfg(text + "mesh.bc_x = wall\n")


def test_linear_mode_is_refused_for_a_case_with_a_source(tmp_path, monkeypatch):
    # linear mode drops the explicit side, where the manufactured source is
    # added: the run is refused before its output directory and first step
    steps = []
    monkeypatch.setattr(imex, "step", lambda *a: steps.append(a))
    out = tmp_path / "out"
    cfg = _cfg("case.name = mms_nonlinear\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n"
               f"mesh.nx = 2\nmesh.ny = 2\noutput.dir = {out}\n")
    with pytest.raises(InvalidValueError) as err:
        run(cfg, quiet=True)
    assert err.value.key == "case.linear_mode"
    assert "mms_nonlinear" in str(err.value)
    assert steps == [] and not out.exists()


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


def _march_on_both_backends(mesh, basis, params, q0, steps, dt, **pair_kw):
    """``steps`` ars233 steps from ``q0`` on a direct and on a gmres bank."""
    tab = imex.tableau("ars233")
    finals = []
    for bank_kw in ({}, {"backend": "gmres", "rel_tol": 1e-12}):
        bank = ImplicitSolverBank(mesh, basis, params, **bank_kw)
        pair = SplitOperator(ExplicitOperator(mesh, basis), bank, params, **pair_kw)
        q = q0
        for k in range(steps):
            q = imex.step(pair, q, k * dt, dt, tab)
        finals.append(q)
    return finals


@pytest.mark.parametrize("bcs", [("wall", "wall"), ("periodic", "wall"), ("wall", "periodic"),
                                 ("periodic", "periodic")])
def test_linear_run_agrees_between_backends(bcs):
    # the gmres block-Jacobi blocks differ at the ends of a wall axis; a
    # 5 x 3 mesh of a 2 x 1 domain gives both families interior and end
    # faces, unequal counts and non-square elements
    params = ModelParams(phi_bar=1.0)
    case = make_case("standing_wave", params)
    mesh = build_structured(5, 3, (0.0, 2.0, 0.0, 1.0), *bcs)
    basis = nodal_basis(2)
    q0 = nodal_field(mesh, basis, case.initial_state)
    finals = _march_on_both_backends(mesh, basis, params, q0, 3, 0.01, linear_mode=True)
    direct, gmres = (q.data for q in finals)
    assert np.max(np.abs(gmres - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_nonlinear_step_on_a_mixed_mesh_agrees_between_backends():
    # periodic x wall: both face-family Rusanov passes, the wall mirror and
    # the mixed-mesh trace solve on each backend, with the manufactured
    # source and rotation on the explicit side
    params = ModelParams(phi_bar=1.0, f0=1.0)
    case = make_case("mms_nonlinear", params)
    mesh = build_structured(4, 3, (0.0, 1.0, 0.0, 1.0), PERIODIC, WALL)
    basis = nodal_basis(2)
    q0 = nodal_field(mesh, basis, case.initial_state)
    direct, gmres = _march_on_both_backends(mesh, basis, params, q0, 2, 0.01, extra_source=case.mms_source)
    for q in (direct, gmres):
        assert np.all(np.isfinite(q.data))
        assert np.min(q.phi_prime) > -params.phi_bar
    assert not np.array_equal(direct.data, q0.data)
    assert np.max(np.abs(gmres.data - direct.data)) <= 1e-9 * np.max(np.abs(direct.data))


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


# criterion 1's linear standing wave to a shorter final time
HIGH_ORDER_CFG = """
case.name = standing_wave
case.linear_mode = true
time.dt = 1e-4
time.t_final = 0.05
time.scheme = ars233
disc.order = {p}
output.csv_series = false
"""


# p = 4 starts at 8 cells: on 4, 8 and 16 its mean rate is 4.58, within
# 0.1 of the bound; on 8, 16 and 32 it is 4.86
@pytest.mark.parametrize("p,levels", [(4, [8, 16, 32]), (5, [4, 8, 16])])
def test_spatial_order_at_high_order(p, levels):
    res = convergence(_cfg(HIGH_ORDER_CFG.format(p=p)), levels, "spatial")
    assert res.measured_order[0] >= p + 0.5, res.table()


def test_convergence_standing_wave_returns_one_row_of_rates():
    cfg = _cfg(
        "case.name = standing_wave\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n"
    )
    res = convergence(cfg, [2, 4], "spatial")
    assert res.rates.shape == (1, 3)


def test_convergence_spacing_is_the_element_width():
    # the unit square: nx = 2 and 4 give elements 0.5 and 0.25 wide
    cfg = _cfg(
        "case.name = standing_wave\ncase.linear_mode = true\ntime.dt = 0.01\ntime.t_final = 0.02\n"
    )
    res = convergence(cfg, [2, 4], "spatial")
    assert np.array_equal(res.spacings, [0.5, 0.25])
