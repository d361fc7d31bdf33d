import numpy as np
import pytest

import oracles
from swemix.basis import nodal_basis
from swemix.cases import l2_error, lake_at_rest, make_case, mms_nonlinear, standing_wave
from swemix.dg import ExplicitOperator, nodal_field
from swemix.errors import InvalidArgumentError
from swemix.mesh import build_structured, gll_node_coords
from swemix.swe import ModelParams


def test_standing_wave_satisfies_linear_system():
    params = ModelParams(phi_bar=1.3)
    case = standing_wave(params, amplitude=0.005)
    rng = np.random.default_rng(0)
    x, y, t = (rng.uniform(0.05, 0.95, 100) for _ in range(3))
    res = oracles.fd_pde_residual(case.exact_solution, params, x, y, t, linear=True)
    assert np.max(np.abs(res)) < 1e-7


def test_standing_wave_wall_compatibility():
    case = standing_wave(ModelParams(phi_bar=2.0))
    y = np.linspace(0, 1, 7)
    for xwall in (0.0, 1.0):
        assert np.max(np.abs(case.exact_solution(np.full_like(y, xwall), y, 0.3)[..., 1])) < 1e-16
    for ywall in (0.0, 1.0):
        assert np.max(np.abs(case.exact_solution(y, np.full_like(y, ywall), 0.3)[..., 2])) < 1e-16


def test_standing_wave_period():
    phi_bar = 1.0
    case = standing_wave(ModelParams(phi_bar=phi_bar))
    omega = np.pi * np.sqrt(2.0 * phi_bar)
    x, y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    start = case.exact_solution(x, y, 0.0)
    period = case.exact_solution(x, y, 2.0 * np.pi / omega)
    assert np.max(np.abs(start - period)) < 1e-14


def test_standing_wave_amplitude_guard():
    with pytest.raises(InvalidArgumentError):
        standing_wave(ModelParams(phi_bar=1.0), amplitude=0.5)
    with pytest.raises(InvalidArgumentError):
        standing_wave(ModelParams(phi_bar=1.0, f0=1.0))


def test_initial_state_matches_exact_at_t0():
    for case in (standing_wave(ModelParams(phi_bar=1.0)),
                 mms_nonlinear(ModelParams(phi_bar=1.0, f0=1.0))):
        x, y = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
        assert np.max(np.abs(case.initial_state(x, y) - case.exact_solution(x, y, 0.0))) < 1e-14


def test_lake_at_rest_zero_tendency():
    params = ModelParams(phi_bar=1.0, f0=0.5, drag=0.1)
    case = lake_at_rest(params)
    mesh = build_structured(3, 3, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(2)
    field = nodal_field(mesh, basis, case.initial_state)
    tend = ExplicitOperator(mesh, basis).tendency(field.data, 0.0, params)
    assert np.max(np.abs(tend)) < 1e-13


def test_mms_momentum_vanishes_at_t0():
    case = mms_nonlinear(ModelParams(phi_bar=1.0, f0=1.0))
    x, y = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
    q0 = case.initial_state(x, y)
    assert np.max(np.abs(q0[..., 1:])) < 1e-16


def test_mms_source_against_fd_oracle():
    params = ModelParams(phi_bar=1.0, f0=1.0, beta=0.4, drag=0.2)
    case = mms_nonlinear(params, amplitude=0.05)
    rng = np.random.default_rng(7)
    x, y, t = (rng.uniform(0.05, 0.95, 1000) for _ in range(3))
    res = oracles.fd_pde_residual(
        case.exact_solution, params, x, y, t, mms_source=case.mms_source
    )
    assert np.max(np.abs(res)) < 1e-7


MMS_PARAMS = [
    (ModelParams(phi_bar=1.0, f0=1.0, beta=0.4, drag=0.2), 0.05),
    (ModelParams(phi_bar=2.5, f0=-0.7, beta=1.3, drag=0.9), 0.25),
    (ModelParams(phi_bar=1.0, f0=1.0), 0.02),
]


@pytest.mark.parametrize("params, amplitude", MMS_PARAMS, ids=["rotating", "strong", "f-plane"])
def test_mms_source_matches_expanded_form(params, amplitude):
    # the separated source against the term-by-term expansion, at random
    # points and per-point times and on the nodes of a 64^2 p = 3 mesh
    case = mms_nonlinear(params, amplitude)
    rng = np.random.default_rng(8)
    x, y, t = (rng.uniform(-1.0, 2.0, 2000) for _ in range(3))
    samples = [(x, y, t)]
    mesh = build_structured(64, 64, case.bounds, case.bc_x, case.bc_y)
    xy = gll_node_coords(mesh, nodal_basis(3))
    samples += [(xy[..., 0], xy[..., 1], tk) for tk in (0.0, 0.37, 2.9)]
    for x, y, t in samples:
        got = case.mms_source(x, y, t)
        want = oracles.mms_source_expanded(x, y, t, params, amplitude)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_mms_amplitude_guard():
    with pytest.raises(InvalidArgumentError):
        mms_nonlinear(ModelParams(phi_bar=1.0), amplitude=0.5)


def test_make_case_registry():
    assert make_case("lake_at_rest").name == "lake_at_rest"
    # the amplitude given is the initial phi' at the corner (0, 0)
    assert make_case("standing_wave", ModelParams(phi_bar=1.0), 0.002).initial_state(0.0, 0.0)[0] == 0.002
    with pytest.raises(InvalidArgumentError):
        make_case("tsunami")


def test_l2_error_zero_for_exact_field():
    case = standing_wave(ModelParams(phi_bar=1.0))
    mesh = build_structured(4, 4, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(2)
    field = nodal_field(mesh, basis, case.initial_state)
    err = l2_error(field, case.exact_solution, 0.0)
    assert np.max(err) == 0.0


def test_l2_error_reads_given_coordinates():
    case = mms_nonlinear(ModelParams(phi_bar=1.0, f0=1.0))
    mesh = build_structured(4, 3, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(2)
    field = nodal_field(mesh, basis, lambda x, y: case.exact_solution(x, y, 0.1))
    xy = ExplicitOperator(mesh, basis).node_xy
    err = l2_error(field, case.exact_solution, 0.3, xy)
    assert err.tobytes() == l2_error(field, case.exact_solution, 0.3).tobytes()
    assert np.all(err > 0.0)
    # the coordinates given are the ones sampled
    assert np.all(l2_error(field, case.exact_solution, 0.1, xy) == 0.0)
    assert np.all(l2_error(field, case.exact_solution, 0.1, xy[::-1]) > 0.0)


def test_l2_error_constant_offset():
    case = lake_at_rest()
    mesh = build_structured(3, 5, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(3)
    field = nodal_field(mesh, basis, case.initial_state)
    delta = 0.37
    field.data[..., 0] += delta
    err = l2_error(field, case.exact_solution, 0.0)
    assert abs(err[0] - delta) < 1e-13  # unit-area domain


def test_l2_error_requires_exact_solution():
    case = lake_at_rest()
    mesh = build_structured(2, 2, case.bounds, case.bc_x, case.bc_y)
    field = nodal_field(mesh, nodal_basis(1), case.initial_state)
    with pytest.raises(InvalidArgumentError):
        l2_error(field, None, 0.0)


def test_mms_full_solver_regression_anchor():
    # Full nonlinear solve of the manufactured case; the error level was
    # recorded from the first verified run and guards against regressions.
    from swemix.config import parse_text
    from swemix.driver import run

    cfg = parse_text(
        """
case.name = mms_nonlinear
physics.f0 = 1.0
time.dt = 0.005
time.t_final = 0.5
time.scheme = ars222
mesh.nx = 16
mesh.ny = 16
disc.order = 3
output.csv_series = false
"""
    )
    err = run(cfg, quiet=True).final_errors[0]
    assert err < 1e-5
    assert 1e-7 < err < 6e-7  # anchored at 2.81e-7


def test_l2_error_agrees_with_over_integration():
    # smooth non-polynomial error field: GLL-weighted norm within 1% of a
    # dense Gauss evaluation of the interpolant's norm
    case = standing_wave(ModelParams(phi_bar=1.0))
    p = 3
    mesh = build_structured(6, 6, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(p)
    field = nodal_field(mesh, basis, case.initial_state)
    shifted = lambda x, y, t: 0.0 * case.exact_solution(x, y, t)
    coarse = l2_error(field, shifted, 0.0)[0]

    gx, gw = oracles.gauss_rule(p + 3)
    vals = oracles.lagrange_values(basis.nodes, gx)  # (nq, p+1)
    total = 0.0
    jac = 0.25 * mesh.hx * mesh.hy
    for e in range(mesh.num_elements):
        nodal = field.data[e, :, :, 0]
        interp = vals @ nodal @ vals.T  # (nq, nq) values at Gauss points
        total += jac * np.einsum("a,b,ab->", gw, gw, interp.T**2)
    dense = np.sqrt(total)
    assert abs(coarse - dense) / dense < 0.01


# --- One-entry cache of the spatial trig products ------------------------------

CACHED_CASES = {
    "standing_wave": lambda: standing_wave(ModelParams(phi_bar=1.3), amplitude=0.006),
    "mms_nonlinear": lambda: mms_nonlinear(ModelParams(phi_bar=1.0, f0=1.0, beta=0.4, drag=0.2), amplitude=0.05),
}


def _closed_forms(case):
    forms = [case.exact_solution]
    if case.mms_source is not None:
        forms.append(case.mms_source)
    return forms


def _assert_fresh(case, build, x, y, t):
    # each call against the same closed form of a newly built case, whose
    # cache is empty
    for got, fresh in zip(_closed_forms(case), _closed_forms(build())):
        want = fresh(x, y, t)
        assert np.array_equal(got(x, y, t), want)


@pytest.mark.parametrize("name", sorted(CACHED_CASES))
def test_cache_two_node_sets_alternately(name):
    build = CACHED_CASES[name]
    case = build()
    rng = np.random.default_rng(1)
    sets = [tuple(rng.uniform(0.0, 1.0, (6, 3, 3)) for _ in range(2)) for _ in range(2)]
    for k in range(4):
        x, y = sets[k % 2]
        _assert_fresh(case, build, x, y, 0.3 + k)


@pytest.mark.parametrize("name", sorted(CACHED_CASES))
def test_cache_sees_x_mutated_in_place(name):
    build = CACHED_CASES[name]
    case = build()
    rng = np.random.default_rng(2)
    x, y = rng.uniform(0.0, 1.0, 50), rng.uniform(0.0, 1.0, 50)
    _assert_fresh(case, build, x, y, 0.7)
    x[17] += 0.125
    _assert_fresh(case, build, x, y, 0.7)
    x *= 0.5
    _assert_fresh(case, build, x, y, 0.7)


@pytest.mark.parametrize("name", sorted(CACHED_CASES))
def test_cache_x_and_y_of_different_shapes(name):
    build = CACHED_CASES[name]
    case = build()
    x = np.linspace(0.0, 1.0, 6)
    y = np.linspace(0.1, 0.9, 4)[:, None]
    _assert_fresh(case, build, x, y, 0.2)
    assert case.exact_solution(x, y, 0.2).shape == (4, 6, 3)
    # the same values in another shape are another node set
    grid = np.arange(6.0).reshape(2, 3) / 7.0
    _assert_fresh(case, build, grid, grid, 0.2)
    _assert_fresh(case, build, grid.reshape(3, 2), grid.reshape(3, 2), 0.2)
    assert case.exact_solution(grid.reshape(3, 2), grid.reshape(3, 2), 0.2).shape == (3, 2, 3)


@pytest.mark.parametrize("name", sorted(CACHED_CASES))
def test_cache_per_point_times(name):
    build = CACHED_CASES[name]
    case = build()
    rng = np.random.default_rng(3)
    x, y, t = (rng.uniform(0.05, 0.95, 40) for _ in range(3))
    _assert_fresh(case, build, x, y, t)
    _assert_fresh(case, build, x, y, t[::-1].copy())
    # and pointwise: every entry is the closed form at its own time
    for form, fresh in zip(_closed_forms(case), _closed_forms(build())):
        rows = form(x, y, t)
        for i in range(0, 40, 9):
            np.testing.assert_allclose(rows[i], fresh(x[i], y[i], t[i]), rtol=1e-13, atol=1e-16)
