import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swemix.basis import mass_weights, nodal_basis
from swemix.dg import ExplicitOperator, StateField, nodal_field, rusanov_flux
from swemix.errors import DryStateError
from swemix.mesh import PERIODIC, WALL, build_structured, gll_node_coords
from swemix.swe import ModelParams, flux_full, flux_nonlinear

P1 = ModelParams(phi_bar=1.0)

state = st.builds(
    lambda p, u, v: np.array([p, u, v]),
    st.floats(-0.5, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
axes = st.sampled_from([0, 1])


def _normal_flux(q, axis, full=False):
    return (flux_full if full else flux_nonlinear)(q, P1)[axis]


@given(state, axes, st.booleans())
def test_rusanov_consistency(q, axis, full):
    fn = _normal_flux(q, axis, full)
    fhat = rusanov_flux(q, q, fn, fn, axis, P1, full)
    assert np.allclose(fhat, fn, rtol=0, atol=1e-15)


def test_rusanov_rest_states_average_pressure_remainder():
    # both sides at rest, differing phi': advective speed is zero, so the
    # flux is the plain average of the pressure remainders, in the momentum
    # along the face's normal
    qm = np.array([0.2, 0.0, 0.0])
    qp = np.zeros(3)
    for axis in (0, 1):
        fhat = rusanov_flux(qm, qp, _normal_flux(qm, axis), _normal_flux(qp, axis), axis, P1)
        normal, tangent = 1 + axis, 2 - axis
        assert fhat[0] == 0.0
        assert abs(fhat[normal] - 0.5 * 0.02) < 1e-16
        assert fhat[tangent] == 0.0


@given(state, state, axes, st.booleans())
def test_rusanov_antisymmetry(qm, qp, axis, full):
    # Through the reversed normal the sides swap and both normal fluxes
    # change sign; the flux must change sign with them.
    fm, fp = _normal_flux(qm, axis, full), _normal_flux(qp, axis, full)
    a = rusanov_flux(qm, qp, fm, fp, axis, P1, full)
    b = rusanov_flux(qp, qm, -fp, -fm, axis, P1, full)
    assert np.allclose(a, -b, rtol=0, atol=1e-14)


def test_rusanov_dry_state():
    # the dry side has no flux (flux_nonlinear raises on it), so both sides
    # pass the wet side's: the geopotential check alone must raise
    qp = np.zeros(3)
    for axis in (0, 1):
        fn = _normal_flux(qp, axis)
        with pytest.raises(DryStateError):
            rusanov_flux(np.array([-2.0, 0.0, 0.0]), qp, fn, fn, axis, P1)


def _random_field(mesh, basis, rng, scale=0.3):
    data = rng.uniform(-scale, scale, size=(mesh.num_elements, basis.n, basis.n, 3))
    return StateField(data, mesh, basis)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_free_stream_on_periodic_mesh(p):
    rng = np.random.default_rng(11 + p)
    mesh = build_structured(4, 3, (0.0, 1.0, 0.0, 1.0), PERIODIC, PERIODIC)
    basis = nodal_basis(p)
    op = ExplicitOperator(mesh, basis)
    for _ in range(5):
        const = rng.uniform(-0.4, 0.4, size=3)
        data = np.tile(const, (mesh.num_elements, basis.n, basis.n, 1))
        tend = op.tendency(data, 0.0, P1)
        assert np.max(np.abs(tend)) < 1e-12


def test_rest_state_zero_tendency_exactly():
    mesh = build_structured(3, 3, (0.0, 1.0, 0.0, 1.0), WALL, WALL)
    basis = nodal_basis(2)
    op = ExplicitOperator(mesh, basis)
    tend = op.tendency(np.zeros((9, 3, 3, 3)), 0.0, P1)
    assert np.array_equal(tend, np.zeros_like(tend))


@pytest.mark.parametrize("full", [False, True], ids=["remainder", "full"])
@pytest.mark.parametrize("hx, hy", [(1.0, 1.0), (0.5, 2.0)], ids=["square", "0.5x2"])
def test_dense_quadrature_oracle_single_element(full, hx, hy):
    # phi' constant and strictly positive linear momenta keep every
    # integrand inside both quadratures' exactness ranges, so the two
    # assemblies must agree to roundoff.  A non-square element tells the
    # x and y scalings apart.
    p = 2
    basis = nodal_basis(p)
    mesh = build_structured(1, 1, (0.0, hx, 0.0, hy), WALL, WALL)

    def state_fn(x, y):
        x = np.asarray(x, dtype=float)
        return np.stack([np.full_like(x, 0.08), 2.0 + 0.35 * x, 1.5 + 0.2 * np.asarray(y)], axis=-1)

    field = nodal_field(mesh, basis, state_fn)
    op = ExplicitOperator(mesh, basis)
    tend = op.tendency(field.data, 0.0, P1, full=full)
    residual = tend[0] * mass_weights(basis, hx, hy)[:, :, None]
    expected = oracles.dense_dg_weak_residual(basis, hx, hy, state_fn, P1, n_quad=p + 2, full=full)
    assert np.max(np.abs(residual - expected)) < 1e-10


@pytest.mark.parametrize("bcs", [(WALL, WALL), (PERIODIC, PERIODIC)])
def test_discrete_mass_conservation(bcs):
    rng = np.random.default_rng(5)
    mesh = build_structured(4, 4, (0.0, 1.0, 0.0, 1.0), *bcs)
    basis = nodal_basis(2)
    op = ExplicitOperator(mesh, basis)
    field = _random_field(mesh, basis, rng)
    tend = op.tendency(field.data, 0.0, P1)
    total = np.einsum("jk,ejk->", mass_weights(basis, mesh.hx, mesh.hy), tend[..., 0])
    assert abs(total) < 1e-12


def test_local_support():
    mesh = build_structured(5, 5, (0.0, 1.0, 0.0, 1.0), WALL, WALL)
    basis = nodal_basis(2)
    op = ExplicitOperator(mesh, basis)
    rng = np.random.default_rng(8)
    field = _random_field(mesh, basis, rng)
    base = op.tendency(field.data, 0.0, P1)
    target = 12  # interior element of the 5x5 grid
    bumped = field.data.copy()
    bumped[target] += rng.uniform(-0.05, 0.05, size=bumped[target].shape)
    diff = np.max(np.abs(op.tendency(bumped, 0.0, P1) - base), axis=(1, 2, 3))
    # the elements that hold one of the target's faces, the target included
    neighbors = set(np.nonzero(np.isin(mesh.elem_faces, mesh.elem_faces[target]).any(axis=1))[0].tolist())
    assert len(neighbors) == 5
    touched = set(np.nonzero(diff > 0)[0].tolist())
    assert touched <= neighbors
    assert target in touched


def test_dry_state_reports_element():
    mesh = build_structured(2, 2, (0.0, 1.0, 0.0, 1.0), WALL, WALL)
    basis = nodal_basis(1)
    data = np.zeros((4, 2, 2, 3))
    data[3, 0, 0, 0] = -1.5
    op = ExplicitOperator(mesh, basis)
    with pytest.raises(DryStateError) as err:
        op.tendency(data, 0.0, P1)
    assert err.value.element == 3


def test_tendency_deterministic():
    mesh = build_structured(3, 2, (0.0, 1.0, 0.0, 1.0), PERIODIC, WALL)
    basis = nodal_basis(3)
    rng = np.random.default_rng(21)
    field = _random_field(mesh, basis, rng)
    op = ExplicitOperator(mesh, basis)
    a = op.tendency(field.data, 0.1, P1)
    b = op.tendency(field.data, 0.1, P1)
    assert a.tobytes() == b.tobytes()


ROTATING = ModelParams(phi_bar=1.2, f0=0.7, beta=0.3, drag=0.15)


def _extra_source(x, y, t):
    return np.stack([0.1 * np.sin(3.0 * x + t), 0.2 * np.cos(2.0 * y), 0.05 * x * y], axis=-1)


@pytest.mark.parametrize("full", [False, True], ids=["remainder", "full"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "nx, ny, bcs",
    [
        (4, 3, (WALL, WALL)),
        (4, 3, (PERIODIC, PERIODIC)),
        (4, 3, (PERIODIC, WALL)),
        (3, 4, (WALL, PERIODIC)),
        (1, 1, (PERIODIC, PERIODIC)),
        (2, 1, (PERIODIC, WALL)),
    ],
    ids=["wall-4x3", "periodic-4x3", "periodic-wall-4x3", "wall-periodic-3x4", "periodic-1x1", "periodic-wall-2x1"],
)
def test_tendency_matches_face_path_oracle(nx, ny, bcs, p, full):
    # The oracle evaluates the flux again on both traces of every face and
    # reflects a ghost on every face, with the face tables of the per-face
    # loop; the operator slices the face values out of the state and its
    # volume flux and reflects wall ghosts only.  On the 1x1 and 2x1 meshes
    # both x-neighbours of a cell are the same cell.
    mesh = build_structured(nx, ny, (0.0, 1.3, -0.2, 0.9), *bcs)
    basis = nodal_basis(p)
    rng = np.random.default_rng(100 * p + nx + 7 * ny)
    data = rng.uniform(-0.3, 0.3, size=(mesh.num_elements, basis.n, basis.n, 3))
    op = ExplicitOperator(mesh, basis)
    got = op.tendency(data, 0.4, ROTATING, extra_source=_extra_source, full=full)
    want = oracles.face_path_tendency(mesh, basis, data, 0.4, ROTATING, extra_source=_extra_source, full=full)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("full", [False, True], ids=["remainder", "full"])
@pytest.mark.parametrize("bcs", [(PERIODIC, PERIODIC), (PERIODIC, WALL), (WALL, WALL)])
def test_flux_evaluated_once_per_stage(monkeypatch, bcs, full):
    # One evaluation at the element nodes on every mesh: wall ghosts take
    # their normal flux from the inner side through the mirror.
    from swemix import swe

    name = "flux_full" if full else "flux_nonlinear"
    real = getattr(swe, name)
    shapes = []

    def counted(q, params):
        shapes.append(np.shape(q))
        return real(q, params)

    monkeypatch.setattr(swe, name, counted)
    mesh = build_structured(4, 3, (0.0, 1.0, 0.0, 1.0), *bcs)
    basis = nodal_basis(2)
    rng = np.random.default_rng(4)
    data = rng.uniform(-0.3, 0.3, size=(mesh.num_elements, basis.n, basis.n, 3))
    ExplicitOperator(mesh, basis).tendency(data, 0.0, P1, full=full)
    assert shapes == [(mesh.num_elements, basis.n * basis.n, 3)]


@pytest.mark.parametrize("bcs", [(PERIODIC, PERIODIC), (PERIODIC, WALL), (WALL, WALL)])
def test_rusanov_called_once_per_face_family(monkeypatch, bcs):
    # Each face family, x then y, goes through one call, through the module,
    # so that a hook on dg.rusanov_flux sees both.
    from swemix import dg

    real = dg.rusanov_flux
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(dg, "rusanov_flux", counted)
    mesh = build_structured(4, 3, (0.0, 1.0, 0.0, 1.0), *bcs)
    basis = nodal_basis(2)
    rng = np.random.default_rng(6)
    data = rng.uniform(-0.3, 0.3, size=(mesh.num_elements, basis.n, basis.n, 3))
    op = ExplicitOperator(mesh, basis)
    families = [(mesh.ny, mesh.nx + 1, basis.n, 3), (mesh.nx, mesh.ny + 1, basis.n, 3)]
    op.tendency(data, 0.0, P1)
    assert calls == families
    op.tendency(data, 0.0, P1, full=True)
    assert calls == 2 * families


def test_extra_source_gets_contiguous_node_coords():
    # The manufactured source's trig cache compares x and y by value on
    # every call, which is cheaper on contiguous arrays.
    mesh = build_structured(4, 3, (0.0, 1.3, -0.2, 0.9), PERIODIC, WALL)
    basis = nodal_basis(2)
    seen = []

    def source(x, y, t):
        seen.append((x, y))
        return np.zeros(np.shape(x) + (3,))

    op = ExplicitOperator(mesh, basis)
    op.tendency(np.zeros((mesh.num_elements, basis.n, basis.n, 3)), 0.0, P1, extra_source=source)
    (x, y), = seen
    xy = gll_node_coords(mesh, basis)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert np.array_equal(x, xy[..., 0]) and np.array_equal(y, xy[..., 1])


@pytest.mark.parametrize("params", [P1, ROTATING], ids=["no-source", "rotating"])
def test_source_called_once_per_tendency(monkeypatch, params):
    # Through the module, so that a hook on swe.source sees every call,
    # including those with nothing to add.
    from swemix import swe

    real = swe.source
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(swe, "source", counted)
    mesh = build_structured(4, 3, (0.0, 1.0, 0.0, 1.0), PERIODIC, WALL)
    basis = nodal_basis(2)
    rng = np.random.default_rng(5)
    data = rng.uniform(-0.3, 0.3, size=(mesh.num_elements, basis.n, basis.n, 3))
    op = ExplicitOperator(mesh, basis)
    op.tendency(data, 0.0, params, extra_source=_extra_source)
    assert calls == [data.shape]
    op.tendency(data, 0.1, params, full=True)
    assert len(calls) == 2
