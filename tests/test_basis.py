import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swemix.basis import diff_matrix, element_operators, gll, nodal_basis
from swemix.errors import InvalidArgumentError, UnsupportedOrderError
from swemix.mesh import SIDE_NORMALS


def test_gll_p1_endpoints():
    nodes, weights = gll(1)
    assert np.array_equal(nodes, [-1.0, 1.0])
    assert np.array_equal(weights, [1.0, 1.0])


def test_gll_p2_exactness_solution():
    # Solving the exactness conditions for degree <= 3 monomials by hand
    # gives the midpoint node and 1/3, 4/3, 1/3 weights.
    nodes, weights = gll(2)
    assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_gll_p3_known_roots():
    nodes, weights = gll(3)
    r = 1.0 / np.sqrt(5.0)
    assert np.allclose(nodes, [-1.0, -r, r, 1.0], atol=1e-15)
    assert np.allclose(weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0], atol=1e-15)


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_invariants(p):
    nodes, weights = gll(p)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert np.allclose(nodes, -nodes[::-1], atol=0)  # exactly symmetric
    assert abs(np.sum(weights) - 2.0) < 1e-13
    assert np.all(weights > 0)


@pytest.mark.parametrize("p", range(1, 9))
def test_gll_quadrature_exact_to_2p_minus_1(p):
    # Monomial oracle: integral of x^k over [-1, 1] is 0 (odd) or 2/(k+1).
    nodes, weights = gll(p)
    for k in range(2 * p):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.dot(weights, nodes**k) - exact) < 1e-13, k


def test_gll_rejects_unsupported_orders():
    with pytest.raises(UnsupportedOrderError):
        gll(0)
    with pytest.raises(UnsupportedOrderError):
        gll(9)


def test_diff_matrix_p1_analytic():
    # Differentiating the two linear Lagrange polynomials by hand.
    d = diff_matrix(np.array([-1.0, 1.0]))
    assert np.allclose(d, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("p", range(1, 9))
def test_diff_matrix_rows_annihilate_constants(p):
    b = nodal_basis(p)
    assert np.max(np.abs(b.D @ np.ones(p + 1))) < 1e-13


@pytest.mark.parametrize("p", range(1, 9))
def test_diff_matrix_exact_on_polynomials(p):
    b = nodal_basis(p)
    for k in range(1, p + 1):
        expected = k * b.nodes ** (k - 1)
        assert np.max(np.abs(b.D @ b.nodes**k - expected)) < 1e-12, k


@given(st.integers(1, 6), st.lists(st.floats(-2, 2), min_size=1, max_size=7))
@settings(max_examples=30)
def test_summation_by_parts(p, coeffs):
    # integral(u' v) + integral(u v') = boundary values of u*v, for u of the
    # drawn degree and v of full degree p.
    b = nodal_basis(p)
    uc = np.array(coeffs[: p + 1])
    u = np.polynomial.polynomial.polyval(b.nodes, uc)
    v = b.nodes**p
    lhs = np.dot(b.weights, (b.D @ u) * v) + np.dot(b.weights, u * (b.D @ v))
    rhs = u[-1] * v[-1] - u[0] * v[0]
    assert abs(lhs - rhs) < 1e-12


def test_element_operators_p1_mass():
    # [0,1]^2 mapped from the reference square: jacobian 1/4, unit GLL weights.
    ops = element_operators(nodal_basis(1), 1.0, 1.0)
    assert np.allclose(ops.mass_diag, 0.25 * np.ones(4), atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_lift_is_a_scalar_at_face_nodes(p):
    # On an affine GLL element M^-1 LIFT is 2 / (h w_0) at each face node,
    # h the width across the face, and zero off the face nodes: the
    # explicit DG operator lifts its face fluxes by that scalar.
    basis = nodal_basis(p)
    hx, hy = 0.7, 1.9
    ops = element_operators(basis, hx, hy)
    k = np.arange(basis.n)
    for side in range(4):
        h = hx if SIDE_NORMALS[side, 0] != 0.0 else hy
        lifted = ops.face_lift[side] / ops.mass_diag[:, None]
        on_face = np.zeros(lifted.shape, dtype=bool)
        on_face[ops.face_nodes[side], k] = True
        assert np.allclose(lifted[on_face], 2.0 / (h * basis.weights[0]), rtol=1e-14, atol=0.0)
        assert np.all(lifted[~on_face] == 0.0)


def test_element_operators_rejects_degenerate():
    with pytest.raises(InvalidArgumentError):
        element_operators(nodal_basis(2), 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        element_operators(nodal_basis(2), 1.0, -2.0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_discrete_divergence_theorem_for_constants(p):
    # For constant f, the volume weak-derivative integral must equal the
    # boundary lift of f*n summed over sides, in each direction.
    basis = nodal_basis(p)
    ops = element_operators(basis, 0.7, 1.3)
    n1 = basis.n
    f = 2.371 * np.ones(n1 * n1)
    face_f = 2.371 * np.ones(n1)
    for direction, weak in ((0, ops.weak_dx), (1, ops.weak_dy)):
        boundary = np.zeros(n1 * n1)
        for side in range(4):
            boundary += SIDE_NORMALS[side][direction] * (ops.face_lift[side] @ face_f)
        assert np.max(np.abs(weak @ f - boundary)) < 1e-13


def test_weak_derivative_with_lift_is_exact_on_p2():
    # (surface lift of f n_x - weak_dx f) / mass reproduces df/dx for f = x^2
    # at every node of a p=2 element on [0,1]^2.
    basis = nodal_basis(2)
    ops = element_operators(basis, 1.0, 1.0)
    n1 = basis.n
    x = np.tile(0.5 * (basis.nodes + 1.0), (n1, 1)).reshape(-1)  # (jy, ix) flat
    f = x**2
    total = -(ops.weak_dx @ f)
    for side in range(4):
        nx = SIDE_NORMALS[side][0]
        if nx == 0.0:
            continue
        idx = [k * n1 + (n1 - 1 if nx > 0 else 0) for k in range(n1)]
        total += nx * (ops.face_lift[side] @ f[idx])
    assert np.max(np.abs(total / ops.mass_diag - 2.0 * x)) < 1e-13


def test_mass_diag_strictly_positive():
    for p in (1, 3, 5, 8):
        ops = element_operators(nodal_basis(p), 0.2, 0.9)
        assert np.all(ops.mass_diag > 0)
