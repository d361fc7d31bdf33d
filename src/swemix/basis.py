"""Gauss-Lobatto-Legendre nodal basis and tensor-product element operators.

One-dimensional GLL nodes and weights are generated by Newton iteration on
(1 - x^2) P'_p(x); no hard-coded tables.  The 2-D operators assume affine
rectangular elements mapped from the [-1, 1]^2 reference square, so the
Jacobian is constant and the collocation mass matrix is diagonal.

Node ordering convention for a (p+1) x (p+1) element: the flattened index is
``jy * (p+1) + ix`` (y-index outer, x-index inner).  Faces are ordered
south, east, north, west; face nodes run in the direction of increasing
global coordinate (x for south/north, y for east/west).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOrderError

MAX_ORDER = 8


def _legendre_pair(p, x):
    """Evaluate (P_{p-1}(x), P_p(x)) by the three-term recurrence."""
    pm, pk = np.ones_like(x), np.asarray(x, dtype=float).copy()
    for k in range(1, p):
        pm, pk = pk, ((2 * k + 1) * x * pk - k * pm) / (k + 1)
    return pm, pk


def gll(p):
    """GLL nodes and quadrature weights for polynomial degree p.

    The p+1 nodes are the roots of (1 - x^2) P'_p(x): the interval endpoints
    plus the extrema of the Legendre polynomial P_p.  Interior roots are
    found by Newton iteration from a Chebyshev-Lobatto initial guess, using
    the identities (1 - x^2) P'_p = p (P_{p-1} - x P_p) and
    d/dx [(1 - x^2) P'_p] = -p (p+1) P_p.  Weights use the closed form
    w_k = 2 / (p (p+1) P_p(x_k)^2).
    """
    if not (1 <= p <= MAX_ORDER):
        raise UnsupportedOrderError(f"polynomial degree must be in [1, {MAX_ORDER}], got {p}")
    nodes = -np.cos(np.pi * np.arange(p + 1) / p)
    if p > 1:
        x = nodes[1:-1]
        for _ in range(100):
            pm, pk = _legendre_pair(p, x)
            dx = (pm - x * pk) / ((p + 1) * pk)
            x = x + dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        nodes[1:-1] = x
    nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact symmetry
    nodes[0], nodes[-1] = -1.0, 1.0
    _, pk = _legendre_pair(p, nodes)
    weights = 2.0 / (p * (p + 1) * pk**2)
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def diff_matrix(nodes):
    """Nodal differentiation matrix D[i, j] = l'_j(x_i) via barycentric weights.

    Diagonal entries use the negative-sum trick, so rows sum to zero exactly.
    """
    x = np.asarray(nodes, dtype=float)
    n = x.size
    b = np.ones(n)
    for i in range(n):
        b[i] = 1.0 / np.prod(np.delete(x[i] - x, i))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (b[j] / b[i]) / (x[i] - x[j])
        d[i, i] = -np.sum(d[i, :])
    return d


@dataclass(frozen=True)
class NodalBasis:
    """1-D GLL basis of degree ``order`` with differentiation matrix ``D``."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray

    @property
    def n(self):
        return self.order + 1


def nodal_basis(p):
    nodes, weights = gll(p)
    return NodalBasis(order=p, nodes=nodes, weights=weights, D=diff_matrix(nodes))


@dataclass(frozen=True)
class ElementOperators:
    """Discrete operators for one affine rectangular element.

    mass_diag
        Diagonal of the collocation mass matrix, flattened (jy, ix) order.
    weak_dx, weak_dy
        Matrices evaluating the weak derivative integrals
        ``(weak_dx f)[test] = integral of f * d(test)/dx`` under GLL
        quadrature on the physical element.
    face_nodes
        The (4, p+1) flat node index of each face node, sides and nodes
        ordered as in the module docstring.
    face_lift
        Four (nodes x p+1) matrices (south, east, north, west) mapping face
        nodal values g to boundary integrals ``integral_face g * test``,
        including the face Jacobian.
    face_weights
        Four length-(p+1) face quadrature weight vectors (GLL weight times
        face Jacobian), matching the face_lift scaling.
    """

    mass_diag: np.ndarray
    weak_dx: np.ndarray
    weak_dy: np.ndarray
    face_nodes: np.ndarray
    face_lift: tuple
    face_weights: tuple


def mass_weights(basis, hx, hy):
    """GLL quadrature weights of an hx-by-hy element, shape (p+1, p+1) in
    (jy, ix) order: the diagonal of the collocation mass matrix."""
    w = basis.weights
    return 0.25 * hx * hy * np.outer(w, w)


def element_operators(basis, hx, hy):
    """Assemble mass, weak-derivative, and face-lift operators for an
    hx-by-hy rectangle."""
    if hx <= 0.0 or hy <= 0.0:
        raise InvalidArgumentError(f"degenerate element: hx={hx}, hy={hy}")
    w, d = basis.weights, basis.D
    n1 = basis.n

    wd = d.T * w[None, :]  # wd[m, i] = w_i * D[i, m]
    weak_dx = np.kron(np.diag(w) * (0.5 * hy), wd)
    weak_dy = np.kron(wd * (0.5 * hx), np.diag(w))

    k = np.arange(n1)
    nodes = np.array([k, k * n1 + (n1 - 1), (n1 - 1) * n1 + k, k * n1])
    lifts = []
    fweights = []
    for side in range(4):
        horizontal = side in (0, 2)  # south/north carry x-running nodes
        fweight = 0.5 * (hx if horizontal else hy) * w
        lift = np.zeros((n1 * n1, n1))
        lift[nodes[side], k] = fweight
        lifts.append(lift)
        fweights.append(fweight)
    return ElementOperators(
        mass_diag=mass_weights(basis, hx, hy).reshape(-1),
        weak_dx=weak_dx,
        weak_dy=weak_dy,
        face_nodes=nodes,
        face_lift=tuple(lifts),
        face_weights=tuple(fweights),
    )
