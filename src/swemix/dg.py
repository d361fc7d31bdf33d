"""Explicit nodal DG residual for the nonlinear remainder of the system.

The semi-discrete tendency of one element is the matrix form of nodal DG

    dq/dt = M^-1 [ Wx Fx + Wy Fy  -  LIFT fhat ] + S

with the weak-derivative, face-lift and diagonal mass matrices of
:func:`swemix.basis.element_operators`, which the implicit HDG solve also
uses, and Rusanov interface fluxes fhat.  By default the flux is the
nonlinear remainder and the Rusanov speed is purely advective: the
gravity-wave speed is excluded because the fast wave is handled by the
implicit operator.  The ``full`` flux is the complete one with the
standard speed |u.n| + sqrt(phi); it exists for explicit control runs
that demonstrate the time-step restriction the splitting removes.

Wall faces use a reflected ghost state (normal momentum negated, the rest
copied); periodic faces read the wrapped neighbor through the shared face.
Face contributions are computed in one pass over the fixed face ordering
and scattered back per element, so results are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from . import swe
from .basis import element_operators
from .errors import DryStateError


@dataclass
class StateField:
    """Nodal coefficients of (phi', U, V) on every element.

    ``data`` has shape (num_elements, p+1, p+1, 3) with axes
    (element, y node, x node, component).  Supports the small amount of
    linear algebra the time stepper needs.
    """

    data: np.ndarray
    mesh: object
    basis: object

    def copy(self):
        return StateField(self.data.copy(), self.mesh, self.basis)

    def zeros_like(self):
        return StateField(np.zeros_like(self.data), self.mesh, self.basis)

    def __add__(self, other):
        return StateField(self.data + other.data, self.mesh, self.basis)

    def __sub__(self, other):
        return StateField(self.data - other.data, self.mesh, self.basis)

    def __mul__(self, scalar):
        return StateField(self.data * scalar, self.mesh, self.basis)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return StateField(self.data / scalar, self.mesh, self.basis)

    @property
    def phi_prime(self):
        return self.data[..., swe.PHI]

    @property
    def momentum_x(self):
        return self.data[..., swe.MX]

    @property
    def momentum_y(self):
        return self.data[..., swe.MY]


def nodal_field(mesh, basis, fn, t=None):
    """Sample ``fn(x, y)`` (or ``fn(x, y, t)``) at all element nodes."""
    from .mesh import gll_node_coords

    xy = gll_node_coords(mesh, basis)
    x, y = xy[..., 0], xy[..., 1]
    values = fn(x, y) if t is None else fn(x, y, t)
    return StateField(np.asarray(values, dtype=float), mesh, basis)


def rusanov_flux(q_minus, q_plus, normal, params, full=False):
    """Rusanov flux through a face with unit normal pointing from minus to plus.

    By default the flux is the nonlinear remainder, penalized with the
    advective speed max|u.n| only; ``full`` takes the complete flux and
    the full wave speed |u.n| + sqrt(phi).
    """
    q_minus = np.asarray(q_minus, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    normal = np.asarray(normal, dtype=float)
    flux_fn = swe.flux_full if full else swe.flux_nonlinear
    f_minus = flux_fn(q_minus, params)
    f_plus = flux_fn(q_plus, params)
    normal_flux = 0.5 * np.einsum("...dc,...d->...c", f_minus + f_plus, normal)

    phi_minus = params.phi_bar + q_minus[..., swe.PHI]
    phi_plus = params.phi_bar + q_plus[..., swe.PHI]
    un_minus = (q_minus[..., swe.MX] * normal[..., 0] + q_minus[..., swe.MY] * normal[..., 1]) / phi_minus
    un_plus = (q_plus[..., swe.MX] * normal[..., 0] + q_plus[..., swe.MY] * normal[..., 1]) / phi_plus
    smax = np.maximum(np.abs(un_minus), np.abs(un_plus))
    if full:
        smax = smax + np.sqrt(np.maximum(phi_minus, phi_plus))
    return normal_flux - 0.5 * smax[..., None] * (q_plus - q_minus)


def _check_wet(data, params):
    phi = params.phi_bar + data[..., swe.PHI]
    if np.any(phi <= 0.0):
        bad = int(np.argwhere(np.min(phi, axis=(1, 2)) <= 0.0)[0, 0])
        raise DryStateError(
            f"non-positive geopotential in element {bad} (min {np.min(phi):.3e})",
            element=bad,
        )


class ExplicitOperator:
    """Connectivity and element operators for tendency evaluation.

    Construction is cheap; reuse one instance across a time march to avoid
    rebuilding index arrays every stage.
    """

    def __init__(self, mesh, basis):
        from .mesh import gll_node_coords

        self.mesh = mesh
        self.basis = basis
        self.ops = element_operators(basis, mesh.hx, mesh.hy)
        self.mass2d = self.ops.mass_diag.reshape(basis.n, basis.n)  # (jy, ix)
        self.lift = np.hstack(self.ops.face_lift)  # (nodes, side-major face nodes)
        self.node_xy = gll_node_coords(mesh, basis)

        self.left_elem = mesh.face_left[:, 0]
        self.left_side = mesh.face_left[:, 1]
        self.right_elem = mesh.face_right[:, 0]
        self.right_side = mesh.face_right[:, 1]
        self.interior = np.nonzero(self.right_elem >= 0)[0]  # interior face ids
        self.normals = mesh.face_normal

    def tendency(self, data, t, params, extra_source=None, full=False):
        """Semi-discrete tendency for nodal data (nelem, p+1, p+1, 3);
        ``full`` selects the complete flux as in :func:`rusanov_flux`."""
        _check_wet(data, params)
        ops = self.ops
        nelem, n1 = data.shape[0], self.basis.n
        flat = data.reshape(nelem, n1 * n1, 3)
        flux_fn = swe.flux_full if full else swe.flux_nonlinear

        flux = flux_fn(flat, params)  # (e, node, 2, 3)
        resid = ops.weak_dx @ flux[..., 0, :] + ops.weak_dy @ flux[..., 1, :]

        traces = flat[:, ops.face_nodes]  # (e, side, face node, 3)
        q_left = traces[self.left_elem, self.left_side]  # (nface, p+1, 3)
        q_right = q_left.copy()
        normals = self.normals[:, None, :]
        # Wall ghost: reflect the normal momentum.
        un = q_left[..., swe.MX] * normals[..., 0] + q_left[..., swe.MY] * normals[..., 1]
        q_right[..., swe.MX] -= 2.0 * un * normals[..., 0]
        q_right[..., swe.MY] -= 2.0 * un * normals[..., 1]
        ids = self.interior
        q_right[ids] = traces[self.right_elem[ids], self.right_side[ids]]

        fhat = rusanov_flux(q_left, q_right, normals, params, full)
        side_flux = np.zeros((nelem, 4, n1, 3))
        side_flux[self.left_elem, self.left_side] = fhat
        side_flux[self.right_elem[ids], self.right_side[ids]] = -fhat[ids]
        resid -= self.lift @ side_flux.reshape(nelem, 4 * n1, 3)

        out = (resid / ops.mass_diag[:, None]).reshape(data.shape)
        x, y = self.node_xy[..., 0], self.node_xy[..., 1]
        out += swe.source(data, x, y, t, params)
        if extra_source is not None:
            out += extra_source(x, y, t)
        return out
