"""Explicit nodal DG residual for the nonlinear remainder of the system.

The semi-discrete tendency of one element is the matrix form of nodal DG

    dq/dt = M^-1 [ Wx Fx + Wy Fy  -  LIFT fhat ] + S

with the weak-derivative, face-lift and diagonal mass matrices of
:func:`swemix.basis.element_operators`, which the implicit HDG solve also
uses, and Rusanov interface fluxes fhat.  M is diagonal, so M^-1 is
folded into the rows of the volume and lift operators once, at
construction, and the source S (Coriolis and drag) is added into the
tendency in place.  By default the flux is the nonlinear remainder and
the Rusanov speed is purely advective: the gravity-wave speed is
excluded because the fast wave is handled by the implicit operator.
The ``full`` flux is the complete one with the standard speed
|u.n| + sqrt(phi); it exists for explicit control runs that demonstrate
the time-step restriction the splitting removes.

The flux is evaluated once per stage, at the element nodes.  The volume
term uses it whole, and the Rusanov flux reads both sides' normal fluxes
F.n at the face nodes from it.  A wall face is its inner side seen in a
mirror R that negates the normal momentum: the ghost state is R q, and
since every wall is axis-aligned, F(R q).n = -R (F(q).n) exactly, so the
ghost's normal flux is a sign flip of one the stage already holds.
Periodic faces read the wrapped neighbor through the shared face.  Face
contributions are computed in one pass over the fixed face ordering and
gathered back per element side, so results are deterministic.  A dry
state is located by element only once the flux evaluation has raised.
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

    @property
    def phi_prime(self):
        return self.data[..., swe.PHI]

    @property
    def momentum_x(self):
        return self.data[..., swe.MX]

    @property
    def momentum_y(self):
        return self.data[..., swe.MY]


def nodal_field(mesh, basis, fn):
    """Sample ``fn(x, y)`` at all element nodes."""
    from .mesh import gll_node_coords

    xy = gll_node_coords(mesh, basis)
    return StateField(np.asarray(fn(xy[..., 0], xy[..., 1]), dtype=float), mesh, basis)


def rusanov_flux(q_minus, q_plus, fn_minus, fn_plus, normal, params, full=False):
    """Rusanov flux through a face with unit normal pointing from minus to plus.

    ``fn_minus`` and ``fn_plus`` are the normal fluxes F(q).n of the two
    states, both dotted with ``normal``.  By default F is the nonlinear
    remainder, penalized with the advective speed max|u.n| only; ``full``
    takes the complete flux and the full wave speed |u.n| + sqrt(phi).
    Raises DryStateError if either side has a non-positive geopotential.
    """
    q_minus = np.asarray(q_minus, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    fn_minus = np.asarray(fn_minus, dtype=float)
    normal = np.asarray(normal, dtype=float)
    phi_minus = params.phi_bar + q_minus[..., swe.PHI]
    phi_plus = params.phi_bar + q_plus[..., swe.PHI]
    if np.any(phi_minus <= 0.0) or np.any(phi_plus <= 0.0):
        low = min(np.min(phi_minus), np.min(phi_plus))
        raise DryStateError(f"non-positive geopotential on a face (min {low:.3e})")
    un_minus = (q_minus[..., swe.MX] * normal[..., 0] + q_minus[..., swe.MY] * normal[..., 1]) / phi_minus
    un_plus = (q_plus[..., swe.MX] * normal[..., 0] + q_plus[..., swe.MY] * normal[..., 1]) / phi_plus
    smax = np.maximum(np.abs(un_minus), np.abs(un_plus))
    if full:
        smax = smax + np.sqrt(np.maximum(phi_minus, phi_plus))
    return 0.5 * (fn_minus + fn_plus) - 0.5 * smax[..., None] * (q_plus - q_minus)


def _dry_element_error(data, params):
    """The DryStateError naming the first element with a non-positive
    geopotential; called only after a flux evaluation has found one."""
    phi = params.phi_bar + data[..., swe.PHI]
    bad = int(np.argwhere(np.min(phi, axis=(1, 2)) <= 0.0)[0, 0])
    return DryStateError(
        f"non-positive geopotential in element {bad} (min {np.min(phi):.3e})",
        element=bad,
    )


class ExplicitOperator:
    """Connectivity and element operators for tendency evaluation.

    Construction is cheap; reuse one instance across a time march to avoid
    rebuilding index arrays every stage.
    """

    def __init__(self, mesh, basis):
        from .mesh import SIDE_NORMALS, gll_node_coords

        self.mesh = mesh
        self.basis = basis
        self.ops = element_operators(basis, mesh.hx, mesh.hy)
        # The flux tensor read as (e, 2 * nodes, 3) interleaves x and y per
        # node; the volume matrix interleaves weak_dx and weak_dy to match.
        # Both operators carry the inverse of the diagonal mass in their rows.
        nodes = basis.n * basis.n
        mass = self.ops.mass_diag[:, None]
        weak = np.stack([self.ops.weak_dx, self.ops.weak_dy], axis=2).reshape(nodes, 2 * nodes)
        self.weak = weak / mass
        self.lift = np.hstack(self.ops.face_lift) / mass  # (nodes, side-major face nodes)
        self.node_xy = gll_node_coords(mesh, basis)

        # Every side is axis-aligned, so its outward normal flux is one
        # flux axis, signed: rows of the (e, 2 * nodes, 3) flux.
        axis = np.argmax(np.abs(SIDE_NORMALS), axis=1)
        self.side_flux_rows = (2 * self.ops.face_nodes + axis[:, None]).ravel()
        self.side_sign = np.repeat(SIDE_NORMALS[np.arange(4), axis], basis.n)[:, None]

        # Faces address element sides as 4 * element + side.  A wall face
        # reads its own minus side as the plus side until the reflection.
        left, right = mesh.face_left, mesh.face_right
        self.minus = 4 * left[:, 0] + left[:, 1]
        self.plus = np.where(right[:, 0] >= 0, 4 * right[:, 0] + right[:, 1], self.minus)
        self.wall = np.nonzero(right[:, 0] < 0)[0]
        self.normals = mesh.face_normal[:, None, :]
        # The wall mirror: -1 on the momentum along the normal, +1 elsewhere.
        self.mirror = np.insert(1.0 - 2.0 * np.abs(self.normals[self.wall]), swe.PHI, 1.0, axis=-1)
        # Each element side's face, and +1 or -1 to turn the face flux outward.
        self.side_face = mesh.elem_faces.reshape(-1)
        outward = self.minus[self.side_face] == np.arange(self.side_face.size)
        self.side_face_sign = np.where(outward, 1.0, -1.0)[:, None, None]

    def tendency(self, data, t, params, extra_source=None, full=False):
        """Semi-discrete tendency for nodal data (nelem, p+1, p+1, 3);
        ``full`` selects the complete flux as in :func:`rusanov_flux`."""
        nelem, n1 = data.shape[0], self.basis.n
        flat = data.reshape(nelem, n1 * n1, 3)
        flux_fn = swe.flux_full if full else swe.flux_nonlinear
        try:
            flux = flux_fn(flat, params).reshape(nelem, -1, 3)
        except DryStateError as exc:
            raise _dry_element_error(data, params) from exc

        resid = self.weak @ flux
        # The outward normal flux F.n at every element side's nodes, read
        # from the volume flux: (nelem, 4, p+1, 3) stored as (nelem, 4 (p+1), 3).
        normal_flux = np.take(flux, self.side_flux_rows, axis=1)
        del flux  # only the side values are needed from here on
        normal_flux *= self.side_sign
        resid -= self.lift @ self._side_fluxes(flat, normal_flux, params, full)

        out = resid.reshape(data.shape)
        x, y = self.node_xy[..., 0], self.node_xy[..., 1]
        swe.source(data, y, params, out=out)
        if extra_source is not None:
            out += extra_source(x, y, t)
        return out

    def _side_fluxes(self, flat, normal_flux, params, full):
        """Rusanov flux out of every element side, (nelem, 4 (p+1), 3).

        Both sides' states and normal fluxes come from the elements.  On a
        wall face the plus side reads the inner side, and the mirror turns
        its state and its normal flux into the reflected ghost's.
        """
        n1 = self.basis.n
        traces = np.take(flat, self.ops.face_nodes.ravel(), axis=1).reshape(-1, n1, 3)
        normal_flux = normal_flux.reshape(-1, n1, 3)
        q_minus, q_plus = traces[self.minus], traces[self.plus]
        fn_minus, fn_plus = normal_flux[self.minus], normal_flux[self.plus]
        np.negative(fn_plus, out=fn_plus)  # the plus side's outward normal is -n
        q_plus[self.wall] *= self.mirror
        fn_plus[self.wall] *= self.mirror

        fhat = rusanov_flux(q_minus, q_plus, fn_minus, fn_plus, self.normals, params, full)
        side_flux = fhat[self.side_face]
        side_flux *= self.side_face_sign
        return side_flux.reshape(flat.shape[0], -1, 3)
