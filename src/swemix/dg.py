"""Explicit nodal DG residual for the nonlinear remainder of the system.

The semi-discrete tendency of one element is the matrix form of nodal DG

    dq/dt = M^-1 [ Wx Fx + Wy Fy  -  LIFT fhat ] + S

with the weak-derivative and diagonal mass matrices of
:func:`swemix.basis.element_operators`, which the implicit HDG solve also
uses, and Rusanov interface fluxes fhat.  M is diagonal, so M^-1 is
folded into the rows of the volume operator once, at construction.  On
an affine GLL element LIFT touches only the face nodes, where M^-1 LIFT
is the scalar 2 / (h w_0), h the element's width across the face
(Hesthaven & Warburton, Nodal DG Methods, sec. 6.1): each face flux is
scaled once and added to the end node columns or rows of its two cells.
The source S (Coriolis and drag) is added into the tendency in place.
By default the flux is the nonlinear remainder and the Rusanov speed is
purely advective: the gravity-wave speed is excluded because the fast
wave is handled by the implicit operator.  The ``full`` flux is the
complete one with the standard speed |u.n| + sqrt(phi); it exists for
explicit control runs that demonstrate the time-step restriction the
splitting removes.

The flux is evaluated once per stage, at the element nodes.  The volume
term uses it whole; the face path reads the state and the flux as
(ny, nx, p+1, p+1, ...) grids, so every trace is a slice.  Along each
axis, face k of a line of n cells lies between cells k-1 and k, with
normal +x or +y: its minus side is the east node column (or north row)
of cell k-1, its plus side the west column (or south row) of cell k.
Each line has n+1 faces.  On a periodic axis both end faces are the
wrapped face between cells n-1 and 0.  On a wall an end face sees its
inner side in a mirror R that negates the normal momentum: the ghost
state is R q, and since every wall is axis-aligned, F(R q).n =
-R (F(q).n) exactly, so the ghost's normal flux is a sign flip of one
the stage already holds.  Each face family goes through its own Rusanov
call, x then y, and is lifted into its two cells in that fixed order, so
results are deterministic.  A dry state is located by element only once
the flux evaluation has raised.
"""

from dataclasses import dataclass

import numpy as np

from . import swe
from .basis import element_operators
from .errors import DryStateError
from .mesh import PERIODIC, gll_node_coords


@dataclass
class StateField:
    """Nodal coefficients of (phi', U, V) on every element.

    ``data`` has shape (num_elements, p+1, p+1, 3) with axes
    (element, y node, x node, component).  Supports the small amount of
    linear algebra the time stepper needs; += and *= update ``data`` in
    place.
    """

    data: np.ndarray
    mesh: object
    basis: object

    def __add__(self, other):
        return StateField(self.data + other.data, self.mesh, self.basis)

    def __sub__(self, other):
        return StateField(self.data - other.data, self.mesh, self.basis)

    def __mul__(self, scalar):
        return StateField(self.data * scalar, self.mesh, self.basis)

    __rmul__ = __mul__

    def __iadd__(self, other):
        self.data += other.data
        return self

    def __imul__(self, scalar):
        self.data *= scalar
        return self

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
    xy = gll_node_coords(mesh, basis)
    return StateField(np.asarray(fn(xy[..., 0], xy[..., 1]), dtype=float), mesh, basis)


def rusanov_flux(q_minus, q_plus, fn_minus, fn_plus, axis, params, full=False):
    """Rusanov flux through faces whose unit normal is +x (``axis`` 0) or
    +y (``axis`` 1), pointing from the minus side to the plus side.

    ``fn_minus`` and ``fn_plus`` are the normal fluxes F(q).n of the two
    states, so u.n is the momentum along ``axis`` over phi.  By default F
    is the nonlinear remainder, penalized with the advective speed
    max|u.n| only; ``full`` takes the complete flux and the full wave
    speed |u.n| + sqrt(phi).  Raises DryStateError if either side has a
    non-positive geopotential.
    """
    q_minus = np.asarray(q_minus, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    fn_minus = np.asarray(fn_minus, dtype=float)
    phi_minus = params.phi_bar + q_minus[..., swe.PHI]
    phi_plus = params.phi_bar + q_plus[..., swe.PHI]
    if np.any(phi_minus <= 0.0) or np.any(phi_plus <= 0.0):
        low = min(np.min(phi_minus), np.min(phi_plus))
        raise DryStateError(f"non-positive geopotential on a face (min {low:.3e})")
    un_minus = q_minus[..., swe.MX + axis] / phi_minus
    un_plus = q_plus[..., swe.MX + axis] / phi_plus
    smax = np.maximum(np.abs(un_minus), np.abs(un_plus))
    if full:
        smax = smax + np.sqrt(np.maximum(phi_minus, phi_plus))
    jump = q_plus - q_minus
    for c in range(jump.shape[-1]):  # one pass per component, not 3-value inner loops
        jump[..., c] *= smax
    return 0.5 * (fn_minus + fn_plus - jump)


def _dry_element_error(data, params):
    """The DryStateError naming the first element with a non-positive
    geopotential; called only after a flux evaluation has found one."""
    phi = params.phi_bar + data[..., swe.PHI]
    bad = int(np.argwhere(np.min(phi, axis=(1, 2)) <= 0.0)[0, 0])
    return DryStateError(
        f"non-positive geopotential in element {bad} (min {np.min(phi):.3e})",
        element=bad,
    )


def _ends(a, axis):
    """The low and high end traces of every cell along ``axis`` (0 = x,
    1 = y) of an (ny, nx, p+1, p+1, ...) nodal array: the west and east
    node columns, or the south and north node rows.  Each is a view of
    shape (lines, cells, p+1, ...), with the cells along ``axis`` on axis 1."""
    if axis == 0:
        return a[:, :, :, 0], a[:, :, :, -1]
    a = a.swapaxes(0, 1)
    return a[:, :, 0], a[:, :, -1]


def _fill_faces(minus, plus, lo, hi, mirror):
    """Fill the minus and plus traces, (lines, cells + 1, p+1, 3), of the
    faces along a line of cells from the cells' ``lo`` and ``hi`` end traces.

    Face k lies between cells k-1 and k.  The two end faces are the wrapped
    face seen twice on a periodic axis (``mirror`` None), or on a wall the
    end cell's trace times ``mirror``, which forms the reflected ghost.
    """
    minus[:, 1:] = hi
    plus[:, :-1] = lo
    if mirror is None:
        minus[:, 0] = hi[:, -1]
        plus[:, -1] = lo[:, 0]
    else:
        np.multiply(lo[:, 0], mirror, out=minus[:, 0])
        np.multiply(hi[:, -1], mirror, out=plus[:, -1])


class ExplicitOperator:
    """Element operators and face layout for tendency evaluation.

    Construction is cheap; reuse one instance across a time march to avoid
    rebuilding them every stage.
    """

    def __init__(self, mesh, basis):
        self.mesh = mesh
        self.basis = basis
        ops = element_operators(basis, mesh.hx, mesh.hy)
        # The flux tensor read as (e, 2 * nodes, 3) interleaves x and y per
        # node; the volume matrix interleaves weak_dx and weak_dy to match,
        # and carries the inverse of the diagonal mass in its rows.
        nodes = basis.n * basis.n
        weak = np.stack([ops.weak_dx, ops.weak_dy], axis=2).reshape(nodes, 2 * nodes)
        self.weak = weak / ops.mass_diag[:, None]
        self.node_xy = gll_node_coords(mesh, basis)

        # One face family per axis: its (lines, cells + 1) face grid, its
        # wall mirror (-1 on the normal momentum) and its lift.
        self.families = []
        for axis, periodic, h, lines, cells in (
            (0, mesh.bc_x == PERIODIC, mesh.hx, mesh.ny, mesh.nx),
            (1, mesh.bc_y == PERIODIC, mesh.hy, mesh.nx, mesh.ny),
        ):
            mirror = None if periodic else np.where(np.arange(3) == swe.MX + axis, -1.0, 1.0)
            self.families.append(((lines, cells + 1), mirror, 2.0 / (h * basis.weights[0])))

    def tendency(self, data, t, params, extra_source=None, full=False):
        """Semi-discrete tendency for nodal data (nelem, p+1, p+1, 3);
        ``full`` selects the complete flux as in :func:`rusanov_flux`."""
        nelem, n1 = data.shape[0], self.basis.n
        flux_fn = swe.flux_full if full else swe.flux_nonlinear
        try:
            flux = flux_fn(data.reshape(nelem, n1 * n1, 3), params)
        except DryStateError as exc:
            raise _dry_element_error(data, params) from exc

        resid = self.weak @ flux.reshape(nelem, -1, 3)
        grid = (self.mesh.ny, self.mesh.nx, n1, n1)
        q, flux = data.reshape(grid + (3,)), flux.reshape(grid + (2, 3))
        out = resid.reshape(data.shape)
        lifted = out.reshape(grid + (3,))
        for axis, (shape, mirror, lift) in enumerate(self.families):
            # Both sides' states and normal fluxes at every face: q-, q+, F.n-, F.n+.
            q_m, q_p, fn_m, fn_p = np.empty((4,) + shape + (n1, 3))
            _fill_faces(q_m, q_p, *_ends(q, axis), mirror)
            _fill_faces(fn_m, fn_p, *_ends(flux[..., axis, :], axis), None if mirror is None else -mirror)
            face_flux = rusanov_flux(q_m, q_p, fn_m, fn_p, axis, params, full)
            face_flux *= lift
            # A cell's low end face flows in, its high end face out.  Summing
            # with the x cells innermost beats the 3-value inner loops of a
            # node column.
            x_last = (0, 2, 3, 1) if axis == 0 else (1, 2, 3, 0)
            lo, hi = (end.transpose(x_last) for end in _ends(lifted, axis))
            np.add(lo, face_flux[:, :-1].transpose(x_last), out=lo, order="C")
            np.subtract(hi, face_flux[:, 1:].transpose(x_last), out=hi, order="C")
        del flux  # freed before the source terms allocate theirs

        x, y = self.node_xy[..., 0], self.node_xy[..., 1]
        swe.source(data, y, params, out=out)
        if extra_source is not None:
            out += extra_source(x, y, t)
        return out
