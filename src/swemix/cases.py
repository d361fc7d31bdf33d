"""Canonical test problems: rest state, linear standing wave, manufactured
nonlinear solution.  Each case bundles its domain, boundary kinds, physics,
initial data and exact solution, and, where it needs one, an injected source.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import mass_weights
from .errors import InvalidArgumentError
from .mesh import PERIODIC, WALL, gll_node_coords
from .swe import ModelParams


@dataclass(frozen=True)
class TestCase:
    name: str
    bounds: tuple  # (xmin, xmax, ymin, ymax)
    bc_x: str
    bc_y: str
    initial_state: Callable  # (x, y) -> (..., 3)
    exact_solution: Callable  # (x, y, t) -> (..., 3); every case has one
    mms_source: Optional[Callable] = None  # (x, y, t) -> (..., 3)


class _SpatialTrig:
    """One-entry cache of the spatial trig products of a closed form.

    ``products(x, y)`` returns a tuple of arrays that depend on x and y
    only.  The entry is keyed by value, by ``np.array_equal`` against
    stored copies of x and y, so the nodes a run samples every step reuse
    it, while a new node set, or an array changed in place, replaces it.
    """

    def __init__(self, products):
        self.products = products
        self.x = self.y = self.value = None

    def __call__(self, x, y):
        if self.value is None or not (np.array_equal(x, self.x) and np.array_equal(y, self.y)):
            self.x, self.y = np.array(x, dtype=float), np.array(y, dtype=float)
            self.value = self.products(self.x, self.y)
        return self.value


def lake_at_rest(params=None, amplitude=None):
    """Zero perturbation, zero momentum; exactly steady for any rotation and
    drag, so ``params`` is not read.  The state has no amplitude, so setting
    one is an error."""
    if amplitude is not None:
        raise InvalidArgumentError(f"lake_at_rest takes no amplitude, got {amplitude}")

    def initial(x, y):
        return np.zeros(np.shape(x) + (3,))

    def exact(x, y, t):
        return np.zeros(np.shape(x) + (3,))

    return TestCase(
        name="lake_at_rest",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=WALL,
        bc_y=WALL,
        initial_state=initial,
        exact_solution=exact,
    )


def standing_wave(params=None, amplitude=None):
    """Linear gravity-wave eigenmode in the unit box with wall boundaries.

    phi' = A cos(pi x) cos(pi y) cos(w t), with w = pi sqrt(2 phi_bar) and
    momentum chosen so the linear system is satisfied identically.  It is
    exact for the linear operator only; run it in linear mode, or at an
    amplitude where the O(A^2) remainder sits below discretization error.
    Like :func:`mms_nonlinear`, ``exact`` caches its spatial trig products
    for the last node set it saw.
    """
    params = params or ModelParams(phi_bar=1.0)
    if params.f0 != 0.0 or params.beta != 0.0 or params.drag != 0.0:
        raise InvalidArgumentError("standing_wave is exact only for f0 = beta = drag = 0")
    phi_bar = params.phi_bar
    if amplitude is None:
        amplitude = 0.01 * phi_bar
    if not 0.0 < amplitude <= 0.01 * phi_bar:
        raise InvalidArgumentError(
            f"standing_wave amplitude must be in (0, 0.01*phi_bar], got {amplitude}"
        )
    omega = np.pi * np.sqrt(2.0 * phi_bar)
    mom = amplitude * np.pi * phi_bar / omega

    def products(x, y):
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        return cx * cy, np.sin(np.pi * x) * cy, cx * np.sin(np.pi * y)

    trig = _SpatialTrig(products)

    def exact(x, y, t):
        cc, sc, cs = trig(x, y)
        out = np.empty(np.broadcast_shapes(np.shape(cc), np.shape(t)) + (3,))
        out[..., 0] = amplitude * np.cos(omega * t) * cc
        out[..., 1] = mom * np.sin(omega * t) * sc
        out[..., 2] = mom * np.sin(omega * t) * cs
        return out

    return TestCase(
        name="standing_wave",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=WALL,
        bc_y=WALL,
        initial_state=lambda x, y: exact(x, y, 0.0),
        exact_solution=exact,
    )


def mms_nonlinear(params=None, amplitude=None):
    """Manufactured solution for the full nonlinear system on a doubly
    periodic unit square.

    Fields (k = 2 pi):

        phi' = A sin(kx) sin(ky) cos(t)
        U    = A cos(kx) sin(ky) sin(t)
        V    = A sin(kx) cos(ky) sin(t)

    The injected source is the analytic residual of these fields under the
    full flux plus Coriolis and drag: with phi = phi_bar + phi' and
    pressure P = (phi^2 - phi_bar^2)/2,

        S_phi = phi'_t + U_x + V_y
        S_U   = U_t + (U^2/phi + P)_x + (UV/phi)_y - f V + drag U
        S_V   = V_t + (UV/phi)_x + (V^2/phi + P)_y + f U + drag V

    expanded by the quotient rule using the closed-form partial derivatives
    of the fields (P_x = phi phi'_x, etc.).  With a = A sin(t),
    b = A cos(t), ss = sin(kx) sin(ky), cs = cos(kx) sin(ky),
    sc = sin(kx) cos(ky) and cc = cos(kx) cos(ky), every term separates
    into a factor of t times a spatial product, apart from powers of 1/phi:

        S_phi = -(2k + 1) a ss
        S_U   = B cs - f a sc + k a^2 (sc cc - 3 cs ss) / phi
        S_V   = B sc + f a cs + k a^2 (cs cc - 3 sc ss) / phi
        B     = b + drag a + k b (phi - a^2 (cs^2 + sc^2) / phi^2)

    The derivation is validated in the test suite by a
    central-finite-difference residual oracle, and this form against the
    term-by-term expansion.

    ``exact`` and the source share a one-entry cache of the six spatial
    products ss, cs, sc, cs^2 + sc^2, sc cc - 3 cs ss and cs cc - 3 sc ss,
    keyed by the values of x and y: six node-sized arrays (3 MB on a 64^2
    p = 3 mesh) besides the stored x and y.  A run samples the same nodes
    at every stage and step, so only the time factors and 1/phi are
    recomputed.  A different node set replaces the entry; any x, y and t
    that broadcast together, per-point t arrays included, are accepted.
    """
    params = params or ModelParams(phi_bar=1.0, f0=1.0)
    phi_bar = params.phi_bar
    if amplitude is None:
        amplitude = 0.02 * phi_bar
    if not 0.0 < amplitude <= 0.1 * phi_bar:
        raise InvalidArgumentError(
            f"mms amplitude must be in (0, 0.1*phi_bar], got {amplitude}"
        )
    k = 2.0 * np.pi
    A = amplitude

    def products(x, y):
        sx, cx = np.sin(k * x), np.cos(k * x)
        sy, cy = np.sin(k * y), np.cos(k * y)
        ss, cs, sc, cc = sx * sy, cx * sy, sx * cy, cx * cy
        return ss, cs, sc, cs * cs + sc * sc, sc * cc - 3.0 * cs * ss, cs * cc - 3.0 * sc * ss

    trig = _SpatialTrig(products)

    def exact(x, y, t):
        ss, cs, sc = trig(x, y)[:3]
        a, b = A * np.sin(t), A * np.cos(t)
        out = np.empty(np.broadcast_shapes(np.shape(ss), np.shape(t)) + (3,))
        out[..., 0] = b * ss
        out[..., 1] = a * cs
        out[..., 2] = a * sc
        return out

    def source(x, y, t):
        ss, cs, sc, sq, g_u, g_v = trig(x, y)
        a, b = A * np.sin(t), A * np.cos(t)
        phi = b * ss
        phi += phi_bar
        inv_phi = 1.0 / phi
        # B of the docstring, then k a^2 / phi in place of 1 / phi
        bracket = inv_phi * inv_phi
        bracket *= sq
        bracket *= -a * a
        bracket += phi
        bracket *= k * b
        bracket += b + params.drag * a
        inv_phi *= k * a * a
        fa = a * (params.f0 + params.beta * np.asarray(y)) if params.beta != 0.0 else params.f0 * a

        out = np.empty(np.broadcast_shapes(np.shape(ss), np.shape(t)) + (3,))
        np.multiply(ss, -(2.0 * k + 1.0) * a, out=out[..., 0])
        # The momentum rows are summed in contiguous arrays and written to
        # the interleaved output once each: strided updates cost twice as much.
        s_u = cs * bracket
        s_u -= fa * sc
        s_u += g_u * inv_phi
        out[..., 1] = s_u
        s_v = sc * bracket
        s_v += fa * cs
        s_v += g_v * inv_phi
        out[..., 2] = s_v
        return out

    return TestCase(
        name="mms_nonlinear",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=PERIODIC,
        bc_y=PERIODIC,
        initial_state=lambda x, y: exact(x, y, 0.0),
        exact_solution=exact,
        mms_source=source,
    )


_CASES = {
    "lake_at_rest": lake_at_rest,
    "standing_wave": standing_wave,
    "mms_nonlinear": mms_nonlinear,
}


def case_names():
    return sorted(_CASES)


def make_case(name, params=None, amplitude=None):
    try:
        builder = _CASES[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown case {name!r}; available: {', '.join(case_names())}"
        ) from None
    return builder(params, amplitude)


def l2_error(field, exact_fn, t, xy=None):
    """GLL-quadrature L2 norm of (field - exact) per component, shape (3,).

    ``xy`` are the field's node coordinates, such as
    ``ExplicitOperator.node_xy``; they are built from the mesh when not given.
    """
    if exact_fn is None:
        raise InvalidArgumentError("case has no exact solution to compare against")
    mesh, basis = field.mesh, field.basis
    if xy is None:
        xy = gll_node_coords(mesh, basis)
    diff = field.data - exact_fn(xy[..., 0], xy[..., 1], t)
    mass2d = mass_weights(basis, mesh.hx, mesh.hy)
    return np.sqrt(np.einsum("jk,ejkc->c", mass2d, diff**2))
