"""Canonical test problems: rest state, linear standing wave, manufactured
nonlinear solution.  Each case bundles its domain, boundary kinds, physics,
initial data, and (where available) the exact solution and injected source.
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
    params: ModelParams
    amplitude: float
    initial_state: Callable  # (x, y) -> (..., 3)
    exact_solution: Optional[Callable] = None  # (x, y, t) -> (..., 3)
    mms_source: Optional[Callable] = None  # (x, y, t) -> (..., 3)


def lake_at_rest(params=None):
    """Zero perturbation, zero momentum; exactly steady for any rotation and
    drag as long as no forcing is prescribed."""
    params = params or ModelParams(phi_bar=1.0)
    if params.forcing is not None:
        raise InvalidArgumentError("lake_at_rest is only steady without forcing")

    def initial(x, y):
        return np.zeros(np.shape(x) + (3,))

    def exact(x, y, t):
        return np.zeros(np.shape(x) + (3,))

    return TestCase(
        name="lake_at_rest",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=WALL,
        bc_y=WALL,
        params=params,
        amplitude=0.0,
        initial_state=initial,
        exact_solution=exact,
    )


def standing_wave(params=None, amplitude=None):
    """Linear gravity-wave eigenmode in the unit box with wall boundaries.

    phi' = A cos(pi x) cos(pi y) cos(w t), with w = pi sqrt(2 phi_bar) and
    momentum chosen so the linear system is satisfied identically.  It is
    exact for the linear operator only; run it in linear mode, or at an
    amplitude where the O(A^2) remainder sits below discretization error.
    """
    params = params or ModelParams(phi_bar=1.0)
    if params.f0 != 0.0 or params.beta != 0.0 or params.drag != 0.0 or params.forcing is not None:
        raise InvalidArgumentError(
            "standing_wave is exact only for f0 = beta = drag = 0 and no forcing"
        )
    phi_bar = params.phi_bar
    if amplitude is None:
        amplitude = 0.01 * phi_bar
    if not 0.0 < amplitude <= 0.01 * phi_bar:
        raise InvalidArgumentError(
            f"standing_wave amplitude must be in (0, 0.01*phi_bar], got {amplitude}"
        )
    omega = np.pi * np.sqrt(2.0 * phi_bar)
    mom = amplitude * np.pi * phi_bar / omega

    def exact(x, y, t):
        out = np.empty(np.shape(x) + (3,))
        out[..., 0] = amplitude * np.cos(np.pi * x) * np.cos(np.pi * y) * np.cos(omega * t)
        out[..., 1] = mom * np.sin(np.pi * x) * np.cos(np.pi * y) * np.sin(omega * t)
        out[..., 2] = mom * np.cos(np.pi * x) * np.sin(np.pi * y) * np.sin(omega * t)
        return out

    return TestCase(
        name="standing_wave",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=WALL,
        bc_y=WALL,
        params=params,
        amplitude=amplitude,
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
    of the fields (P_x = phi phi'_x, etc.).  The derivation is validated in
    the test suite by a central-finite-difference residual oracle.
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

    def fields(x, y, t):
        sx, cx = np.sin(k * x), np.cos(k * x)
        sy, cy = np.sin(k * y), np.cos(k * y)
        st, ct = np.sin(t), np.cos(t)
        return sx, cx, sy, cy, st, ct

    def exact(x, y, t):
        sx, cx, sy, cy, st, ct = fields(x, y, t)
        out = np.empty(np.shape(sx) + (3,))
        out[..., 0] = A * sx * sy * ct
        out[..., 1] = A * cx * sy * st
        out[..., 2] = A * sx * cy * st
        return out

    def source(x, y, t):
        sx, cx, sy, cy, st, ct = fields(x, y, t)
        p = A * sx * sy * ct
        u = A * cx * sy * st
        v = A * sx * cy * st
        pt = -A * sx * sy * st
        px = A * k * cx * sy * ct
        py = A * k * sx * cy * ct
        ut = A * cx * sy * ct
        ux = -A * k * sx * sy * st
        uy = A * k * cx * cy * st
        vt = A * sx * cy * ct
        vx = A * k * cx * cy * st
        vy = -A * k * sx * sy * st

        phi = phi_bar + p
        f = params.f0 + params.beta * np.asarray(y)
        out = np.empty(np.shape(sx) + (3,))
        out[..., 0] = pt + ux + vy
        out[..., 1] = (
            ut
            + 2.0 * u * ux / phi
            - u**2 * px / phi**2
            + phi * px
            + (uy * v + u * vy) / phi
            - u * v * py / phi**2
            - f * v
            + params.drag * u
        )
        out[..., 2] = (
            vt
            + (ux * v + u * vx) / phi
            - u * v * px / phi**2
            + 2.0 * v * vy / phi
            - v**2 * py / phi**2
            + phi * py
            + f * u
            + params.drag * v
        )
        return out

    return TestCase(
        name="mms_nonlinear",
        bounds=(0.0, 1.0, 0.0, 1.0),
        bc_x=PERIODIC,
        bc_y=PERIODIC,
        params=params,
        amplitude=amplitude,
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
    if name == "lake_at_rest":
        return builder(params)
    return builder(params, amplitude)


def l2_error(field, exact_fn, t):
    """GLL-quadrature L2 norm of (field - exact) per component, shape (3,)."""
    if exact_fn is None:
        raise InvalidArgumentError("case has no exact solution to compare against")
    mesh, basis = field.mesh, field.basis
    xy = gll_node_coords(mesh, basis)
    diff = field.data - exact_fn(xy[..., 0], xy[..., 1], t)
    mass2d = mass_weights(basis, mesh.hx, mesh.hy)
    return np.sqrt(np.einsum("jk,ejkc->c", mass2d, diff**2))
