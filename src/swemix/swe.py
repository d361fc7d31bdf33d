"""Shallow water physics in conservative geopotential form.

State vectors carry (phi_prime, U, V) in the last axis: the geopotential
perturbation about the mean ``phi_bar`` and the two momentum components.
All flux and source routines are vectorized over leading axes.

The full flux splits additively into a linear gravity-wave part (treated
implicitly downstream) and the nonlinear remainder (treated explicitly).
The constant ``phi_bar^2 / 2`` is removed from the pressure so every flux
vanishes identically at rest:

    pressure      P  = (phi^2 - phi_bar^2) / 2 = phi_bar * phi' + phi'^2 / 2
    linear part        phi_bar * phi'
    remainder          phi'^2 / 2
"""

from dataclasses import dataclass
import numpy as np

from .errors import DryStateError, InvalidArgumentError

PHI, MX, MY = 0, 1, 2  # component indices: perturbation, x-momentum, y-momentum


@dataclass(frozen=True)
class ModelParams:
    """Physical constants: mean geopotential, rotation, drag."""

    phi_bar: float
    f0: float = 0.0
    beta: float = 0.0
    drag: float = 0.0

    def __post_init__(self):
        if not self.phi_bar > 0.0:
            raise InvalidArgumentError(f"phi_bar must be positive, got {self.phi_bar}")
        if self.drag < 0.0:
            raise InvalidArgumentError(f"drag must be nonnegative, got {self.drag}")

    @property
    def wave_speed(self):
        return float(np.sqrt(self.phi_bar))


def geopotential(q, params):
    """Total geopotential phi = phi_bar + phi'; raises on dry states."""
    phi = params.phi_bar + np.asarray(q)[..., PHI]
    if np.any(phi <= 0.0):
        raise DryStateError(f"non-positive geopotential (min {np.min(phi):.3e})")
    return phi


def flux_full(q, params):
    """Full nonlinear flux tensor, shape (..., 2, 3): axis -2 is (x, y)."""
    q = np.asarray(q, dtype=float)
    phi = geopotential(q, params)
    u_mom, v_mom = q[..., MX], q[..., MY]
    pressure = 0.5 * (phi**2 - params.phi_bar**2)
    flux = np.empty(q.shape[:-1] + (2, 3))
    flux[..., 0, PHI] = u_mom
    flux[..., 0, MX] = u_mom**2 / phi + pressure
    flux[..., 0, MY] = flux[..., 1, MX] = u_mom * v_mom / phi
    flux[..., 1, PHI] = v_mom
    flux[..., 1, MY] = v_mom**2 / phi + pressure
    return flux


def flux_nonlinear(q, params):
    """Nonlinear remainder flux: advection plus the quadratic pressure tail.

    Continuity rows are identically zero, so the explicit operator never
    moves mass.
    """
    q = np.asarray(q, dtype=float)
    phi = geopotential(q, params)
    u_mom, v_mom = q[..., MX], q[..., MY]
    tail = 0.5 * q[..., PHI] ** 2
    flux = np.zeros(q.shape[:-1] + (2, 3))
    flux[..., 0, MX] = u_mom**2 / phi + tail
    flux[..., 0, MY] = flux[..., 1, MX] = u_mom * v_mom / phi
    flux[..., 1, MY] = v_mom**2 / phi + tail
    return flux


def source(q, y, params, out=None):
    """Coriolis and linear bottom drag.

    The Coriolis parameter is f = f0 + beta*y; its contribution rotates
    momentum without injecting energy.  Continuity source is zero.
    Prescribed forcing enters through the explicit operator's
    ``extra_source`` instead.

    With ``out`` the source is added into ``out``, which is returned;
    the result equals ``out + source(q, y, params)``.  A term whose
    coefficients are all zero is skipped.
    """
    q = np.asarray(q, dtype=float)
    if out is None:
        out = np.zeros_like(q)
    u_mom, v_mom = q[..., MX], q[..., MY]
    if params.f0 != 0.0 or params.beta != 0.0:
        f = params.f0 + params.beta * np.asarray(y) if params.beta != 0.0 else params.f0
        src_u, src_v = f * v_mom, f * u_mom  # the V row is negated when added
        if params.drag != 0.0:
            src_u -= params.drag * u_mom
            src_v += params.drag * v_mom
        out[..., MX] += src_u
        out[..., MY] -= src_v
    elif params.drag != 0.0:
        out[..., MX] -= params.drag * u_mom
        out[..., MY] -= params.drag * v_mom
    return out
