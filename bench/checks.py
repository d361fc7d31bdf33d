"""Correctness references computed apart from the program.

Nothing here imports ``swemix``.  The GLL nodes and weights, the element
node layout, the quadrature, the closed-form solutions, the VTK and CSV
readers and the tolerances are all re-derived, so a fault in the program's
own helpers cannot hide a fault in its results.

Every ``check_*`` function returns a list of failure messages; an empty
list means the check passed.  The self-test hands each one a perturbed
result and requires a non-empty list back.

State layout (the program's documented convention): nodal data has shape
(num_elements, p+1, p+1, 3) with axes (element, y node, x node, component)
and components (phi', U, V); elements are numbered row-major,
``e = iy * nx + ix``.
"""

import math

import numpy as np
from numpy.polynomial import legendre

# Roundoff allowances.  The sums behind mass and energy run over up to
# ~2e5 nodes, so their relative rounding error is a few 1e-15.
MASS_DRIFT_MAX = 1e-11
ENERGY_RISE_MAX = 1e-13  # relative rise allowed between consecutive steps
TIME_RTOL = 1e-12
COORD_ATOL = 1e-12
ERROR_SAFETY = 4.0


def gll(p):
    """Gauss-Lobatto-Legendre nodes and weights on [-1, 1] for degree p."""
    interior = legendre.Legendre.basis(p).deriv().roots()
    nodes = np.concatenate(([-1.0], np.sort(interior.real), [1.0]))
    lp = legendre.legval(nodes, [0.0] * p + [1.0])
    weights = 2.0 / (p * (p + 1) * lp**2)
    return nodes, weights


class Grid:
    """Node coordinates and quadrature of a uniform nx-by-ny element mesh of
    the unit square, the domain of every workload."""

    def __init__(self, nx, ny, p):
        self.nx, self.ny, self.p = nx, ny, p
        self.hx, self.hy = 1.0 / nx, 1.0 / ny
        nodes, weights = gll(p)
        ref = 0.5 * (nodes + 1.0)
        ix = np.tile(np.arange(nx), ny)
        iy = np.repeat(np.arange(ny), nx)
        # (element, y node, x node)
        self.x = (ix * self.hx)[:, None, None] + self.hx * ref[None, None, :]
        self.y = (iy * self.hy)[:, None, None] + self.hy * ref[None, :, None]
        self.x = np.broadcast_to(self.x, (nx * ny, p + 1, p + 1))
        self.y = np.broadcast_to(self.y, (nx * ny, p + 1, p + 1))
        self.quad = 0.25 * self.hx * self.hy * np.outer(weights, weights)

    @property
    def num_points(self):
        return self.x.size

    def integral(self, values):
        """GLL quadrature of nodal values over the domain (leading axes summed)."""
        return np.einsum("jk,ejk...->...", self.quad, values)

    def l2(self, diff):
        """Per-component L2 norm of nodal data (..., 3)."""
        return np.sqrt(self.integral(diff**2))


# ---------------------------------------------------------------- solutions


def mms_fields(x, y, t, amplitude):
    """Manufactured solution on the doubly periodic unit square (k = 2 pi):
    phi' = A sin kx sin ky cos t, U = A cos kx sin ky sin t,
    V = A sin kx cos ky sin t."""
    k = 2.0 * math.pi
    out = np.empty(np.shape(x) + (3,))
    out[..., 0] = amplitude * np.sin(k * x) * np.sin(k * y) * math.cos(t)
    out[..., 1] = amplitude * np.cos(k * x) * np.sin(k * y) * math.sin(t)
    out[..., 2] = amplitude * np.sin(k * x) * np.cos(k * y) * math.sin(t)
    return out


def standing_wave_fields(x, y, t, amplitude, phi_bar):
    """Eigenmode of the linear system phi'_t + U_x + V_y = 0,
    U_t + phi_bar phi'_x = 0, V_t + phi_bar phi'_y = 0 in the walled unit
    box: phi' = A cos(pi x) cos(pi y) cos(w t) with w^2 = 2 pi^2 phi_bar,
    and U, V from integrating the momentum equations in time."""
    omega = standing_wave_omega(phi_bar)
    mom = amplitude * math.pi * phi_bar / omega
    cx, cy = np.cos(math.pi * x), np.cos(math.pi * y)
    out = np.empty(np.shape(x) + (3,))
    out[..., 0] = amplitude * cx * cy * math.cos(omega * t)
    out[..., 1] = mom * np.sin(math.pi * x) * cy * math.sin(omega * t)
    out[..., 2] = mom * cx * np.sin(math.pi * y) * math.sin(omega * t)
    return out


def standing_wave_omega(phi_bar):
    return math.pi * math.sqrt(2.0 * phi_bar)


def error_tolerance(amplitude, omega, dt, q, wavenumber, h, p):
    """Final L2 error bound per component:

        SAFETY * A * [ (w dt)^q + (k h / 2)^(p+1) / (p+1)! ]

    The first term is the time error of an order-q scheme, the second the
    interpolation error of degree-p polynomials on elements of width h,
    each made dimensionless by the solution's own frequency w and
    wavenumber k, with the amplitude A as scale.  README.md gives the
    derivation and the margins measured on each workload.
    """
    space = (wavenumber * h / 2.0) ** (p + 1) / math.factorial(p + 1)
    return ERROR_SAFETY * amplitude * ((omega * dt) ** q + space)


def explicit_gravity_dt(h, p, phi_bar):
    """Explicit gravity-wave step limit h / ((p+1)^2 sqrt(phi_bar))."""
    return h / ((p + 1) ** 2 * math.sqrt(phi_bar))


# ------------------------------------------------------------------ readers


def read_csv_series(path):
    """Columns of the program's per-step CSV series as float arrays."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def read_vtk(path):
    """Parse a legacy ASCII VTK unstructured grid into its sections.

    Returns a dict with ``points`` (n, 3), ``num_cells``, ``phi_prime`` (n,)
    and ``velocity`` (n, 3).  Raises ValueError on a malformed file.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if not text.startswith("# vtk DataFile"):
        raise ValueError("missing VTK header")

    def section(header):
        """Tokens of a section's header line and the offset of its body."""
        at = text.find("\n" + header + " ")
        if at < 0:
            raise ValueError(f"missing {header} section")
        body = text.find("\n", at + 1) + 1
        return text[at + 1 : body].split(), body

    def values(header, next_header, rows, cols):
        body = section(header)[1]
        end = text.find("\n" + next_header + " ", body) if next_header else len(text)
        data = np.fromstring(text[body:end], dtype=float, sep=" ")
        if data.size != rows * cols:
            raise ValueError(f"{header}: expected {rows * cols} values, got {data.size}")
        return data.reshape(rows, cols)

    n = int(section("POINTS")[0][1])
    if int(section("POINT_DATA")[0][1]) != n:
        raise ValueError("POINT_DATA count differs from POINTS count")
    return {
        "points": values("POINTS", "CELLS", n, 3),
        "num_cells": int(section("CELLS")[0][1]),
        "phi_prime": values("LOOKUP_TABLE", "VECTORS", n, 1)[:, 0],
        "velocity": values("VECTORS", None, n, 3),
    }


# ------------------------------------------------------------------- checks


def check_finite(data):
    if not np.all(np.isfinite(data)):
        return ["final state holds non-finite values"]
    return []


def check_time(t_final, requested, steps, expected_steps):
    out = []
    if not math.isclose(t_final, requested, rel_tol=TIME_RTOL, abs_tol=0.0):
        out.append(f"final time {t_final!r} differs from requested {requested!r}")
    if steps != expected_steps:
        out.append(f"{steps} steps taken, expected {expected_steps}")
    return out


def check_l2(grid, data, exact, tol, label="final state"):
    errors = grid.l2(data - exact)
    if not np.all(errors <= tol):
        return [f"{label} L2 errors (phi', U, V) {errors.tolist()} exceed tolerance {tol:.3e}"]
    return []


def mass(grid, data, phi_bar):
    return float(grid.integral(phi_bar + data[..., 0]))


def energy(grid, data, phi_bar):
    dens = (data[..., 1] ** 2 + data[..., 2] ** 2) / phi_bar + data[..., 0] ** 2
    return float(0.5 * grid.integral(dens))


def check_mass(grid, initial, final, phi_bar):
    m0, m1 = mass(grid, initial, phi_bar), mass(grid, final, phi_bar)
    drift = abs(m1 - m0) / abs(m0)
    if not drift <= MASS_DRIFT_MAX:
        return [f"relative mass drift {drift:.3e} exceeds {MASS_DRIFT_MAX:.0e}"]
    return []


def check_series(series, dt, steps, final_energy=None):
    """Per-step CSV: one row per step, t = k dt, mass constant; energy, if
    ``final_energy`` is given, non-increasing and ending at that value."""
    out = []
    step = series["step"]
    if step.size != steps + 1 or np.any(step != np.arange(steps + 1)):
        return [f"CSV has steps {step[:3].tolist()}..., expected 0..{steps}"]
    t = np.arange(steps + 1) * dt
    if not np.allclose(series["t"], t, rtol=TIME_RTOL, atol=0.0):
        out.append("CSV time column is not k * dt")
    m = series["mass"]
    drift = np.max(np.abs(m - m[0])) / abs(m[0])
    if not drift <= MASS_DRIFT_MAX:
        out.append(f"CSV mass drifts by {drift:.3e} (relative)")
    if final_energy is not None:
        e = series["energy"]
        rise = np.max(np.diff(e)) / e[0]
        if not rise <= ENERGY_RISE_MAX:
            k = int(np.argmax(np.diff(e)))
            out.append(f"energy rises by {rise:.3e} (relative) at step {k + 1}")
        if not math.isclose(e[-1], final_energy, rel_tol=1e-12):
            out.append(f"CSV final energy {e[-1]!r} differs from the final state's {final_energy!r}")
    return out


def check_vtk(path, grid, exact, phi_bar, tol):
    """A snapshot parses, has the mesh's nodes and cells, and its phi' and
    momentum (velocity times phi) match the exact solution within ``tol``."""
    try:
        vtk = read_vtk(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: does not parse: {exc}"]
    out = []
    n = grid.num_points
    if vtk["points"].shape[0] != n:
        return [f"{path}: {vtk['points'].shape[0]} points, expected {n}"]
    if vtk["num_cells"] != grid.nx * grid.ny * grid.p**2:
        out.append(f"{path}: {vtk['num_cells']} cells, expected {grid.nx * grid.ny * grid.p**2}")
    expected_xy = np.stack([grid.x.reshape(-1), grid.y.reshape(-1), np.zeros(n)], axis=1)
    if not np.allclose(vtk["points"], expected_xy, rtol=0.0, atol=COORD_ATOL):
        out.append(f"{path}: point coordinates are not the mesh's GLL nodes")
    if not (np.all(np.isfinite(vtk["phi_prime"])) and np.all(np.isfinite(vtk["velocity"]))):
        return out + [f"{path}: non-finite point data"]
    state = np.empty(grid.x.shape + (3,))
    state[..., 0] = vtk["phi_prime"].reshape(grid.x.shape)
    total = phi_bar + state[..., 0]
    state[..., 1] = vtk["velocity"][:, 0].reshape(grid.x.shape) * total
    state[..., 2] = vtk["velocity"][:, 1].reshape(grid.x.shape) * total
    return out + check_l2(grid, state, exact, tol, label=path)


def check_growth(split_ratio, control_ratio, split_max=2.0, control_min=1e3):
    out = []
    if not split_ratio <= split_max:
        out.append(f"split-method growth {split_ratio:.3e} exceeds {split_max}")
    if not control_ratio > control_min:
        out.append(f"explicit control growth {control_ratio:.3e} is not above {control_min:.0e}")
    return out


def check_dt(dt, expected, label="dt"):
    if not math.isclose(dt, expected, rel_tol=TIME_RTOL):
        return [f"{label} {dt!r} differs from the independent value {expected!r}"]
    return []
