"""Simulation assembly and study harnesses.

Builds the mesh/basis/operator stack from a Config, wires the explicit DG
and implicit HDG operators into the split-operator pair the IMEX stepper
consumes, marches in time with diagnostics, and provides the convergence
and large-time-step stability studies used by the CLI and the acceptance
suite.
"""

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import imex
from .basis import mass_weights, nodal_basis
from .cases import l2_error, make_case
from .config import CaseConfig, Config, DiscConfig, MeshConfig, PhysicsConfig, TimeConfig, validate
from .dg import ExplicitOperator, StateField, _dry_element_error, nodal_field
from .errors import DryStateError, InvalidArgumentError, InvalidValueError, SolverFailureError
from .hdg import ImplicitSolverBank
from .mesh import build_structured
from .output import CsvSeriesWriter, _fmt, write_vtk
from .swe import ModelParams


class SplitOperator:
    """Explicit DG remainder plus implicit HDG linear solve.

    ``linear_mode`` zeroes the explicit operator entirely, leaving the pure
    implicit gravity-wave discretization (used to isolate spatial HDG
    accuracy): ``explicit_tendency`` returns None, which the IMEX stepper
    reads as an identically zero tendency, so no explicit field is formed.
    ``extra_source`` is an optional (x, y, t) -> 3-vector added on the
    explicit side; manufactured-solution cases inject their residual
    through it.

    Without a solver ``bank`` the pair is the explicit control: the
    complete flux moves to the explicit side and the implicit solve is the
    identity, so the IMEX stepper reproduces the scheme's explicit
    Runge-Kutta method on the full system.  It exists to demonstrate the
    fast-wave time-step restriction the split method removes.
    """

    def __init__(self, dg_op, bank, params, extra_source=None, linear_mode=False):
        self.dg_op = dg_op
        self.bank = bank
        self.params = params
        self.extra_source = extra_source
        self.linear_mode = linear_mode
        self.full_flux = bank is None

    def explicit_tendency(self, q, t):
        if self.linear_mode:
            return None
        out = self.dg_op.tendency(
            q.data, t, self.params, extra_source=self.extra_source, full=self.full_flux
        )
        return StateField(out, q.mesh, q.basis)

    def implicit_solve(self, shift, r):
        if self.bank is None:
            return r
        q, _ = self.bank.solve(shift, r)
        return q


@dataclass
class Simulation:
    config: object
    case: object
    params: ModelParams
    mesh: object
    basis: object
    dg_op: ExplicitOperator
    bank: ImplicitSolverBank
    tab: imex.ImexTableau

    def initial_field(self):
        return nodal_field(self.mesh, self.basis, self.case.initial_state)

    def operator(self, explicit_control=False):
        """The split operator pair, or with ``explicit_control`` the
        explicit-only control (see SplitOperator)."""
        return SplitOperator(
            self.dg_op,
            None if explicit_control else self.bank,
            self.params,
            extra_source=self.case.mms_source,
            linear_mode=self.config.case.linear_mode,
        )


def configured_case(cfg):
    """The model parameters and the case of ``cfg``; raises if the case
    refuses the config, or if linear mode would drop the source the case
    adds on the explicit side."""
    params = ModelParams(
        phi_bar=cfg.physics.phi_bar,
        f0=cfg.physics.f0,
        beta=cfg.physics.beta,
        drag=cfg.physics.drag,
    )
    case = make_case(cfg.case.name, params, cfg.case.amplitude)
    if cfg.case.linear_mode and case.mms_source is not None:
        raise InvalidValueError(
            "case.linear_mode",
            f"{case.name} adds its source on the explicit side, which linear mode drops",
        )
    return params, case


def build_simulation(cfg):
    """The stack for ``cfg``, on the case's own domain and boundary kinds."""
    params, case = configured_case(cfg)
    mesh = build_structured(cfg.mesh.nx, cfg.mesh.ny, case.bounds, case.bc_x, case.bc_y)
    basis = nodal_basis(cfg.disc.order)
    bank = ImplicitSolverBank(
        mesh,
        basis,
        params,
        tau=cfg.disc.tau,
        backend=cfg.solver.backend,
        rel_tol=cfg.solver.rel_tol,
        max_iter=cfg.solver.max_iter,
    )
    return Simulation(
        config=cfg,
        case=case,
        params=params,
        mesh=mesh,
        basis=basis,
        dg_op=ExplicitOperator(mesh, basis),
        bank=bank,
        tab=imex.tableau(cfg.time.scheme),
    )


def total_mass(field, params):
    """Integral of the total geopotential phi over the domain."""
    mass2d = mass_weights(field.basis, field.mesh.hx, field.mesh.hy)
    return float(np.einsum("jk,ejk->", mass2d, params.phi_bar + field.phi_prime))


def energy_proxy(field, params):
    """0.5 * integral of (|U|^2 / phi_bar + phi'^2); monitored, not conserved."""
    mass2d = mass_weights(field.basis, field.mesh.hx, field.mesh.hy)
    dens = (field.momentum_x**2 + field.momentum_y**2) / params.phi_bar + field.phi_prime**2
    return float(0.5 * np.einsum("jk,ejk->", mass2d, dens))


def explicit_gravity_dt(mesh, basis, params):
    """Reference explicit gravity-wave step limit h / ((p+1)^2 c)."""
    return min(mesh.hx, mesh.hy) / ((basis.order + 1) ** 2 * params.wave_speed)


@dataclass
class RunResult:
    steps: int
    t_final: float
    final_field: StateField
    mass_drift: float
    final_errors: np.ndarray
    csv_path: Optional[str]
    vtk_paths: list


def _step(pair, q, k, dt, tab):
    """Step k + 1, from t = k dt.  A solver failure or a dry state names the
    step and the time it was to reach: one raised inside the step, a state
    it returns that is not finite, and, in nonlinear mode, a returned state
    with phi_bar + phi' <= 0 somewhere.  Linear mode does not need phi > 0."""
    try:
        q = imex.step(pair, q, k * dt, dt, tab)
        if not np.all(np.isfinite(q.data)):
            raise SolverFailureError("non-finite state")
        if not pair.linear_mode and np.min(q.phi_prime) <= -pair.params.phi_bar:
            raise _dry_element_error(q.data, pair.params)
        return q
    except (SolverFailureError, DryStateError) as exc:
        raise exc.with_context(f"step {k + 1} (t = {(k + 1) * dt:.6g})") from exc


def make_output_dir(out_dir):
    """Make ``out_dir`` and its parents; a directory that cannot be made is
    an ``InvalidValueError`` on ``output.dir``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidValueError("output.dir", f"cannot make {out_dir!r}: {exc.strerror or exc}") from None


def run(cfg, quiet=False):
    """Time-march the configured case, writing CSV/VTK artifacts."""
    sim = build_simulation(cfg)
    dt = cfg.time.dt
    n_steps = int(round(cfg.time.t_final / dt))
    pair = sim.operator()
    q = sim.initial_field()
    exact = sim.case.exact_solution
    node_xy = sim.dg_op.node_xy

    out_dir = cfg.output.dir
    vtk_every = cfg.output.vtk_every_n_steps
    if cfg.output.csv_series or vtk_every:
        # a directory that cannot be made fails the run before its first step
        make_output_dir(out_dir)
    writer = CsvSeriesWriter(os.path.join(out_dir, "series.csv")) if cfg.output.csv_series else None
    vtk_paths = []

    def snapshot(step, field):
        path = os.path.join(out_dir, f"snap_{step:06d}.vtk")
        write_vtk(field, path, sim.params.phi_bar)
        vtk_paths.append(path)

    def record(step, field):
        # the diagnostics, checked (a finite state can still overflow their
        # squares) and added to the CSV if there is one; returns mass, errors
        t = step * dt
        mass, energy = total_mass(field, sim.params), energy_proxy(field, sim.params)
        errors = l2_error(field, exact, t, node_xy)
        bad = [name for name, v in zip(CsvSeriesWriter.DIAGNOSTICS, (mass, energy, *errors)) if not np.isfinite(v)]
        if bad:
            raise SolverFailureError(f"step {step} (t = {t:.6g}): non-finite diagnostics: {', '.join(bad)}")
        if writer is not None:
            writer.add(step, t, mass, energy, errors)
        return mass, errors

    # step 0 and the last step are always recorded, the others for the CSV
    mass0, errors = record(0, q)
    mass = mass0
    if vtk_every:
        snapshot(0, q)
    for k in range(n_steps):
        q = _step(pair, q, k, dt, sim.tab)
        if writer is not None or k + 1 == n_steps:
            mass, errors = record(k + 1, q)
        if vtk_every and (k + 1) % vtk_every == 0:
            snapshot(k + 1, q)

    t = n_steps * dt
    csv_path = writer.write() if writer is not None else None
    mass_drift = abs(mass - mass0) / abs(mass0)
    if not quiet:
        print(f"case={sim.case.name} scheme={sim.tab.name} order={sim.basis.order} "
              f"mesh={sim.mesh.nx}x{sim.mesh.ny} steps={n_steps} t={t:.6g}")
        print(f"  mass drift (relative): {mass_drift:.3e}")
        print(f"  max |phi'|: {np.max(np.abs(q.phi_prime)):.6e}")
        print(f"  L2 errors (phi', U, V): {errors[0]:.6e} {errors[1]:.6e} {errors[2]:.6e}")
    return RunResult(
        steps=n_steps,
        t_final=t,
        final_field=q,
        mass_drift=mass_drift,
        final_errors=errors,
        csv_path=csv_path,
        vtk_paths=vtk_paths,
    )


@dataclass
class ConvergenceResult:
    mode: str
    levels: list
    spacings: np.ndarray  # h or dt per level
    errors: np.ndarray  # (nlevels, 3)
    rates: np.ndarray  # (nlevels - 1, 3) pairwise log2 ratios
    measured_order: np.ndarray  # (3,) mean pairwise rate

    def table(self):
        lines = [f"{'level':>8} {'spacing':>12} {'L2(phi)':>12} {'L2(U)':>12} {'L2(V)':>12} {'rate(phi)':>10}"]
        for i, lev in enumerate(self.levels):
            rate = f"{self.rates[i - 1, 0]:10.3f}" if i > 0 else " " * 10
            e = self.errors[i]
            lines.append(
                f"{lev:>8} {self.spacings[i]:12.5e} {e[0]:12.5e} {e[1]:12.5e} {e[2]:12.5e} {rate}"
            )
        lines.append(f"measured order (phi', U, V): "
                     f"{self.measured_order[0]:.3f} {self.measured_order[1]:.3f} {self.measured_order[2]:.3f}")
        return "\n".join(lines)

    def to_csv(self, path):
        rows = ["level,spacing,l2_phi,l2_u,l2_v,rate_phi,rate_u,rate_v"]
        for i, lev in enumerate(self.levels):
            rate = ["", "", ""] if i == 0 else [_fmt(r) for r in self.rates[i - 1]]
            e = [_fmt(v) for v in self.errors[i]]
            rows.append(",".join([str(lev), _fmt(self.spacings[i])] + e + rate))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        return path


def check_levels(levels, mode):
    """Raise ``InvalidArgumentError`` unless ``convergence`` accepts the
    refinement ``levels`` and ``mode``."""
    if len(levels) < 2:
        raise InvalidArgumentError("need at least 2 refinement levels")
    if mode not in ("spatial", "temporal"):
        raise InvalidArgumentError(f"mode must be 'spatial' or 'temporal', got {mode!r}")
    if min(levels) < 1 or len(set(levels)) != len(levels):
        raise InvalidArgumentError(f"refinement levels must be distinct and >= 1, got {list(levels)}")


def convergence(cfg, levels, mode):
    """Refinement study.

    mode="spatial": levels are mesh sizes (nx = ny), marched at the config's
    fixed dt; the spacing is the level's element width max(hx, hy).
    mode="temporal": levels are step counts over t_final on the config's
    fixed mesh.  Levels must at least halve the spacing end to end
    to make the pairwise log2 rates meaningful; the usual usage doubles
    each level.  Levels must be distinct and at least 1, and each level's
    configuration is validated before it runs.
    """
    import copy

    check_levels(levels, mode)
    errors = []
    spacings = []
    for lev in levels:
        c = copy.deepcopy(cfg)
        c.output.csv_series = False
        c.output.vtk_every_n_steps = 0
        if mode == "spatial":
            c.mesh.nx = c.mesh.ny = int(lev)
        else:
            c.time.dt = cfg.time.t_final / int(lev)
        result = run(validate(c), quiet=True)
        mesh = result.final_field.mesh
        spacings.append(max(mesh.hx, mesh.hy) if mode == "spatial" else c.time.dt)
        errors.append(result.final_errors)
    errors = np.array(errors)
    spacings = np.array(spacings)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = spacings[:-1] / spacings[1:]
        rates = np.log2(errors[:-1] / errors[1:]) / np.log2(ratio)[:, None]
    measured = np.mean(rates, axis=0)
    return ConvergenceResult(
        mode=mode,
        levels=list(levels),
        spacings=spacings,
        errors=errors,
        rates=rates,
        measured_order=measured,
    )


@dataclass
class StabilityResult:
    dt_cfl: float
    dt: float
    initial_max: float
    imex_max_ratio: float
    explicit_max_ratio: float
    explicit_steps_survived: int


def stability_study(
    nx=16,
    order=2,
    phi_bar=1.0,
    amplitude_factor=1e-3,
    cfl_multiple=20.0,
    n_steps=200,
    scheme="ars222",
    quiet=False,
):
    """Large-time-step demonstration on the nonlinear standing wave.

    Runs the split method at ``cfl_multiple`` times the explicit gravity
    CFL reference step, then an explicit-only control (full flux moved to
    the explicit side) at the same step.  The control is aborted once its
    amplitude exceeds 1e6 times the initial one, or its state goes dry or
    non-finite.
    """
    cfg = Config(
        mesh=MeshConfig(nx=nx, ny=nx),
        disc=DiscConfig(order=order),
        physics=PhysicsConfig(phi_bar=phi_bar),
        time=TimeConfig(scheme=scheme),
        case=CaseConfig(name="standing_wave", amplitude=amplitude_factor * phi_bar),
    )
    sim = build_simulation(cfg)
    dt_cfl = explicit_gravity_dt(sim.mesh, sim.basis, sim.params)
    dt = cfl_multiple * dt_cfl
    q0 = sim.initial_field()
    initial_max = float(np.max(np.abs(q0.phi_prime)))

    pair = sim.operator()
    q = q0
    imex_max = initial_max
    for k in range(n_steps):
        q = _step(pair, q, k, dt, sim.tab)
        imex_max = max(imex_max, float(np.max(np.abs(q.phi_prime))))

    control = sim.operator(explicit_control=True)
    q = q0
    explicit_max = initial_max
    survived = 0
    blowup_cap = 1e6 * initial_max
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            try:
                q = _step(control, q, k, dt, sim.tab)
            except (DryStateError, SolverFailureError):
                explicit_max = np.inf
                break
            m = float(np.max(np.abs(q.phi_prime)))
            if m > blowup_cap:
                explicit_max = np.inf
                break
            explicit_max = max(explicit_max, m)
            survived = k + 1

    result = StabilityResult(
        dt_cfl=dt_cfl,
        dt=dt,
        initial_max=initial_max,
        imex_max_ratio=imex_max / initial_max,
        explicit_max_ratio=explicit_max / initial_max,
        explicit_steps_survived=survived,
    )
    if not quiet:
        print(f"explicit gravity-wave dt_CFL = {dt_cfl:.6e}; running at dt = {dt:.6e} "
              f"({cfl_multiple:g}x) for {n_steps} steps")
        print(f"  split method   max|phi'| / initial = {result.imex_max_ratio:.3f}")
        print(f"  explicit control max|phi'| / initial = {result.explicit_max_ratio:.3e} "
              f"(survived {survived} steps)")
    return result
