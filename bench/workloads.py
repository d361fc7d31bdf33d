"""The benchmark's workloads.

Each workload is a fixed, deterministic PDE problem; none has random
inputs.  One round of a workload is one complete call of the program's
public entry point (``driver.run`` or ``driver.stability_study``) followed
by the independent checks in :mod:`checks`.  An operation is one time step.

``prepare`` builds the inputs (outside the program's set-up time), ``call``
is the timed call, ``check`` returns failure messages, ``planned_steps``
the steps a round attempts, ``failed_steps`` the ones that raised or left
a non-finite state, and ``shape`` the call counts a traced round must
show: exact counts, and spans that must be called at least once.
"""

import math
from dataclasses import dataclass

import checks

# Published ARS tableaux (Ascher, Ruuth & Spiteri 1997): order, number of
# stages with a nonzero implicit diagonal, and how many distinct values
# those diagonals take.
SCHEMES = {
    "ars222": {"order": 2, "implicit_stages": 2, "distinct_diagonals": 1},
    "ars233": {"order": 3, "implicit_stages": 2, "distinct_diagonals": 1},
}


@dataclass(frozen=True)
class DriverRun:
    """``driver.run`` on a configured case, checked against its closed form."""

    name: str
    case: str  # "mms_nonlinear" or "standing_wave"
    order: int
    n: int  # elements per side
    scheme: str
    dt: float
    t_final: float
    amplitude: float
    backend: str = "direct"
    linear: bool = False
    vtk_every: int = 0
    f0: float = 0.0
    phi_bar: float = 1.0
    min_rounds: int = 1
    root = "driver.run"

    @property
    def steps(self):
        return int(round(self.t_final / self.dt))

    @property
    def snapshots(self):
        return self.steps // self.vtk_every + 1 if self.vtk_every else 0

    def config_text(self, out_dir):
        return "\n".join(
            [
                f"case.name = {self.case}",
                f"case.amplitude = {self.amplitude!r}",
                f"case.linear_mode = {str(self.linear).lower()}",
                f"physics.phi_bar = {self.phi_bar!r}",
                f"physics.f0 = {self.f0!r}",
                f"disc.order = {self.order}",
                f"mesh.nx = {self.n}",
                f"mesh.ny = {self.n}",
                f"time.scheme = {self.scheme}",
                f"time.dt = {self.dt!r}",
                f"time.t_final = {self.t_final!r}",
                f"solver.backend = {self.backend}",
                f"output.dir = {out_dir}",
                f"output.vtk_every_n_steps = {self.vtk_every}",
                "output.csv_series = true",
            ]
        )

    def prepare(self, out_dir):
        from swemix.config import parse_text

        return parse_text(self.config_text(out_dir))

    def call(self, cfg):
        from swemix import driver

        return driver.run(cfg, quiet=True)

    def planned_steps(self, steps):
        return self.steps

    def failed_steps(self, steps):
        done = sum(1 for s in steps if not s.raised and s.finite)
        return self.steps - min(done, self.steps)

    # -- reference ----------------------------------------------------------

    def exact(self, grid, t):
        if self.case == "mms_nonlinear":
            return checks.mms_fields(grid.x, grid.y, t, self.amplitude)
        return checks.standing_wave_fields(grid.x, grid.y, t, self.amplitude, self.phi_bar)

    def tolerance(self):
        if self.case == "mms_nonlinear":
            omega, k = 1.0, 2.0 * math.pi
        else:
            omega = checks.standing_wave_omega(self.phi_bar)
            k = math.pi * math.sqrt(2.0)
        q = SCHEMES[self.scheme]["order"]
        return checks.error_tolerance(self.amplitude, omega, self.dt, q, k, 1.0 / self.n, self.order)

    def check(self, result, steps):
        grid = checks.Grid(self.n, self.n, self.order)
        tol = self.tolerance()
        data = result.final_field.data
        out = checks.check_time(result.t_final, self.t_final, result.steps, self.steps)
        out += checks.check_time(len(steps) * self.dt, self.t_final, len(steps), self.steps)
        if any(not math.isclose(s.t, k * self.dt, rel_tol=checks.TIME_RTOL, abs_tol=1e-300)
               for k, s in enumerate(steps)):
            out.append("a step started at a time other than k * dt")
        out += checks.check_finite(data)
        if out:
            return out
        out += checks.check_l2(grid, data, self.exact(grid, self.t_final), tol)
        out += checks.check_mass(grid, self.exact(grid, 0.0), data, self.phi_bar)
        series = checks.read_csv_series(result.csv_path)
        final_energy = checks.energy(grid, data, self.phi_bar) if self.linear else None
        out += checks.check_series(series, self.dt, self.steps, final_energy)
        paths = list(result.vtk_paths)
        if len(paths) != self.snapshots:
            out.append(f"{len(paths)} VTK snapshots, expected {self.snapshots}")
        for i, path in enumerate(paths):
            t = i * self.vtk_every * self.dt
            out += checks.check_vtk(path, grid, self.exact(grid, t), self.phi_bar, tol)
        return out

    def shape(self, attempted):
        scheme = SCHEMES[self.scheme]
        expect = {
            "imex.step": self.steps,
            "hdg.assemble_local": scheme["distinct_diagonals"],
            "hdg.implicit_solve": scheme["implicit_stages"] * self.steps,
            "hdg.solve_trace": scheme["implicit_stages"] * self.steps,
            "output.write_vtk": self.snapshots,
            "output.csv": self.steps + 2,  # one row per step and the initial state, one write
        }
        if self.linear:
            expect.update({"dg.tendency": 0, "swe.flux": 0, "dg.rusanov_flux": 0})
        return expect, ("dg.tendency",) if not self.linear else ()


@dataclass(frozen=True)
class StabilityStudy:
    """``driver.stability_study``: split method, then the explicit control."""

    name: str
    n: int
    order: int
    cfl_multiple: float
    n_steps: int
    scheme: str
    amplitude_factor: float = 1e-3
    phi_bar: float = 1.0
    min_rounds: int = 1
    root = "driver.stability_study"

    def prepare(self, out_dir):
        return dict(
            nx=self.n,
            order=self.order,
            phi_bar=self.phi_bar,
            amplitude_factor=self.amplitude_factor,
            cfl_multiple=self.cfl_multiple,
            n_steps=self.n_steps,
            scheme=self.scheme,
            quiet=True,
        )

    def call(self, kwargs):
        from swemix import driver

        return driver.stability_study(**kwargs)

    def planned_steps(self, steps):
        # The split run's steps plus however many the control took before
        # it was stopped; the control's blow-up is the expected outcome.
        return self.n_steps + max(len(steps) - self.n_steps, 0)

    def failed_steps(self, steps):
        done = sum(1 for s in steps[: self.n_steps] if not s.raised and s.finite)
        return self.n_steps - done

    def check(self, result, steps):
        h = 1.0 / self.n
        dt_cfl = checks.explicit_gravity_dt(h, self.order, self.phi_bar)
        dt = self.cfl_multiple * dt_cfl
        out = checks.check_dt(result.dt_cfl, dt_cfl, "dt_cfl")
        out += checks.check_dt(result.dt, dt)
        split, control = steps[: self.n_steps], steps[self.n_steps :]
        out += checks.check_time(len(split) * dt, self.n_steps * dt, len(split), self.n_steps)
        if not control:
            out.append("the explicit control took no step")
        if any(not math.isclose(s.t, k * dt, rel_tol=checks.TIME_RTOL, abs_tol=1e-300)
               for seq in (split, control) for k, s in enumerate(seq)):
            out.append("a step started at a time other than k * dt")
        grid = checks.Grid(self.n, self.n, self.order)
        initial = checks.standing_wave_fields(grid.x, grid.y, 0.0, self.amplitude_factor * self.phi_bar, self.phi_bar)
        initial_max = float(abs(initial[..., 0]).max())
        split_growth = max([initial_max] + [s.phi_max for s in split]) / initial_max
        blown = any(s.raised or not s.finite for s in control)
        control_growth = math.inf if blown else max([initial_max] + [s.phi_max for s in control]) / initial_max
        out += checks.check_growth(split_growth, control_growth)
        if not math.isclose(result.imex_max_ratio, split_growth, rel_tol=1e-12):
            out.append(f"reported split growth {result.imex_max_ratio!r} differs from the observed {split_growth!r}")
        out += checks.check_growth(result.imex_max_ratio, result.explicit_max_ratio)
        return out

    def shape(self, attempted):
        scheme = SCHEMES[self.scheme]
        expect = {
            "imex.step": attempted,
            "hdg.assemble_local": scheme["distinct_diagonals"],
            "hdg.implicit_solve": scheme["implicit_stages"] * self.n_steps,
            "hdg.solve_trace": scheme["implicit_stages"] * self.n_steps,
            "output.write_vtk": 0,
        }
        return expect, ("dg.tendency", "swe.flux")


WORKLOADS = {
    "mms_p3_64": (
        DriverRun("mms_p3_64", "mms_nonlinear", order=3, n=64, scheme="ars222", dt=0.01,
                  t_final=0.35, amplitude=0.02, f0=1.0, min_rounds=3),
        DriverRun("mms_p3_64", "mms_nonlinear", order=3, n=8, scheme="ars222", dt=0.01,
                  t_final=0.05, amplitude=0.02, f0=1.0),
    ),
    "wave_linear_iterative": (
        DriverRun("wave_linear_iterative", "standing_wave", order=2, n=64, scheme="ars233", dt=0.005,
                  t_final=0.25, amplitude=0.01, backend="gmres", linear=True, vtk_every=5, min_rounds=5),
        DriverRun("wave_linear_iterative", "standing_wave", order=2, n=8, scheme="ars233", dt=0.005,
                  t_final=0.05, amplitude=0.01, backend="gmres", linear=True, vtk_every=5),
    ),
    "stability_20cfl": (
        StabilityStudy("stability_20cfl", n=16, order=2, cfl_multiple=20.0, n_steps=200, scheme="ars222"),
        StabilityStudy("stability_20cfl", n=4, order=2, cfl_multiple=20.0, n_steps=40, scheme="ars222"),
    ),
}


def get(name, tiny=False):
    """The full-size workload, or its tiny self-test variant."""
    return WORKLOADS[name][1 if tiny else 0]
