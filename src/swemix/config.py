"""Flat key-value configuration files.

Format: one ``section.key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Unknown keys are a hard error so typos cannot silently fall
back to defaults.  The selected case sets the domain and the boundary kinds,
since its exact solution holds only there; the mesh section sets only the
element counts.  Everything else has an explicit default below.
"""

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

from . import cases, imex
from .basis import MAX_ORDER
from .errors import (
    ConfigParseError,
    InvalidArgumentError,
    InvalidValueError,
    MissingConfigError,
    UnknownKeyError,
)
from .hdg import load_backend


@dataclass
class MeshConfig:
    nx: int = 16
    ny: int = 16


@dataclass
class DiscConfig:
    order: int = 2
    tau: Optional[float] = None  # None -> sqrt(phi_bar)


@dataclass
class PhysicsConfig:
    phi_bar: float = 1.0
    f0: float = 0.0
    beta: float = 0.0
    drag: float = 0.0


@dataclass
class TimeConfig:
    dt: float = 0.0  # required
    t_final: float = 0.0  # required
    scheme: str = "ars222"


@dataclass
class CaseConfig:
    name: str = ""  # required
    amplitude: Optional[float] = None  # None -> case default
    linear_mode: bool = False


@dataclass
class SolverConfig:
    backend: str = "direct"
    rel_tol: float = 1e-10
    max_iter: int = 500  # GMRES restart cycles of 30 inner iterations (SciPy's maxiter)


@dataclass
class OutputConfig:
    dir: str = "out"
    vtk_every_n_steps: int = 0  # 0 disables snapshots
    csv_series: bool = True


@dataclass
class Config:
    mesh: MeshConfig = field(default_factory=MeshConfig)
    disc: DiscConfig = field(default_factory=DiscConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    case: CaseConfig = field(default_factory=CaseConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {
    "mesh": MeshConfig,
    "disc": DiscConfig,
    "physics": PhysicsConfig,
    "time": TimeConfig,
    "case": CaseConfig,
    "solver": SolverConfig,
    "output": OutputConfig,
}

_REQUIRED = ("time.dt", "time.t_final", "case.name")


def _field_types():
    table = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            t = f.type
            if t is int:
                kind = int
            elif t is float or t == Optional[float]:
                kind = float
            elif t is bool:
                kind = bool
            else:
                kind = str
            table[f"{section}.{f.name}"] = kind
    return table


_KEY_TYPES = _field_types()


def _convert(key, raw):
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise InvalidValueError(key, f"cannot parse {raw!r} as {kind.__name__}: {exc}") from None


def parse_text(text):
    """Parse configuration text into a validated Config."""
    cfg = Config()
    given = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigParseError(f"expected 'key = value', got {body!r}", lineno)
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_TYPES:
            raise UnknownKeyError(key)
        if key in given:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        if not raw:
            raise ConfigParseError(f"empty value for {key!r}", lineno)
        given.add(key)
        section, name = key.split(".", 1)
        setattr(getattr(cfg, section), name, _convert(key, raw))
    for key in _REQUIRED:
        if key not in given:
            raise InvalidValueError(key, "required key is missing")
    validate(cfg)
    return cfg


def load_config(path):
    if not os.path.isfile(path):
        raise MissingConfigError(f"configuration file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def validate(cfg):
    """Cross-field validation; all referenced names must resolve now."""
    for key, kind in _KEY_TYPES.items():
        section, name = key.split(".", 1)
        value = getattr(getattr(cfg, section), name)
        if kind is float and value is not None and not math.isfinite(value):
            raise InvalidValueError(key, f"must be finite, got {value!r}")
    for key in ("nx", "ny"):
        if getattr(cfg.mesh, key) < 1:
            raise InvalidValueError(f"mesh.{key}", f"element counts must be >= 1, got {cfg.mesh.nx}x{cfg.mesh.ny}")
    if not 1 <= cfg.disc.order <= MAX_ORDER:
        raise InvalidValueError("disc.order", f"must be in [1, {MAX_ORDER}], got {cfg.disc.order}")
    if cfg.disc.tau is not None and cfg.disc.tau <= 0.0:
        raise InvalidValueError("disc.tau", f"must be positive, got {cfg.disc.tau}")
    if cfg.physics.phi_bar <= 0.0:
        raise InvalidValueError("physics.phi_bar", f"must be positive, got {cfg.physics.phi_bar}")
    if cfg.physics.drag < 0.0:
        raise InvalidValueError("physics.drag", f"must be nonnegative, got {cfg.physics.drag}")
    if cfg.time.dt <= 0.0:
        raise InvalidValueError("time.dt", f"must be positive, got {cfg.time.dt}")
    if cfg.time.t_final < cfg.time.dt:
        raise InvalidValueError("time.t_final", f"must be at least dt, got {cfg.time.t_final}")
    steps = cfg.time.t_final / cfg.time.dt
    if not math.isfinite(steps):
        raise InvalidValueError("time.t_final", f"t_final / dt overflows: {cfg.time.t_final!r} / {cfg.time.dt!r}")
    n_steps = round(steps)
    if abs(cfg.time.t_final - n_steps * cfg.time.dt) > 1e-9 * cfg.time.t_final:
        raise InvalidValueError(
            "time.t_final",
            f"must be an integer multiple of time.dt = {cfg.time.dt!r}, got {cfg.time.t_final!r}",
        )
    if cfg.time.scheme not in imex.scheme_names():
        raise InvalidValueError(
            "time.scheme", f"unknown scheme {cfg.time.scheme!r}; available: {', '.join(imex.scheme_names())}"
        )
    if cfg.case.name not in cases.case_names():
        raise InvalidValueError(
            "case.name", f"unknown case {cfg.case.name!r}; available: {', '.join(cases.case_names())}"
        )
    if cfg.case.amplitude is not None and cfg.case.amplitude <= 0.0:
        raise InvalidValueError("case.amplitude", f"must be positive, got {cfg.case.amplitude}")
    try:
        # a gmres config loads SciPy here, before a run times its set-up
        load_backend(cfg.solver.backend)
    except InvalidArgumentError as exc:
        raise InvalidValueError("solver.backend", str(exc)) from None
    if cfg.solver.rel_tol <= 0.0:
        raise InvalidValueError("solver.rel_tol", f"must be positive, got {cfg.solver.rel_tol}")
    if cfg.solver.max_iter < 1:
        raise InvalidValueError("solver.max_iter", f"must be >= 1, got {cfg.solver.max_iter}")
    if cfg.output.vtk_every_n_steps < 0:
        raise InvalidValueError("output.vtk_every_n_steps", "must be nonnegative")
    return cfg
