"""Flat-key run configuration: text files of ``key = value`` lines.

Unknown keys are rejected so experiment manifests stay trustworthy;
``--set key=value`` command-line overrides win over file values.  Parsing
checks each value's type only; ``RunConfig.validate`` checks the whole run,
once, after the overrides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .geometry import BeamParameters, BoundaryKind, MovingBoundary
from .manufactured import ManufacturedCase
from .newmark import ConfigError, NewmarkConfig, whole_steps
from .verification import cells_for_h

__all__ = ["RunConfig", "ConfigError", "parse_config_file", "apply_overrides"]

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass
class RunConfig:
    """One experiment: discretization, physics, boundary, mode flags."""

    dimension: int = 1
    case: str = "S1"                  # S1 | S2 | zero
    homogeneous: bool = False         # solve only: drop the source, keep initial data
    boundary: str = "B1"              # B1 | B2 | constant | linear | exponential
    boundary_base: float = 64.0
    boundary_slope: float = 0.0
    boundary_amplitude: float = 0.0
    boundary_rate: float = 1.0
    zeta0: float = 128.0
    zeta1: float = 2.0
    nu: float = 1.0
    theta: float = 0.25
    h: float = 2.0 ** -6
    dt: float = 2.0 ** -7
    T: float = 1.0
    levels: int = 6                   # convergence study depth
    mode: str = "coupled_h_eq_2dt"    # convergence study mode
    h_list: tuple[float, ...] = (2**-1, 2**-2, 2**-3, 2**-4, 2**-5, 2**-6)
    theta_list: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    snapshots: tuple[float, ...] = ()  # solve: distinct time levels in [0, T] to write
    fit_window_lo: float = 1.0
    fit_window_hi: float = 20.0
    relaxed_h1: bool = False

    def validate(self) -> None:
        if self.dimension not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.case not in ("S1", "S2", "zero"):
            raise ConfigError(f"case must be S1, S2 or zero, got {self.case!r}")
        if self.boundary not in ("B1", "B2", "constant", "linear", "exponential"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        for name in ("h", "dt", "T"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        for theta in (self.theta, *self.theta_list):
            NewmarkConfig.for_horizon(self.T, self.dt, theta=theta)
        for h in (self.h, *self.h_list):
            cells = cells_for_h(h)
            if cells < 2:  # clamping would eliminate every DOF
                raise ConfigError(f"cell size {h} leaves {cells} cell per axis; need >= 2")
        for t in self.snapshots:
            if not 0.0 <= t <= self.T:
                raise ConfigError(f"snapshot time {t} lies outside [0, T] = [0, {self.T}]")
        steps = [whole_steps(t, self.dt, "snapshot time") for t in self.snapshots]
        if len(set(steps)) < len(steps):
            raise ConfigError(f"snapshots {self.snapshots} repeat a time level")
        for name in ("zeta0", "zeta1", "nu", "boundary_base", "boundary_slope",
                     "boundary_amplitude", "boundary_rate", "fit_window_lo",
                     "fit_window_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.fit_window_lo >= self.fit_window_hi:
            raise ConfigError(f"fit window [{self.fit_window_lo}, {self.fit_window_hi}] "
                              "is empty: fit_window_lo must lie below fit_window_hi")
        if self.zeta1 < 0 or self.nu < 0:
            raise ConfigError("zeta1 and nu must be nonnegative")
        if self.levels < 2:
            raise ConfigError(f"levels must be >= 2, got {self.levels}")
        if self.mode not in ("coupled_h_eq_2dt", "fix_h_vary_dt", "fix_dt_vary_h"):
            raise ConfigError(f"unknown study mode {self.mode!r}")

    # -- object construction ---------------------------------------------------

    def manufactured_case(self) -> ManufacturedCase:
        """The run's case; ``zero`` is the S1 shape at amplitude 0."""
        if self.case == "zero":
            return replace(ManufacturedCase.standard("S1", self.dimension), amplitude=0.0)
        return ManufacturedCase.standard(self.case, self.dimension)

    def beam_parameters(self) -> BeamParameters:
        return BeamParameters(zeta0=self.zeta0, zeta1=self.zeta1, nu=self.nu)

    def moving_boundary(self) -> MovingBoundary:
        if self.boundary == "B1":
            return MovingBoundary.b1(self.dimension)
        if self.boundary == "B2":
            return MovingBoundary.b2(self.dimension)
        if self.boundary == "constant":
            return MovingBoundary.constant(self.boundary_base)
        if self.boundary == "linear":
            return MovingBoundary(
                BoundaryKind.LINEAR_DRIFT, base=self.boundary_base,
                slope=self.boundary_slope, k0=self.boundary_base / 2.0,
                k1_bound=2.0 * self.boundary_base + abs(self.boundary_slope) * self.T,
                k2_bound=max(abs(self.boundary_slope), 1.0), label="linear",
            )
        return MovingBoundary(
            BoundaryKind.EXPONENTIAL_SATURATION, base=self.boundary_base,
            amplitude=self.boundary_amplitude, rate=self.boundary_rate,
            k0=self.boundary_base / 2.0,
            k1_bound=2.0 * (self.boundary_base + abs(self.boundary_amplitude)),
            k2_bound=max(abs(self.boundary_amplitude * self.boundary_rate), 1.0),
            label="exponential",
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    t = _FIELD_TYPES[key]
    try:
        if t == "int":
            return int(raw)
        if t == "float":
            return float(raw)
        if t == "bool":
            if raw.lower() not in _BOOL:
                raise ValueError(raw)
            return _BOOL[raw.lower()]
        if t.startswith("tuple[float"):
            if not raw:
                return ()
            return tuple(float(x) for x in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from exc


def parse_config_file(path: str | Path) -> RunConfig:
    """Read ``key = value`` lines; '#' starts a comment; blank lines ignored.

    The result is not validated: call ``RunConfig.validate`` once all
    overrides are applied."""
    cfg = RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``key=value`` strings (from --set flags) onto a config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        setattr(cfg, key.strip(), _parse_value(key.strip(), raw))
    return cfg
