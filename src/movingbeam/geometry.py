"""Moving-boundary geometry: K(t) and the transformed coefficients.

The physical beam occupies ``Omega_t = K(t) * Omega``, where ``Omega`` is the
reference box (-1, 1)^n and K a linear drift or an exponential saturation.
Pulling the equation back to the reference box turns the constant-coefficient
operator into one whose coefficients ``b1, b2, a1..a5`` are the time factors
evaluated here times fixed polynomials in y.  The module is pure and stateless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryKind",
    "MovingBoundary",
    "BeamParameters",
    "TimeFactors",
    "HypothesisReport",
    "InvalidBoundaryError",
    "SingularMappingError",
    "eval_boundary",
    "time_factors",
    "validate_hypotheses",
]


class InvalidBoundaryError(ValueError):
    """K, K' or K'' evaluated to a non-finite value."""


class SingularMappingError(ValueError):
    """The mapping x = K(t) y is singular (K <= 0)."""


class BoundaryKind(Enum):
    LINEAR_DRIFT = "linear_drift"            # K(t) = base + slope * t
    EXPONENTIAL_SATURATION = "exp_saturation"  # K(t) = base + amp * (1 - e^{-rate t})


@dataclass(frozen=True)
class MovingBoundary:
    """Scalar end-point trajectory K(t) with analytic derivatives.

    ``k0``/``k1_bound`` bound K itself and ``k2_bound`` bounds K' on the run
    horizon; they are the admissibility constants checked by
    :func:`validate_hypotheses`.
    """

    kind: BoundaryKind
    base: float = 64.0
    slope: float = 0.0        # linear drift rate
    amplitude: float = 0.0    # exponential saturation amplitude
    rate: float = 1.0         # exponential saturation rate
    k0: float = 1e-8
    k1_bound: float = math.inf
    k2_bound: float = math.inf
    label: str = ""

    # -- canonical boundaries used throughout the verification harness -----

    @staticmethod
    def b1(dim: int = 1) -> "MovingBoundary":
        """Slow linear drift: K = 64 + t/2^7 (1D) or 64 + t/2^17 (2D)."""
        slope = 2.0 ** -7 if dim == 1 else 2.0 ** -17
        return MovingBoundary(
            BoundaryKind.LINEAR_DRIFT, base=64.0, slope=slope,
            k0=1.0, k1_bound=128.0, k2_bound=1.0, label=f"B1/{dim}D",
        )

    @staticmethod
    def b2(dim: int = 1) -> "MovingBoundary":
        """Exponential saturation: K = 64 + 2(1-e^-t) (1D) or 64 + (1-e^-t)/2^17 (2D)."""
        amp = 2.0 if dim == 1 else 2.0 ** -17
        return MovingBoundary(
            BoundaryKind.EXPONENTIAL_SATURATION, base=64.0, amplitude=amp, rate=1.0,
            k0=1.0, k1_bound=128.0, k2_bound=4.0, label=f"B2/{dim}D",
        )

    @staticmethod
    def constant(value: float = 64.0) -> "MovingBoundary":
        return MovingBoundary(
            BoundaryKind.LINEAR_DRIFT, base=value,
            k0=value / 2.0, k1_bound=2.0 * value, k2_bound=1.0, label="constant",
        )


@dataclass(frozen=True)
class BeamParameters:
    """Physical constants: tensile load, nonlinear stiffness, damping.

    ``zeta0`` may take any sign.  ``zeta1`` and ``nu`` are nonnegative; zero
    is admitted so the linear and undamped regression cases can run.
    """

    zeta0: float = 128.0
    zeta1: float = 2.0
    nu: float = 1.0

    def __post_init__(self):
        if self.zeta1 < 0.0:
            raise ValueError(f"zeta1 must be nonnegative, got {self.zeta1}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")


def eval_boundary(b: MovingBoundary, t: float) -> tuple[float, float, float]:
    """Return (K, K', K'') at time t, analytically per kind."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if b.kind is BoundaryKind.LINEAR_DRIFT:
        k, kp, kpp = b.base + b.slope * t, b.slope, 0.0
    else:
        try:
            e = math.exp(-b.rate * t)
        except OverflowError:   # a negative rate; reported as non-finite below
            e = math.inf
        k, kp = b.base + b.amplitude * (1.0 - e), b.amplitude * b.rate * e
        kpp = -b.amplitude * b.rate * b.rate * e
    if not (math.isfinite(k) and math.isfinite(kp) and math.isfinite(kpp)):
        raise InvalidBoundaryError(f"non-finite boundary value at t={t}: {(k, kp, kpp)}")
    return k, kp, kpp


@dataclass(frozen=True)
class TimeFactors:
    """Functions of (K, K', K''), as columns over times: as x = K(t) y with K scalar,
    every pulled-back coefficient is one of them times a fixed polynomial in y."""

    k: np.ndarray       # K
    b1: np.ndarray      # zeta1 / K^4
    b2: np.ndarray      # K^-4
    s0: np.ndarray      # zeta0 / K^2
    r: np.ndarray       # K' / K
    c3: np.ndarray      # (2 K'^2 - K (nu K' + K'')) / K^2
    c4: np.ndarray      # (-2 K'^2 - K (nu K' + K'')) / K^2 = c3 - 4 r^2


def time_factors(b: MovingBoundary, p: BeamParameters, times) -> TimeFactors:
    """The time factors at ``times`` of any shape, as columns of that shape.  Each time
    takes one scalar ``eval_boundary`` and Python's K^-4 and K^2, as numpy's vectorized
    exp and power differ in the last ulp; the rest is elementwise, in the scalar order."""
    def scalars(t):
        k, kp, kpp = eval_boundary(b, t)
        if k <= 0.0:
            raise SingularMappingError(f"K(t) must be positive, got K({t}) = {k}")
        return k, kp, kpp, k ** -4, k ** 2
    ts = np.asarray(times, dtype=float)
    rows = np.fromiter(map(scalars, map(float, ts.flat)), np.dtype((float, 5)), ts.size)
    k, kp, kpp, k_4, k2 = rows.T.reshape(5, *ts.shape)
    damping = k * (p.nu * kp + kpp)
    return TimeFactors(k=k, b1=p.zeta1 * k_4, b2=k_4, s0=p.zeta0 / k2, r=kp / k,
                       c3=(2.0 * kp * kp - damping) / k2,
                       c4=(-2.0 * kp * kp - damping) / k2)


@dataclass
class HypothesisReport:
    """Outcome of the admissibility checks on [0, T].

    ``h1_bounds``  : 0 < K0 <= K(t) <= K1 on [0, T]
    ``h1_speed``   : 0 < K'(t) <= K2 on [0, T]
    ``h4``         : max (K')^2 < zeta0 / 4
    """

    h1_bounds: bool
    h1_speed: bool
    h4: bool
    max_kprime_sq: float
    failures: list[str] = field(default_factory=list)
    relaxed: bool = False

    @property
    def ok(self) -> bool:
        if self.relaxed:
            return self.h1_bounds and self.h4
        return self.h1_bounds and self.h1_speed and self.h4

    def summary(self) -> str:
        lines = [
            f"H1 bounds (K0 <= K <= K1):   {'pass' if self.h1_bounds else 'FAIL'}",
            f"H1 speed  (0 < K' <= K2):    {'pass' if self.h1_speed else 'FAIL'}",
            f"H4 (max K'^2 < zeta0/4):     {'pass' if self.h4 else 'FAIL'}"
            f"  [max K'^2 = {self.max_kprime_sq:.6e}]",
        ]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


def validate_hypotheses(
    b: MovingBoundary,
    p: BeamParameters,
    T: float,
    relaxed: bool = False,
) -> HypothesisReport:
    """Check the admissibility hypotheses on [0, T], exactly.

    K and K' of both kinds are monotone, so they take their extrema at t = 0
    and t = T, the only times evaluated.  ``relaxed`` permits K' = 0
    (stationary domain) so that fixed-domain regression runs are not
    rejected; the report still records the strict outcome of the speed
    clause.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got T={T}")
    ts = np.array([0.0, T])
    ks, kps, _ = np.array([eval_boundary(b, float(t)) for t in ts]).T
    max_kp_sq = float(np.max(kps ** 2))
    # each clause: (holds, what fails, index of the end time that decides it)
    clauses = [
        (bool(np.all(ks >= b.k0) and b.k0 > 0.0), f"K(t) < K0 = {b.k0}", np.argmin(ks - b.k0)),
        (bool(np.all(ks <= b.k1_bound)), f"K(t) > K1 = {b.k1_bound}", np.argmax(ks)),
        (bool(np.all(kps > 0.0)), "K'(t) <= 0", np.argmin(kps)),
        (bool(np.all(kps <= b.k2_bound)), f"K'(t) > K2 = {b.k2_bound}", np.argmax(kps)),
        (max_kp_sq < p.zeta0 / 4.0,
         f"max (K')^2 = {max_kp_sq:.6e} >= zeta0/4 = {p.zeta0 / 4.0:.6e}", np.argmax(kps ** 2)),
    ]
    lo, hi, pos, spd, h4 = (holds for holds, _, _ in clauses)
    return HypothesisReport(
        h1_bounds=lo and hi,
        h1_speed=pos and spd,
        h4=h4,
        max_kprime_sq=max_kp_sq,
        failures=[f"{what} near t = {float(ts[i]):.6g}" for holds, what, i in clauses
                  if not holds],
        relaxed=relaxed,
    )
