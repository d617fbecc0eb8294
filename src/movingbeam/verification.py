"""Verification harness: error norms, convergence studies, theta sweeps.

Everything here measures the solver against manufactured exact solutions:
per-step spatial L2 and Laplacian-seminorm errors, their maxima over the
run, tables of errors under mesh/step refinement with observed log2 rates,
and the stability sweep over the scheme parameter theta where divergence is
recorded as data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fem import (
    REFERENCE_INTERVAL,
    HermiteSpace,
    Mesh,
    assemble_constant,
    interpolate_initial,
    l_coefficients,
)
from .geometry import BeamParameters, MovingBoundary, time_factors
from .manufactured import ManufacturedCase, make_source, strong_coefficients, strong_terms
from .newmark import BeamSystem, ConfigError, NewmarkConfig, Trajectory, advance

_FORM_VALUES = 2 ** 14   # entries of a block of states in error_norms

__all__ = [
    "SimulationResult",
    "ErrorReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "ThetaSweepResult",
    "simulate",
    "error_norms",
    "convergence_study",
    "theta_sweep",
    "weak_strong_consistency",
    "cells_for_h",
    "exact_nodal_trajectory",
]


def cells_for_h(h: float) -> int:
    """Cells per axis of the reference box for a cell size h that tiles it."""
    length = REFERENCE_INTERVAL[1] - REFERENCE_INTERVAL[0]
    n = length / h
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ConfigError(f"cell size {h} does not tile a box of length {length}")
    return int(round(n))


@dataclass
class SimulationResult:
    space: HermiteSpace
    trajectory: Trajectory
    config: NewmarkConfig


def simulate(
    case: ManufacturedCase,
    boundary: MovingBoundary,
    params: BeamParameters,
    cells: int,
    cfg: NewmarkConfig,
    homogeneous: bool = False,
) -> SimulationResult:
    """Assemble and march one run on the reference box (-1, 1)^n, ``cells`` per axis.

    The initial data and the source come from ``case``; ``homogeneous=True``
    keeps the initial data but drops the source.  The zero run is a case of
    amplitude 0 run homogeneously.
    """
    space = HermiteSpace(Mesh(case.dim, cells))
    source = None if homogeneous else make_source(case, boundary, params)
    system = BeamSystem(space, space.operators, boundary, params, source)
    d0 = interpolate_initial(space, case.initial_displacement())
    d1 = interpolate_initial(space, case.initial_velocity())
    return SimulationResult(space, advance(system, cfg, d0, d1), cfg)


@dataclass
class ErrorReport:
    """Max-over-time spatial errors plus the per-step series."""

    linf_l2: float
    linf_h2: float
    times: np.ndarray
    l2_series: np.ndarray
    h2_series: np.ndarray
    diverged: bool = False


def error_norms(
    space: HermiteSpace,
    trajectory: Trajectory,
    case: ManufacturedCase,
    nq: int = 8,
) -> ErrorReport:
    """Per-step L2 and Laplacian-seminorm errors against the exact solution
    s(t) g(y), s = amp T(t).  With p the interpolant of g and e = d - s p, both
    are quadratic forms of the run's operators (``HermiteSpace.operators``):
    ||u_h - s g||^2 = e^T A e + 2 s e^T c0 + s^2 ||p - g||^2, c0 = (p - g, phi),
    and likewise with K2, lap and c2 = (lap(p - g), lap phi).  ``nq`` sets only
    the rule of the one quadrature of p - g (exact for nq >= 5); the states are
    read in blocks of at most ``_FORM_VALUES`` values."""
    if not trajectory.completed:
        return ErrorReport(math.nan, math.nan, trajectory.times, np.array([]), np.array([]),
                           diverged=True)
    tab, dim = space.basis_tables(nq), space.mesh.dim
    pts, w = tab["points"].reshape(-1, dim), tab["w"]
    p = interpolate_initial(space, case.spatial_factor)
    c, r = np.empty((2, space.ndof)), np.empty((2, 1))
    for k, (deriv, g) in enumerate(zip(("N", "lap"), strong_terms(case.spatial_factor, dim))):
        res = space.eval_at_quad(p, nq, deriv) - g(pts).reshape(space.mesh.ncells, -1)
        c[k] = space.scatter_vector(res * w @ tab[deriv])
        r[k] = np.sum(res * res @ w)
    s = case.amplitude * np.array([case.temporal_factor(float(t)) for t in trajectory.times])
    sq = s * s * r
    size = max(1, _FORM_VALUES // space.ndof)
    for lo in range(0, s.size, size):
        e = np.column_stack(trajectory.d[lo:lo + size]) - np.outer(p, s[lo:lo + size])
        sq[:, lo:lo + size] += space.operators.error_forms(e) + 2.0 * s[lo:lo + size] * (c @ e)
    l2, h2 = np.sqrt(sq)
    return ErrorReport(float(l2.max()), float(h2.max()), trajectory.times, l2, h2)


def exact_nodal_trajectory(space: HermiteSpace, case: ManufacturedCase, times) -> Trajectory:
    """Trajectory whose DOFs are the exact nodal values (interpolation-error probe)."""
    ds = [
        interpolate_initial(space, lambda pts, mi, t=float(t): case.eval(pts, t, 0, tuple(mi)))
        for t in times
    ]
    return Trajectory(d=ds, times=np.asarray(times, dtype=float), newton_iterations=[])


@dataclass
class ConvergenceRow:
    level: int
    h: float
    dt: float
    error: float
    rate: float | None = None
    diverged: bool = False


@dataclass
class ConvergenceTable:
    mode: str
    rows: list[ConvergenceRow] = field(default_factory=list)

    def fill_rates(self) -> None:
        prev: ConvergenceRow | None = None
        for row in self.rows:
            if row.diverged:
                row.rate = None
                prev = None  # a gap breaks the per-halving chain
                continue
            if prev is not None and row.error > 0:
                row.rate = math.log2(prev.error / row.error)
            else:
                row.rate = None
            prev = row

    @property
    def rates(self) -> list[float | None]:
        return [r.rate for r in self.rows]

    @property
    def errors(self) -> list[float]:
        return [r.error for r in self.rows]


def convergence_study(
    case: ManufacturedCase,
    boundary: MovingBoundary,
    params: BeamParameters,
    mode: str,
    levels: int,
    theta: float = 0.25,
    T: float = 1.0,
    fixed_h: float = 2.0 ** -6,
    fixed_dt: float = 2.0 ** -7,
) -> ConvergenceTable:
    """Run a refinement study and tabulate errors with observed rates.

    Modes: ``coupled_h_eq_2dt`` (h = 2 dt, dt = 2^-(i+1)), ``fix_h_vary_dt``
    and ``fix_dt_vary_h`` (h = 2^-i), for level index i = 1..levels.
    """
    if levels < 2:
        raise ValueError("need at least two levels for a convergence study")
    table = ConvergenceTable(mode=mode)
    for i in range(1, levels + 1):
        if mode == "coupled_h_eq_2dt":
            dt = 2.0 ** -(i + 1)
            h = 2.0 * dt
        elif mode == "fix_h_vary_dt":
            dt = 2.0 ** -(i + 1)
            h = fixed_h
        elif mode == "fix_dt_vary_h":
            dt = fixed_dt
            h = 2.0 ** -i
        else:
            raise ValueError(f"unknown study mode {mode!r}")
        cells = cells_for_h(h)
        cfg = NewmarkConfig.for_horizon(T, dt, theta=theta)
        res = simulate(case, boundary, params, cells, cfg)
        if not res.trajectory.completed:
            table.rows.append(ConvergenceRow(i, h, dt, math.nan, diverged=True))
            continue
        rep = error_norms(res.space, res.trajectory, case)
        table.rows.append(ConvergenceRow(i, h, dt, rep.linf_l2))
    table.fill_rates()
    return table


@dataclass
class ThetaSweepResult:
    h_values: list[float]
    theta_values: list[float]
    errors: dict[tuple[float, float], float | None] = field(default_factory=dict)

    def error(self, h: float, theta: float) -> float | None:
        return self.errors[(h, theta)]

    def diverged(self, h: float, theta: float) -> bool:
        return self.errors[(h, theta)] is None


def theta_sweep(
    case: ManufacturedCase,
    boundary: MovingBoundary,
    params: BeamParameters,
    h_values: Sequence[float],
    theta_values: Sequence[float],
    dt: float = 2.0 ** -7,
    T: float = 1.0,
) -> ThetaSweepResult:
    """Error per (h, theta) cell at fixed dt; divergence recorded as None."""
    out = ThetaSweepResult(h_values=list(h_values), theta_values=list(theta_values))
    for h in h_values:
        cells = cells_for_h(h)
        for theta in theta_values:
            cfg = NewmarkConfig.for_horizon(T, dt, theta=theta)
            res = simulate(case, boundary, params, cells, cfg)
            if res.trajectory.completed:
                rep = error_norms(res.space, res.trajectory, case)
                out.errors[(h, theta)] = rep.linf_l2
            else:
                out.errors[(h, theta)] = None
    return out


def weak_strong_consistency(
    space: HermiteSpace,
    boundary: MovingBoundary,
    params: BeamParameters,
    t: float,
    v_derivs: Callable[[np.ndarray, tuple], np.ndarray],
    w_derivs: Callable[[np.ndarray, tuple], np.ndarray],
    nq: int = 12,
) -> float:
    """|weak form on interpolants - quadrature of (strong operator of v) * w|.

    Exercises the spatial operator only: the Kirchhoff scalar is evaluated
    from the exact gradient on both sides so the residual isolates the
    assembly/by-parts bookkeeping.  Must shrink at least quadratically under
    mesh refinement when the assembled form and the strong operator agree.
    """
    dim = space.mesh.dim
    f = time_factors(boundary, params, t)

    # exact Kirchhoff scalar from the exact gradient
    tab = space.basis_tables(nq)
    pts = tab["points"].reshape(-1, dim)
    w_q = np.tile(tab["w"], space.mesh.ncells)
    grad_sq = sum(v_derivs(pts, tuple(int(o) for o in e)) ** 2 for e in np.eye(dim))
    g_exact = f.b1 * float(np.sum(grad_sq * w_q))

    # full-space operators: the trial function need not satisfy the clamped
    # conditions; the (clamped) test function kills the constrained rows
    ops = assemble_constant(space, full_space=True)
    L2f = ops.combine(l_coefficients(f, params.nu)[1])

    d_v = interpolate_initial(space, v_derivs, full_space=True)
    d_w = space.expand(interpolate_initial(space, w_derivs))
    weak = float(d_w @ (L2f @ d_v)) + g_exact * float(d_w @ (ops.K1 @ d_v))

    # the same operator in strong form, applied to v at the quadrature grid
    weights = strong_coefficients(f, params.nu, dim)[1]
    weights[1] -= g_exact
    strong = sum(c * h(pts) for c, h in zip(weights, strong_terms(v_derivs, dim)))
    strong_val = float(np.sum(strong * w_derivs(pts, (0,) * dim) * w_q))
    return abs(weak - strong_val)
