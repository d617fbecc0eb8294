"""Physical energy of the beam and its exponential-decay fit.

The energy is defined on the moving physical domain and evaluated on the
reference box through the change of variables x = K(t) y (volume factor
K^n, gradients scaled by 1/K, and the transport correction in the velocity).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem import HermiteSpace
from .geometry import BeamParameters, MovingBoundary, time_factors
from .newmark import Trajectory

__all__ = ["energy_series", "DecayFit", "decay_fit"]


def _energies(space: HermiteSpace, factors: np.ndarray, d: np.ndarray, d_dot: np.ndarray,
              nq: int) -> np.ndarray:
    """E at each row of the stacks d, v = d_dot (m, ndof), the rows of ``factors``
    (5, m) the time factors K, r, b1, b2, s0 at their m times.  With r = K'/K,
    u_t = v - r y.grad u and ``space.operators``,
        2E/K^n = v^T A v - 2r v^T P d + r^2 |y.grad u|^2 + b2 d^T K2 d + s0 d^T K1 d
                 + b1/2 int |grad u|^4,
    |y.grad u|^2 = d^T Q d / 2, plus <X, P X P> on the grid X of d in 2D (P of the axis).
    The stack d takes one product with the five operators and v one with A; only the
    quartic term is a quadrature, of the gradient fields."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(d_dot))):
        raise ValueError("energy of a non-finite state is undefined")
    k, r, b1, b2, s0 = factors
    dim, m, ops = space.mesh.dim, len(d), space.operators
    if dim == 1:  # columns of the CSR kernel's product with the stacked five
        Od, Av, cross = (ops.stacked @ d.T).reshape(5, -1, m), ops.A @ d_dot.T, 0.0
    else:  # per state on its grid; A(x)A V = A V A
        A, P, n = ops.axis.A, ops.axis.P, ops.axis.A.shape[0]
        Od = np.stack([ops.products(x) for x in d], axis=-1)
        Av = np.stack([(A @ V @ A).ravel() for V in d_dot.reshape(m, n, n)], axis=-1)
        cross = np.array([np.vdot(X, P @ X @ P) for X in d.reshape(m, n, n)])
    dot = functools.partial(np.einsum, "is,is->s", d.T)
    w = np.tile(space.basis_tables(nq)["w"], space.mesh.ncells)
    grad_sq = sum(space.eval_at_quad(d, nq, f"grad{i}").reshape(m, -1) ** 2 for i in range(dim))
    twice = (np.einsum("is,is->s", d_dot.T, Av - 2.0 * r * Od[4])
             + r * r * (0.5 * dot(Od[3]) + cross) + b2 * dot(Od[2]) + s0 * dot(Od[1])
             + 0.5 * b1 * (grad_sq**2 @ w))
    return 0.5 * k**dim * twice


def energy_series(
    space: HermiteSpace,
    boundary: MovingBoundary,
    params: BeamParameters,
    trajectory: Trajectory,
    nq: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, E(t)) along a completed trajectory, with second-order discrete
    velocities (central inside, one-sided at the ends):

        E(t) = 1/2 int |u'|^2 + |lap_x u|^2 + zeta0 |grad_x u|^2 dx + (zeta1/4) int |grad_x u|^4 dx.

    The quartic term is pointwise; it is not the nonlocal Kirchhoff energy
    (zeta1/4) (int |grad_x u|^2 dx)^2 of the equation the scheme solves.  The time
    factors of all states come from one ``time_factors`` call, and the states are
    evaluated in blocks (``HermiteSpace.state_blocks``): a block stacks its own states
    and takes their velocities from the neighbours in ``trajectory.d``, so the
    trajectory is never copied whole.  A block takes one product of its states with
    the five constant operators, one A product of its velocities and the quadrature
    of its gradient fields, at ``nq`` Gauss points per axis and cell."""
    if not trajectory.completed:
        raise ValueError("cannot compute the energy of a diverged trajectory")
    d, times = trajectory.d, np.asarray(trajectory.times, dtype=float)
    n = len(d) - 1
    if n < 2:
        raise ValueError("need at least two steps to reconstruct velocities")
    dt = float(times[1] - times[0])
    f = time_factors(boundary, params, times)
    factors = np.stack([f.k, f.r, f.b1, f.b2, f.s0])
    E = np.empty(n + 1)
    for lo, hi in space.state_blocks(n + 1, nq):
        a = max(lo - 1, 0)
        ext = np.array(d[a:hi + 1])  # the block and its neighbours
        v = np.empty((hi - lo, ext.shape[1]))
        v[(lo == 0):hi - lo - (hi == n + 1)] = ext[2:] - ext[:-2]  # states inside the run
        if lo == 0:
            v[0] = -3.0 * d[0] + 4.0 * d[1] - d[2]
        if hi == n + 1:
            v[-1] = 3.0 * d[n] - 4.0 * d[n - 1] + d[n - 2]
        E[lo:hi] = _energies(space, factors[:, lo:hi], ext[lo - a:hi - a], v / (2.0 * dt), nq)
    return times, E


@dataclass
class DecayFit:
    """Least-squares fit E(t) ~ A0 exp(-A1 t) on a time window."""

    A0: float
    A1: float
    r_squared: float
    window: tuple[float, float]


def decay_fit(times: np.ndarray, energies: np.ndarray, window: tuple[float, float]) -> DecayFit:
    """Fit log E linearly over the window; energies there must be positive."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 2:
        raise ValueError(f"window {window} selects fewer than two samples")
    ts = times[mask]
    es = energies[mask]
    if np.any(es <= 0.0):
        raise ValueError("nonpositive energies inside the fit window")
    logs = np.log(es)
    slope, intercept = np.polyfit(ts, logs, 1)
    pred = slope * ts + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(A0=math.exp(intercept), A1=-slope, r_squared=r2, window=(lo, hi))
