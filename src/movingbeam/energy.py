"""Physical energy of the beam and its exponential-decay fit.

The energy is defined on the moving physical domain and evaluated on the
reference box through the change of variables x = K(t) y (volume factor
K^n, gradients scaled by 1/K, and the transport correction in the velocity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import HermiteSpace
from .geometry import BeamParameters, MovingBoundary, time_factors
from .newmark import Trajectory

__all__ = ["energy_from_state", "energy_series", "DecayFit", "decay_fit"]


def energy_from_state(
    space: HermiteSpace,
    boundary: MovingBoundary,
    params: BeamParameters,
    d: np.ndarray,
    d_dot: np.ndarray,
    t: float,
    nq: int = 8,
) -> float:
    """E(t) = 1/2 int |u'|^2 + |lap_x u|^2 + zeta0 |grad_x u|^2 + zeta1/2 |grad_x u|^4 dx."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(d_dot))):
        raise ValueError("energy of a non-finite state is undefined")
    f = time_factors(boundary, params, t)
    dim = space.mesh.dim
    tab = space.basis_tables(nq)
    w = tab["w"]

    v_dot = space.eval_at_quad(d_dot, nq, "N")
    lap = space.eval_at_quad(d, nq, "lap")
    grads = [space.eval_at_quad(d, nq, f"grad{i}") for i in range(dim)]
    pts = tab["points"]

    y_dot_grad = sum(pts[:, :, i] * grads[i] for i in range(dim))
    u_prime = v_dot - f.r * y_dot_grad
    grad_sq = sum(g * g for g in grads)

    density = u_prime**2 + f.b2 * lap**2 + f.s0 * grad_sq + 0.5 * f.b1 * grad_sq**2
    return 0.5 * f.k**dim * float(np.sum(density * w[None, :]))


def _velocity_series(trajectory: Trajectory) -> list[np.ndarray]:
    """Second-order discrete velocities: central inside, one-sided at the ends."""
    d = trajectory.d
    n = len(d) - 1
    if n < 2:
        raise ValueError("need at least two steps to reconstruct velocities")
    dt = float(trajectory.times[1] - trajectory.times[0])
    vels = [(-3.0 * d[0] + 4.0 * d[1] - d[2]) / (2.0 * dt)]
    for eta in range(1, n):
        vels.append((d[eta + 1] - d[eta - 1]) / (2.0 * dt))
    vels.append((3.0 * d[n] - 4.0 * d[n - 1] + d[n - 2]) / (2.0 * dt))
    return vels


def energy_series(
    space: HermiteSpace,
    boundary: MovingBoundary,
    params: BeamParameters,
    trajectory: Trajectory,
    nq: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, E(t)) along a completed trajectory."""
    if not trajectory.completed:
        raise ValueError("cannot compute the energy of a diverged trajectory")
    vels = _velocity_series(trajectory)
    E = np.array(
        [
            energy_from_state(
                space, boundary, params, d, v, float(t), nq=nq
            )
            for d, v, t in zip(trajectory.d, vels, trajectory.times)
        ]
    )
    return np.asarray(trajectory.times, dtype=float), E


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
