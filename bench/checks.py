"""Checks of the benchmark, computed apart from the program.

Each check compares an output of movingbeam with a closed form the benchmark
evaluates itself, or tests a property the method must have.  None of them
compares with a stored copy of an earlier output.
"""
from __future__ import annotations

import math

import numpy as np

# E(0) from the trajectory against the closed form: the two agree to about
# 5e-9 at 128 cells and dt = 2^-7, and an energy off by 1e-6 must fail.
ENERGY_RTOL = 1e-7
# The program's error norm against the benchmark's own: both integrate the
# same piecewise polynomial exactly, so they differ only by roundoff.
ERROR_RTOL = 1e-9
MIN_R_SQUARED = 0.98


def s1_rest_energy_1d(amplitude: float, k: float, kp: float,
                      zeta0: float, zeta1: float) -> float:
    """Energy of u(x) = a ((x/K)^2 - 1)^2 at rest on the domain K (-1, 1).

    The datum is the S1 shape at t = 0, where its cosine time factor has zero
    derivative, so the material velocity is the transport term
    u' = -(K'/K) y v_y alone.  With x = K y the energy

        E = 1/2 int u'^2 + |u_xx|^2 + zeta0 |u_x|^2 + zeta1/2 |u_x|^4 dx

    is a polynomial integral over (-1, 1), evaluated exactly here.
    """
    y = np.polynomial.Polynomial([0.0, 1.0])
    v = amplitude * (y * y - 1.0) ** 2
    vy = v.deriv()
    vyy = vy.deriv()
    u_t = -(kp / k) * y * vy
    density = (u_t ** 2 + k ** -4 * vyy ** 2 + zeta0 * k ** -2 * vy ** 2
               + 0.5 * zeta1 * k ** -4 * vy ** 4)
    antiderivative = density.integ()
    return 0.5 * k * float(antiderivative(1.0) - antiderivative(-1.0))


def energy_matches(program: float, closed_form: float) -> bool:
    return abs(program - closed_form) <= ENERGY_RTOL * abs(closed_form)


def decay_ok(a1: float, r_squared: float) -> bool:
    """The energy decays exponentially: A1 > 0 with a good log-linear fit."""
    return a1 > 0.0 and r_squared > MIN_R_SQUARED


def _cell_gauss(lo: float, hi: float, cells: int, npts: int):
    """Gauss-Legendre points and weights of every cell of a uniform axis."""
    x, w = np.polynomial.legendre.leggauss(npts)
    h = (hi - lo) / cells
    origins = lo + h * np.arange(cells)
    pts = (origins[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    return pts, np.tile(0.5 * h * w, cells)


def s1_linf_l2_error(space, trajectory, amplitude: float,
                     omega: float = 2.0 * math.pi, npts: int = 5) -> float:
    """max over the stored steps of || v_h - v ||_L2 for the S1 solution.

    v(y, t) = amplitude * prod_i (y_i^2 - 1)^2 * cos(omega t).  The error of
    the cubic Hermite / bicubic field against this quartic is a polynomial of
    degree 8 per axis on each cell, so ``npts`` >= 5 Gauss points per axis
    integrate it exactly.
    """
    mesh = space.mesh
    axes = [_cell_gauss(lo, hi, n, npts) for (lo, hi), n in zip(mesh.box, mesh.cells_per_axis)]
    if mesh.dim == 1:
        points = axes[0][0][:, None]
        weights = axes[0][1]
    else:
        (px, wx), (py, wy) = axes
        X, Y = np.meshgrid(px, py, indexing="xy")
        points = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.outer(wy, wx).ravel()
    shape = np.prod((points ** 2 - 1.0) ** 2, axis=1)
    worst = 0.0
    for d, t in zip(trajectory.d, trajectory.times):
        exact = amplitude * math.cos(omega * float(t)) * shape
        diff = space.eval_points(d, points) - exact
        worst = max(worst, math.sqrt(float(np.sum(weights * diff * diff))))
    return worst


def errors_match(program: float, own: float) -> bool:
    return abs(program - own) <= ERROR_RTOL * abs(own)


def observed_rate(coarse_error: float, fine_error: float) -> float:
    """log2 of the error ratio between two levels one halving apart."""
    return math.log2(coarse_error / fine_error)


def rate_in_band(rate: float, band: tuple[float, float]) -> bool:
    return band[0] <= rate <= band[1]
