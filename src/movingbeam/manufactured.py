"""Manufactured exact solutions and the source terms that make them exact.

The built-in cases are separable, ``v(y, t) = amp * g(y) * T(t)`` with
``g = prod_i (y_i^2 - 1)^2`` on the box (-1, 1)^n and a sine or cosine
temporal factor, so v and its gradient vanish on the boundary (clamped
compatibility) and every derivative needed by the strong operator has a
closed form.

The source is built from the strong operator that is *consistent with the
assembled discrete form* under integration by parts:

    f = v_tt + nu v_t + a4_i d_i v_t - b1 |grad v|^2 lap v + b2 bilap v
        - a1_i d_ii v + a2_ij d_ij v + (a3_i + (4n+8) y_i (K'/K)^2) d_i v.

Pairing the discrete form with any other first-order/velocity sign
convention leaves an O(1) defect that caps the reachable accuracy, so this
is the only formula under which the convergence studies can show their
second-order rates.

Each coefficient is a time factor times a polynomial in y, so the operator
is five fixed spatial terms (``strong_terms``) weighted by scalar functions
of t (``strong_coefficients``).  As v is separable, f is those five terms of
g times scalar functions of t (``make_source``): a load never re-integrates f.
In 2D they are sums of tensor products of the five terms of q (``tensor_terms``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import BeamParameters, MovingBoundary, TimeFactors, time_factors

__all__ = ["ManufacturedCase", "make_source", "strong_terms", "strong_coefficients",
           "tensor_terms", "CASE_IDS"]

CASE_IDS = ("S1", "S2")

_AMPLITUDES = {
    ("S1", 1): 1e-1,
    ("S2", 1): 1e-3,
    ("S1", 2): 1e-1,
    ("S2", 2): 1e-7,
}
_TEMPORAL = {"S1": "cos", "S2": "sin"}


def _q(y: np.ndarray, order: int) -> np.ndarray:
    """Derivatives of (y^2 - 1)^2."""
    if order == 0:
        return (y * y - 1.0) ** 2
    if order == 1:
        return 4.0 * y * (y * y - 1.0)
    if order == 2:
        return 12.0 * y * y - 4.0
    if order == 3:
        return 24.0 * y
    if order == 4:
        return np.full_like(y, 24.0)
    if order > 4:
        return np.zeros_like(y)
    raise ValueError(f"negative derivative order {order}")


@dataclass(frozen=True)
class ManufacturedCase:
    """Separable exact solution amp * prod_i (y_i^2-1)^2 * trig(omega t)."""

    case_id: str
    dim: int
    amplitude: float
    temporal: str = "cos"      # "cos" | "sin"
    omega: float = 2.0 * math.pi

    @staticmethod
    def standard(case_id: str, dim: int) -> "ManufacturedCase":
        if case_id not in CASE_IDS:
            raise ValueError(f"unknown case {case_id!r}; expected one of {CASE_IDS}")
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        return ManufacturedCase(
            case_id=case_id,
            dim=dim,
            amplitude=_AMPLITUDES[(case_id, dim)],
            temporal=_TEMPORAL[case_id],
        )

    # -- factors ---------------------------------------------------------------

    @property
    def axis(self) -> "ManufacturedCase":
        """The case in 1D, whose spatial factor q is g's on every axis: g = q (x) .. (x) q."""
        return replace(self, dim=1)

    def temporal_factor(self, t: float, dt_order: int = 0) -> float:
        w = self.omega
        cycle_cos = (math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), math.sin)
        cycle_sin = (math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))
        cycle = cycle_cos if self.temporal == "cos" else cycle_sin
        return w**dt_order * cycle[dt_order % 4](w * t)

    def spatial_factor(self, points: np.ndarray, space: tuple[int, ...]) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if len(space) != self.dim:
            raise ValueError(
                f"spatial multi-index {space} does not match dim {self.dim}"
            )
        out = np.ones(points.shape[0])
        for ax, order in enumerate(space):
            out = out * _q(points[:, ax], order)
        return out

    def eval(self, points, t: float, dt_order: int = 0, space: tuple[int, ...] | None = None) -> np.ndarray:
        """Evaluate d^k/dt^k d^alpha/dy^alpha v at points; orders above 4 per axis unsupported."""
        if space is None:
            space = (0,) * self.dim
        if dt_order not in (0, 1, 2):
            raise ValueError(f"time derivative order {dt_order} not supported")
        if any(o < 0 or o > 4 for o in space):
            raise ValueError(f"spatial derivative order {space} not supported")
        return self.amplitude * self.temporal_factor(t, dt_order) * self.spatial_factor(points, space)

    # -- common composites -------------------------------------------------------

    def grad_norm_sq(self, t: float) -> float:
        """|grad v(., t)|_0^2 over the box, exact for the polynomial factor."""
        # |grad g|^2 = sum_i q'(y_i)^2 prod_{j != i} q(y_j)^2 integrates to
        # dim * int q'^2 * (int q^2)^(dim-1), with int_{-1}^{1} q'(y)^2 dy =
        # 256/105 and int q(y)^2 dy = 256/315
        cg = self.dim * (256.0 / 105.0) * (256.0 / 315.0) ** (self.dim - 1)
        s = self.amplitude * self.temporal_factor(t, 0)
        return s * s * cg

    # -- adapters used by initial-data interpolation ------------------------------

    def initial_displacement(self) -> Callable[[np.ndarray, tuple], np.ndarray]:
        return lambda pts, mi: self.eval(pts, 0.0, 0, tuple(mi))

    def initial_velocity(self) -> Callable[[np.ndarray, tuple], np.ndarray]:
        return lambda pts, mi: self.eval(pts, 0.0, 1, tuple(mi))


def strong_terms(
    derivs: Callable[[np.ndarray, tuple], np.ndarray], n: int,
) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """The five spatial terms of the strong form, as functions of points (npts, n),

        h = (v, lap v, bilap v, sum_i y_i d_i v, 4 sum_ij (1 + delta_ij) y_i y_j d_ij v),

    for v given by ``derivs(points, multi_index)``; ``strong_coefficients``
    gives their weights."""
    eye = np.eye(n, dtype=int)
    pairs = [(i, j) for i in range(n) for j in range(n)]

    def d(y, mi):
        return derivs(y, tuple(int(o) for o in mi))

    return (
        lambda y: d(y, 0 * eye[0]),
        lambda y: sum(d(y, 2 * eye[i]) for i in range(n)),
        lambda y: sum(d(y, 2 * eye[i] + 2 * eye[j]) for i, j in pairs),
        lambda y: sum(y[:, i] * d(y, eye[i]) for i in range(n)),
        lambda y: 4.0 * sum((1 + (i == j)) * y[:, i] * y[:, j] * d(y, eye[i] + eye[j])
                            for i, j in pairs),
    )


def tensor_terms(f: np.ndarray) -> np.ndarray:
    """The ``strong_terms`` of q (x) q from those of q, f (5, m) on one axis, as
    (5, m, m) grids [k, b, a] of x-index a, y-index b; o(f_j, f_i) is f_i (x) f_j."""
    (f0, f1, f2, f3, f4), o = f, np.multiply.outer
    return np.array([o(f0, f0),
                     o(f0, f1) + o(f1, f0),
                     o(f0, f2) + o(f2, f0) + 2.0 * o(f1, f1),
                     o(f0, f3) + o(f3, f0),
                     o(f0, f4) + o(f4, f0) + 8.0 * o(f3, f3)])


def strong_coefficients(tf: TimeFactors, nu: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights over ``strong_terms`` of L1 and of L2 less the Kirchhoff term at
    one time (r = K'/K): the strong-form twin of ``fem.l_coefficients``."""
    r2 = tf.r * tf.r
    return (
        np.array([nu, 0.0, 0.0, -2.0 * tf.r, 0.0]),
        np.array([0.0, -tf.s0, tf.b2, tf.c3 + (4.0 * n + 8.0) * r2, r2]),
    )


def make_source(
    case: ManufacturedCase,
    boundary: MovingBoundary,
    params: BeamParameters,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """Source f(y, t) for which ``case`` solves the transformed equation.

    With v = amp T(t) g(y), f = v_tt + L1 v_t + L2 v - b1 |grad v|^2 lap v is
    sum_k c_k(t) h_k(y) over the five ``strong_terms`` h of g, with
    c = T'' e_0 + T' l1 + T l2, (l1, l2) the ``strong_coefficients`` and the
    Kirchhoff term added to l2's lap weight (amp folded into T).

    The returned callable carries them as data attributes: ``axis_terms``, the
    five terms of q, which are the h_k in 1D and give them in 2D by
    ``tensor_terms``, and ``coefficients``, t -> c(t).  A load is so integrated
    once per 1D term and formed per level as c(t) @ Phi.
    """
    n = case.dim
    terms = strong_terms(case.spatial_factor, n)

    def coefficients(t: float) -> np.ndarray:
        tf = time_factors(boundary, params, t)
        T0, T1, T2 = (case.amplitude * case.temporal_factor(t, k) for k in range(3))
        l1, l2 = strong_coefficients(tf, params.nu, n)
        l2[1] -= tf.b1 * case.grad_norm_sq(t)
        c = T1 * l1 + T0 * l2
        c[0] += T2
        return c

    def f(points: np.ndarray, t: float) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return coefficients(t) @ np.array([h(pts) for h in terms])

    f.axis_terms, f.coefficients = strong_terms(case.axis.spatial_factor, 1), coefficients
    return f
