"""Cubic Hermite shape functions on the reference cell [0, 1]^dim.

1D: four cubics on [0, 1] carrying (value, derivative) at each end; the
derivative shapes are scaled by the cell size so the degrees of freedom are
the physical nodal derivatives.  In dim dimensions the 4^dim shapes are the
tensor products of the 1D ones (in 2D the Bogner-Fox-Schmit square), and
every derivative table is the product of one 1D table per axis.

Local DOF order
  1D: [v(0), v'(0), v(L), v'(L)]
  any dim: local DOF a is, on axis k, the 1D shape 2 c_k + d_k, where the
      corner bit c_k is bit dim + k of a and the derivative bit d_k is bit k.
      So a = 2^dim * corner + derivative, corners and per-corner derivatives
      both with the first axis fastest; in 2D corners (0,0), (1,0), (0,1),
      (1,1), each with [v, vx, vy, vxy]  ->  16 local DOFs.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["shape_eval_1d", "shape_eval", "local_layout"]

# reference cubics on s in [0,1] and their derivatives in s
_H = (
    lambda s: 2 * s**3 - 3 * s**2 + 1,   # value at 0
    lambda s: s**3 - 2 * s**2 + s,       # slope at 0
    lambda s: -2 * s**3 + 3 * s**2,      # value at 1
    lambda s: s**3 - s**2,               # slope at 1
)
_dH = (
    lambda s: 6 * s**2 - 6 * s,
    lambda s: 3 * s**2 - 4 * s + 1,
    lambda s: -6 * s**2 + 6 * s,
    lambda s: 3 * s**2 - 2 * s,
)
_ddH = (
    lambda s: 12 * s - 6,
    lambda s: 6 * s - 4,
    lambda s: -12 * s + 6,
    lambda s: 6 * s - 2,
)

# per local 1D DOF: (reference cubic index, derivative-DOF flag)
_DOF_1D = ((0, 0), (1, 1), (2, 0), (3, 1))


def shape_eval_1d(s, h: float):
    """Evaluate the four 1D shapes at local coords s in [0,1] on a cell of size h.

    Returns (N, dN, ddN) with shape (len(s), 4); derivatives are with respect
    to the physical coordinate.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < -1e-12) or np.any(s > 1 + 1e-12):
        raise ValueError(f"local coordinate outside the reference cell: {s}")
    N = np.empty((s.size, 4))
    dN = np.empty((s.size, 4))
    ddN = np.empty((s.size, 4))
    for a, (idx, isder) in enumerate(_DOF_1D):
        scale = h if isder else 1.0
        N[:, a] = scale * _H[idx](s)
        dN[:, a] = scale * _dH[idx](s) / h
        ddN[:, a] = scale * _ddH[idx](s) / h**2
    return N, dN, ddN


def local_layout(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(corner, derivative) bits of every local DOF, each (4^dim, dim)."""
    a = np.arange(4 ** dim)[:, None]
    k = np.arange(dim)[None, :]
    return (a >> (dim + k)) & 1, (a >> k) & 1


def shape_eval(local, h: Sequence[float]) -> Callable[[Sequence[int]], np.ndarray]:
    """Shape tables at local coords ``local`` (npts, dim) of a cell of sizes h.

    Returns ``table(orders)``: the (npts, 4^dim) values of the physical
    derivative of the shapes with ``orders[k]`` (0, 1 or 2) on axis k, the
    product over k of the 1D tables, each axis evaluated once here.
    """
    local = np.atleast_2d(np.asarray(local, dtype=float))
    if local.shape[1] != len(h):
        raise ValueError(f"points of dim {local.shape[1]} on a cell of dim {len(h)}")
    factors = [shape_eval_1d(local[:, k], hk) for k, hk in enumerate(h)]
    corner, deriv = local_layout(len(factors))
    index = (2 * corner + deriv).T

    def table(orders: Sequence[int]) -> np.ndarray:
        out = factors[0][orders[0]][:, index[0]]
        for f, o, i in zip(factors[1:], orders[1:], index[1:]):
            out = out * f[o][:, i]
        return np.ascontiguousarray(out)

    return table
