"""Three-level Newmark-theta time stepping with Newton solves per step.

The semi-discrete system is

    A d'' + G(t, d) K1 d + L1(t) d' + L2(t) d = F(t),

with G(t, d) = b1(t) * d^T K1 d (squared gradient seminorm of the discrete
function), L1 = nu A + B3 and L2 = b2 K2 + B1 + B4 - B2.  Since x = K(t) y
with K scalar, L1 and L2 are fixed combinations of the constant operators
(A, K1, K2, Q, P) with scalar weights in (K, K', K''): they are assembled
once per run, in 1D on one CSR pattern and in 2D as the 1D operators of its
axis, the same on x and y.  A step matrix S is held only as its coefficient
vector c over them: a state's residual contracts c with its five products
(``ops.products``: one stacked sparse matrix in 1D, Kronecker sums of 1D
products in 2D); S is formed in LAPACK band storage, by one product, only when
the 1D solver factors it.  The load F(t) follows the same rule over the
source's five spatial terms, integrated once per run on the 1D axis (a 2D
term's load is a sum of tensor products of 1D ones); a homogeneous run's load
is the scalar 0.0.  Before the first step ``advance`` forms the run's time table, b1, L1,
L2 and the load coefficients C of every level (``BeamSystem.time_table``), and the step
matrices (``StepProblem.step_matrices``); a level's load is C[i] @ Phi.  Each state is
formed once, with its products and its form d^T K1 d (``state``).
Each implicit step is one ``StepProblem``: from its row of the table it poses
one nonlinear system, the startup step with its ghost level included.  Its
Jacobian is a step matrix plus a low-rank correction from the differential of
G (``LinearSolver``): in 1D each solve is one LAPACK ``dgbsv`` and the Woodbury
identity, its capacitance in closed form for one Kirchhoff term (``dgesv`` for
the startup step's two); in 2D it is GMRES, which applies S in one pass
(``ops.operator``), preconditioned by a kept fast diagonalization of the
separable part.  Results are deterministic for a fixed configuration.

theta in ]1/4, 1] gives the unconditionally convergent family; theta < 1/4 is
conditionally stable and may legitimately diverge on fine meshes, which is
reported as data (``Trajectory.status``), not as a crash.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.linalg import eigh, solve_triangular
from scipy.linalg.lapack import dgbsv, dgesv

from .fem import (AssembledOperators, HermiteSpace, KroneckerOperators, assemble_load,
                  l_coefficients)
from .geometry import BeamParameters, MovingBoundary, time_factors
from .manufactured import tensor_terms

__all__ = [
    "ConfigError",
    "NewmarkConfig",
    "whole_steps",
    "Source",
    "StepProblem",
    "Trajectory",
    "NewtonNoConvergence",
    "SingularJacobian",
    "LinearSolver",
    "gmres",
    "state",
    "newton_solve",
    "advance",
    "BeamSystem",
]

# Newton stops on a step or a residual below these absolute values
NEWTON_TOL_STEP = 1e-14
NEWTON_TOL_RESID = 1e-14
NEWTON_MAX_ITER = 50
DIVERGENCE_THRESHOLD = 1e8   # a larger max |d| ends the run as diverged

# 2D GMRES: target ||r|| / ||b||, restart length, cap, iterations that refresh the preconditioner
GMRES_TOL = 1e-14
GMRES_RESTART = 30
GMRES_MAX_ITER = 300
GMRES_REFRESH = 16


class ConfigError(ValueError):
    """Malformed configuration: parse failure or invariant violation."""


class NewtonNoConvergence(RuntimeError):
    """Newton hit the iteration cap without meeting either tolerance."""


class SingularJacobian(RuntimeError):
    """Direct factorization of the Newton matrix failed."""


@dataclass(frozen=True)
class NewmarkConfig:
    """Scheme parameters; an invalid value raises ``ConfigError``."""

    theta: float = 0.25
    dt: float = 2.0 ** -7
    n_steps: int = 128

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")

    @staticmethod
    def for_horizon(T: float, dt: float, **kw) -> "NewmarkConfig":
        return NewmarkConfig(dt=dt, n_steps=whole_steps(T, dt), **kw)


def whole_steps(t: float, dt: float, name: str = "T") -> int:
    """Steps of size dt up to time t; ``ConfigError`` unless dt divides t evenly."""
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-12 * max(1.0, abs(t)):
        raise ConfigError(f"dt = {dt} does not divide {name} = {t} evenly")
    return n


@dataclass
class Trajectory:
    """Coefficient history d^0..d^N plus per-step Newton statistics."""

    d: list[np.ndarray]
    times: np.ndarray
    newton_iterations: list[int]
    residuals: list[float] = field(default_factory=list)  # Newton's final max |R| per step
    status: str = "completed"          # "completed" | "diverged"
    diverged_step: int | None = None
    factorizations: int = 0            # band LUs (1D) or eigendecompositions (2D) made
    gmres_iterations: int = 0          # over the run's 2D solves; 0 in 1D

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class LinearSolver:
    """Solves (S + U V^T) x = b for the Newton matrices of one run, S given by
    its coefficient vector c over the constant operators ``ops``, whose type chooses how.
    1D: S is formed in LAPACK band storage (``ops.band``), and one ``dgbsv``
    (kl = ku = ``ops.bandwidth``) factors it and solves for [b, U]; the r x r Woodbury
    capacitance I + V^T S^-1 U is solved in closed form for one Kirchhoff term, as ``dgesv``
    does it (by the reciprocal pivot), by ``dgesv`` for the startup's two.  Nothing is kept.
    2D (``KroneckerOperators``): ``gmres`` applies S in one pass (``ops.operator(c)``)
    plus U (V^T x) to the free-DOF vector, the grid X = x.reshape(n, n), right-preconditioned by
    the fast diagonalization of the separable symmetric part A(x)T + T(x)A of S,
    T = (c_A - c_P)/2 A + c_K1 S + c_K2 B + c_Q Q on the axis (P + P^T = -A):
    with T W = A W diag(lam) (``eigh``, one for both axes) its inverse is
    X -> W [(W^T X W) / (lam_i + lam_j)] W^T.  The eigendecomposition is kept,
    and refreshed at the first solve, after ``reset`` and after a solve of more
    than ``GMRES_REFRESH`` iterations.  ``factorizations`` counts the band LUs
    in 1D and the refreshes in 2D, ``gmres_iterations`` the iterations of 2D solves.
    """

    def __init__(self, ops: AssembledOperators | KroneckerOperators):
        self.ops = ops
        self.factorizations = self.gmres_iterations = 0
        self._fd = None  # (W, lam_i + lam_j) of the kept preconditioner

    def reset(self) -> None:
        """Drop the preconditioner; the next 2D solve diagonalizes its own matrix."""
        self._fd = None

    def solve(self, c: np.ndarray, rhs: np.ndarray, U: np.ndarray,
              V: np.ndarray) -> np.ndarray:
        if isinstance(self.ops, KroneckerOperators):
            return self._krylov(c, rhs, U, V)
        bw, r = self.ops.bandwidth, U.shape[1]
        ab = self.ops.band(c)  # before Y: the other order leaves a larger heap behind
        Y = np.empty((rhs.size, r + 1), order="F")  # [rhs, U], in LAPACK's layout
        Y[:, 0], Y[:, 1:] = rhs, U
        *_, Y, info = dgbsv(bw, bw, ab, Y, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise SingularJacobian(f"zero pivot in column {info} of the band LU")
        self.factorizations += 1
        y, Z, W = Y[:, 0], Y[:, 1:], V.T
        if r == 1:
            if (C := (V.T @ Z).item() + 1.0) == 0.0:
                raise SingularJacobian("singular Woodbury capacitance: zero pivot 1")
            W = V.T * (1.0 / C)  # dgesv's arithmetic for 1 x 1: times 1 / pivot
        elif r:  # r = 0 leaves no capacitance (and dgesv rejects a 0 x 0 matrix)
            C = V.T @ Z
            C.flat[::r + 1] += 1.0
            *_, W, info = dgesv(C, V.T, overwrite_a=1)
            if info > 0:
                raise SingularJacobian(f"singular Woodbury capacitance: zero pivot {info}")
        return y - Z @ (W @ y)

    def _krylov(self, c, rhs, U, V) -> np.ndarray:
        axis = self.ops.axis
        if self._fd is None:
            t = np.array([0.5 * (c[0] - c[4]), c[1], c[2], c[3], 0.0])
            lam1, W = eigh(axis.combine(t).toarray(), axis.A.toarray())
            if not (lam := lam1[:, None] + lam1).all():
                raise SingularJacobian("zero eigenvalue sum in the fast diagonalization")
            self._fd, self.factorizations = (W, lam), self.factorizations + 1
        W, lam = self._fd
        apply = self.ops.operator(c)

        def matvec(z):
            return apply(z.reshape(lam.shape)).ravel() + (V.T @ z) @ U.T

        def psolve(v):
            return (W @ ((W.T @ v.reshape(lam.shape) @ W) / lam) @ W.T).ravel()

        x, iterations = gmres(matvec, psolve, rhs)
        self.gmres_iterations += iterations
        self._fd = None if iterations > GMRES_REFRESH else self._fd  # a slow solve refreshes
        return x


def gmres(matvec, psolve, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, iterations): right-preconditioned GMRES (MGS) from x = 0, restarted every
    ``GMRES_RESTART`` iterations, to a residual estimate <= ``GMRES_TOL`` ||b||;
    ``SingularJacobian`` past ``GMRES_MAX_ITER`` iterations or on breakdown."""
    x, r, iterations = np.zeros_like(b), b, 0
    target = GMRES_TOL * float(np.linalg.norm(b))
    while (beta := float(np.linalg.norm(r))) > 0.0:
        H, g = np.zeros((GMRES_RESTART + 1, GMRES_RESTART)), np.zeros(GMRES_RESTART + 1)
        g[0], basis, dirs, rotations = beta, [r / beta], [], []
        for j in range(GMRES_RESTART):
            if iterations == GMRES_MAX_ITER:
                raise SingularJacobian(f"GMRES missed its target in {iterations} iterations")
            iterations += 1
            dirs.append(psolve(basis[j]))
            w = matvec(dirs[j])
            for i, v in enumerate(basis):
                H[i, j] = w @ v
                w -= H[i, j] * v
            for i, (cs, sn) in enumerate(rotations):
                H[i:i + 2, j] = cs * H[i, j] + sn * H[i + 1, j], cs * H[i + 1, j] - sn * H[i, j]
            h_next = float(np.linalg.norm(w))
            if (rho := math.hypot(H[j, j], h_next)) == 0.0:
                raise SingularJacobian("singular Hessenberg matrix in GMRES")
            rotations.append((H[j, j] / rho, h_next / rho))
            H[j, j], g[j + 1], g[j] = rho, -g[j] * h_next / rho, g[j] * H[j, j] / rho
            if abs(g[j + 1]) <= target:
                break
            basis.append(w / h_next)
        k = len(dirs)
        x += solve_triangular(H[:k, :k], g[:k]) @ np.array(dirs)
        if abs(g[k]) <= target:
            return x, iterations
        r = b - matvec(x)
    return x, iterations


@runtime_checkable
class Source(Protocol):
    """A load sum_k c_k(t) h_k(y) as ``make_source`` returns it: 1D terms, c at any times."""

    axis_terms: Sequence[Callable[[np.ndarray], np.ndarray]]
    coefficients: Callable[[np.ndarray], np.ndarray]


@dataclass(eq=False)
class BeamSystem:
    """Assembled context for one run: constant operators, time factors, loads.

    ``source`` is None (a homogeneous run, zero load) or a ``Source`` from
    ``make_source``, whose data attributes ``axis_terms`` and ``coefficients``
    give it as sum_k c_k(t) h_k(y); a plain f(y, t) is refused.  At the first load each
    1D term is integrated on the axis space into row k of Phi, made 2D by ``tensor_terms``;
    a level's load is then its row of the run's c times Phi, with no quadrature per step.
    """

    space: HermiteSpace
    ops: AssembledOperators | KroneckerOperators
    boundary: MovingBoundary
    params: BeamParameters
    source: Source | None = None
    _phi: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.source is not None and not isinstance(self.source, Source):
            raise TypeError("source must come from make_source, with axis_terms and coefficients")

    def time_table(self, cfg: NewmarkConfig) -> tuple:
        """b1 (n + 1,), L1 and L2 (n + 1, 5) at the levels t_i = i dt of a run, from one
        ``time_factors`` call, and the source's coefficients C (n + 1, 5) there, from one
        ``coefficients`` call (a None per level for a homogeneous run)."""
        times = cfg.dt * np.arange(cfg.n_steps + 1)
        f = time_factors(self.boundary, self.params, times)
        C = [None] * len(times) if self.source is None else self.source.coefficients(times)
        return f.b1, *l_coefficients(f, self.params.nu), C

    def load(self, t: float) -> np.ndarray | float:
        """F(t) at one time, from the source's coefficients there (``level_load``)."""
        return self.level_load(t, None if self.source is None else self.source.coefficients(t))

    def level_load(self, t: float, c: np.ndarray | None) -> np.ndarray | float:
        """F = c @ Phi at time t, c its row of C (``time_table``); Phi is built here, in the
        march, at the first call.  c None gives 0.0, exact in every sum it enters."""
        if c is None:
            return 0.0
        if self._phi is None:
            F = np.array([assemble_load(self.space.axis or self.space, h)
                          for h in self.source.axis_terms])
            self._phi = F if self.space.mesh.dim == 1 else tensor_terms(F).reshape(len(F), -1)
        F = c @ self._phi
        if not np.all(np.isfinite(F)):
            raise ValueError(f"load is non-finite at t={t}")
        return F


class StepProblem:
    """One implicit step eta -> eta+1, formed from the levels eta-1, eta, eta+1,
    with its residual and Jacobian in Woodbury-friendly form.

    ``row`` holds b1 and F at the levels eta-1, eta, eta+1 and the step's matrices
    ``c1``, ``c2``, ``c3`` (:meth:`step_matrices`); ``F_avg`` is its averaged load:

      M1 = A + (dt/2) L1^eta + theta dt^2 L2^{eta+1}
      M2 = dt^2 (1-2 theta) L2^eta - 2A
      M3 = A - (dt/2) L1^eta + theta dt^2 L2^{eta-1}
      F  = theta F^{eta-1} + (1-2 theta) F^eta + theta F^{eta+1}   (eta >= 1)
      F  = theta F^1 + (1-theta) F^0                               (eta = 0)

    L1 is taken at t_eta, where (d^{eta+1} - d^{eta-1}) / (2 dt) approximates
    d'; at t_{eta+1} or t_{eta-1} it would approximate (L1 d)'.  A generic step
    finds X = d^{eta+1} with

      R(X) = (M1 + theta dt^2 G^{eta+1}(X) K1) X + (M2 + dt^2 (1-2 theta) G^eta K1) d^eta
             + (M3 + theta dt^2 G^{eta-1} K1) d^{eta-1} - dt^2 F.

    The startup step, the one with no ``prev``, solves it for X = d^1 with the
    ghost level d^{-1} = X - 2 dt d1 from the initial velocity ``d1``, level 0
    standing in for level -1.  Both are one form,

      R(X) = S X + theta dt^2 sum_j G_j(X) K1 (X - s_j) + const,
      G_j(X) = b_j (X - s_j)^T K1 (X - s_j),

    with S = M1 and the one term (b1^{eta+1}, 0) on a generic step, and
    S = M1 + M3 and the terms (b1^1, 0), (b1^0, 2 dt d1) at startup.
    ``curr`` and ``prev`` are the states (d, O d, d^T K1 d) of d^eta and d^{eta-1}
    (``state``); only the startup step's shifted term forms its G_j from a dot of its own.
    """

    def __init__(self, ops: AssembledOperators | KroneckerOperators, cfg: NewmarkConfig,
                 row: tuple, curr: tuple, prev: tuple | None, d1: np.ndarray | None):
        dt, th = cfg.dt, cfg.theta
        (bm, bn, bp), (self.c1, self.c2, self.c3), (Fm, Fn, Fp) = row
        self.ops = ops
        self.th_dt2 = th * dt * dt
        _, Od, q = curr  # Od rows: A d, K1 d, K2 d, Q d, P d
        self.F_avg = (th * Fp + (1.0 - th) * Fn if prev is None
                      else th * Fm + (1.0 - 2.0 * th) * Fn + th * Fp)
        self.const = const = self.c2 @ Od  # summed in place, term by term
        const += dt * dt * (1.0 - 2.0 * th) * (bn * q) * Od[1]
        const -= dt * dt * self.F_avg
        # (b_j, s_j, K1 s_j) of each Kirchhoff term; None is a zero shift
        self.terms = [(bp, None, None)]
        if prev is None:
            Od1 = ops.products(d1)
            self.c_lin = self.c1 + self.c3
            self.terms.append((bm, 2.0 * dt * d1, 2.0 * dt * Od1[1]))
            const -= 2.0 * dt * (self.c3 @ Od1)
        else:
            _, Odp, qp = prev
            self.c_lin = self.c1
            const += self.c3 @ Odp
            const += self.th_dt2 * (bm * qp) * Odp[1]

    @staticmethod
    def step_matrices(cfg: NewmarkConfig, L1: np.ndarray, L2: np.ndarray) -> np.ndarray:
        """M1, M2, M3 over ``AssembledOperators.BASIS`` of each step of a time table
        (``BeamSystem.time_table``), (n, 3, 5), by the elementwise + and x of the
        formulas above in their order: each row has the bits of one step's own."""
        dt, th = cfg.dt, cfg.theta
        A = np.eye(len(AssembledOperators.BASIS))[0]  # A's coefficient vector
        th_dt2, half_L1 = th * dt * dt, 0.5 * dt * L1[:-1]
        return np.stack([A + half_L1 + th_dt2 * L2[1:],
                         dt * dt * (1.0 - 2.0 * th) * L2[:-1] - 2.0 * A,
                         A - half_L1 + th_dt2 * np.vstack([L2[:1], L2[:-2]])], axis=1)

    def _kirchhoff(self, X: np.ndarray, K1X: np.ndarray, q: float) -> list:
        """[(b_j, G_j(X), K1 (X - s_j))] over the terms; q = X^T K1 X serves the unshifted one."""
        out = []
        for b, s, K1s in self.terms:
            z, K1z = (X, K1X) if s is None else (X - s, K1X - K1s)
            out.append((b, b * (q if s is None else float(z @ K1z)), K1z))
        return out

    def residual(self, X: np.ndarray, OX: np.ndarray, q: float) -> tuple[np.ndarray, list]:
        """(R(X), terms), formed from the state (X, OX, q) (``state``);
        ``terms`` are the Kirchhoff terms at X that ``jacobian_parts`` takes."""
        terms = self._kirchhoff(X, OX[1], q)
        r = self.c_lin @ OX
        r += self.const
        for _, g, K1z in terms:
            r += self.th_dt2 * g * K1z
        return r, terms

    def jacobian_parts(self, terms: list):
        """(c, U, V) with J = S(c) + U V^T at the X whose ``residual`` gave
        ``terms``: c is the coefficient vector of the sparse part, and each term
        adds the column pair theta dt^2 K1 z_j, 2 b_j K1 z_j, for z_j = X - s_j."""
        c = self.c_lin.copy()
        c[1] += self.th_dt2 * sum(g for _, g, _ in terms)  # slot 1 is K1
        U, V = np.empty((2, terms[0][2].size, len(terms)))
        for j, (b, _, K1z) in enumerate(terms):
            np.multiply(self.th_dt2, K1z, out=U[:, j])
            np.multiply(2.0 * b, K1z, out=V[:, j])
        return c, U, V


def state(ops: AssembledOperators | KroneckerOperators, x: np.ndarray) -> tuple:
    """The state (x, O x, x^T K1 x) the march carries: x with its products
    ``ops.products(x)`` and its Kirchhoff form, each formed once."""
    Ox = ops.products(x)
    return x, Ox, float(x @ Ox[1])


def newton_solve(problem: StepProblem, start: tuple, solver: LinearSolver | None = None):
    """Newton iteration from the state ``start`` (``state``); returns (the state at X,
    iterations, max |R(X)|), all from a residual at X; a non-finite residual raises.  The
    linear solves go through ``solver``, whose preconditioner carries over between calls."""
    solver = solver or LinearSolver(problem.ops)
    X, OX, q = start[0].copy(), *start[1:]  # X is Newton's own copy
    for it in range(1, NEWTON_MAX_ITER + 1):
        r, terms = problem.residual(X, OX, q)
        rn = float(np.abs(r).max())  # NaN and inf carry through the max
        if not math.isfinite(rn):
            raise NewtonNoConvergence("non-finite residual")
        if rn < NEWTON_TOL_RESID:
            return (X, OX, q), it - 1, rn
        c, U, V = problem.jacobian_parts(terms)
        step = solver.solve(c, np.negative(r, out=r), U, V)
        X, OX, q = state(problem.ops, np.add(X, step, out=X))  # in place
        if np.abs(step).max() < NEWTON_TOL_STEP:
            return (X, OX, q), it, float(np.abs(problem.residual(X, OX, q)[0]).max())
    raise NewtonNoConvergence(f"no convergence in {NEWTON_MAX_ITER} iterations")


def advance(system: BeamSystem, cfg: NewmarkConfig, d0: np.ndarray,
            d1: np.ndarray) -> Trajectory:
    """March the scheme over n_steps steps from the interpolated initial data.

    ``d0`` and ``d1`` are the initial displacement and velocity coefficient
    vectors.  Divergence (non-finite iterates, Newton failure or a norm
    explosion past ``DIVERGENCE_THRESHOLD``) terminates the run early with
    status "diverged" carrying the offending step.
    """
    times = cfg.dt * np.arange(cfg.n_steps + 1)
    ds = [np.asarray(d0, dtype=float)]
    iters, residuals = [], []  # Newton's iterations and final max |R| per step

    solver = LinearSolver(system.ops)  # local to the run, so no factor outlives it
    b1, L1, L2, C = system.time_table(cfg)
    step_mats = StepProblem.step_matrices(cfg, L1, L2)
    del L1, L2  # the march reads only b1, the step matrices and C
    loads = (system.level_load(0.0, C[0]),) * 2  # F at eta-1 and eta; level 0 stands in for -1
    curr, prev = state(system.ops, ds[0]), None  # the states at eta, eta-1
    for eta in range(cfg.n_steps):
        if eta == 1:  # the startup matrix M1 + M3 is about 2 M1: too far to precondition
            solver.reset()
        loads = loads[-2:] + (system.level_load(times[eta + 1], C[eta + 1]),)
        row = (b1[max(eta - 1, 0)], b1[eta], b1[eta + 1]), step_mats[eta], loads
        prob = StepProblem(system.ops, cfg, row, curr, prev, d1)
        try:
            reached, nit, resid = newton_solve(prob, curr, solver)
        except (NewtonNoConvergence, SingularJacobian):
            break
        dinf = float(np.abs(reached[0]).max(initial=0.0))
        if not math.isfinite(dinf) or dinf > DIVERGENCE_THRESHOLD:
            break
        ds.append(reached[0])
        iters.append(nit)
        residuals.append(resid)
        prev, curr = curr, reached
    done = len(ds) == cfg.n_steps + 1  # a failed step eta + 1 leaves d^0..d^eta
    return Trajectory(ds, times[: len(ds)], iters, residuals,
                      "completed" if done else "diverged", None if done else len(ds),
                      solver.factorizations, solver.gmres_iterations)
