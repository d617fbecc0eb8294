"""Three-level Newmark-theta time stepping with Newton solves per step.

The semi-discrete system is

    A d'' + G(t, d) K1 d + L1(t) d' + L2(t) d = F(t),

with G(t, d) = b1(t) * d^T K1 d (squared gradient seminorm of the discrete
function), L1 = nu A + B3 and L2 = b2 K2 + B1 + B4 - B2.  Since x = K(t) y
with K scalar, L1 and L2 are fixed combinations of the constant operators
(A, K1, K2, Q, P) with scalar weights in (K, K', K''): they are assembled
once per run on one CSR pattern.  A step matrix S is held only as its
coefficient vector c over them: S x is c contracted with the five products
of one stacked sparse matrix (``AssembledOperators.products``), and S is
written, straight into LAPACK band storage, only when the solver factors
it (``AssembledOperators.band``).  The load F(t) follows the same rule over
the source's five spatial terms, integrated once per run; a homogeneous
run's load is the scalar 0.0.  ``advance`` forms each time level's data
(``BeamSystem.level``) and each state's products once.  Each implicit step is
one ``StepProblem``: it forms the step's matrices and averaged load from three
time levels and poses one nonlinear system, the startup step with its ghost
level included.  Its Jacobian is a step matrix plus a low-rank correction
from the differential of G, solved with one band LU and the Woodbury identity
(``LinearSolver``): in 1D each solve is one band LU, one triangular solve and
one r x r ``dgesv``; in 2D one LU is kept across iterations and steps, with
refinement.  Results are deterministic for a fixed configuration.

theta in ]1/4, 1] gives the unconditionally convergent family; theta < 1/4 is
conditionally stable and may legitimately diverge on fine meshes, which is
reported as data (``Trajectory.status``), not as a crash.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgesv

from .fem import AssembledOperators, HermiteSpace, assemble_load, l_coefficients
from .geometry import BeamParameters, MovingBoundary, time_factors

__all__ = [
    "NewmarkConfig",
    "TimeLevel",
    "Source",
    "StepProblem",
    "Trajectory",
    "NewtonNoConvergence",
    "SingularJacobian",
    "LinearSolver",
    "newton_solve",
    "advance",
    "BeamSystem",
]

# coefficient vector of A over AssembledOperators.BASIS
_A = np.eye(len(AssembledOperators.BASIS))[0]

# Newton stops on a step or a residual below these absolute values
NEWTON_TOL_STEP = 1e-14
NEWTON_TOL_RESID = 1e-14
NEWTON_MAX_ITER = 50
DIVERGENCE_THRESHOLD = 1e8   # a larger max |d| ends the run as diverged


class NewtonNoConvergence(RuntimeError):
    """Newton hit the iteration cap without meeting either tolerance."""


class SingularJacobian(RuntimeError):
    """Direct factorization of the Newton matrix failed."""


@dataclass(frozen=True)
class NewmarkConfig:
    """Scheme parameters."""

    theta: float = 0.25
    dt: float = 2.0 ** -7
    n_steps: int = 128

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @staticmethod
    def for_horizon(T: float, dt: float, **kw) -> "NewmarkConfig":
        n = int(round(T / dt))
        if abs(n * dt - T) > 1e-12 * max(1.0, abs(T)):
            raise ValueError(f"dt = {dt} does not divide T = {T} evenly")
        return NewmarkConfig(dt=dt, n_steps=n, **kw)


# one time level: b1, the coefficient vectors of L1 and L2 over
# AssembledOperators.BASIS, and F (the scalar 0.0 in a homogeneous run)
TimeLevel = NamedTuple("TimeLevel", [("b1", float), ("L1", np.ndarray),
                                     ("L2", np.ndarray), ("F", np.ndarray | float)])


@dataclass
class Trajectory:
    """Coefficient history d^0..d^N plus per-step Newton statistics."""

    d: list[np.ndarray]
    times: np.ndarray
    newton_iterations: list[int]
    residuals: list[float] = field(default_factory=list)  # Newton's final max |R| per step
    status: str = "completed"          # "completed" | "diverged"
    diverged_step: int | None = None
    factorizations: int = 0            # LUs of the Newton matrix made by the run

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class LinearSolver:
    """Solves (S + U V^T) x = b for the drifting Newton matrices of one run.

    S is given by its coefficient vector c over the constant operators
    ``ops``; it is written straight into LAPACK band storage and factored by
    ``dgbtrf`` (kl = ku = ``ops.bandwidth``), the only factorization.  The
    solve with the factors takes the right-hand side and the r columns of U
    together (one ``dgbtrs``), and the r x r Woodbury capacitance
    I + V^T S^-1 U is solved by ``dgesv`` (``_woodbury``).

    ``sweeps``: how many refinement sweeps (a five-operator product and a band
    solve each) cost no more flops than one band LU, capped at
    ``MAX_SWEEPS``.  It is counted from the sizes, not timed, so reruns repeat
    bit for bit.  It is 0 in 1D, where a solve is one straight line: the band
    array, ``dgbtrf``, one ``dgbtrs`` on [rhs, U], ``dgesv`` and the Woodbury
    update; no factors are kept and no sweep is made.  In 2D the band LU of an
    earlier Newton matrix, with the Woodbury identity for U V^T, preconditions
    iterative refinement on the true residual (a chord method for the linear
    solves).  The one sweep after each factorization sets the accuracy target,
    eight times its correction; S is refactored when the corrections contract
    by less than half per sweep or would need more than ``sweeps`` sweeps.
    """

    MAX_SWEEPS = 8

    def __init__(self, ops: AssembledOperators):
        self.ops = ops
        self.factorizations = 0
        self._lu = None
        n, nnz, bw = ops.A.shape[0], ops.A.nnz, ops.bandwidth
        self.sweeps = min(self.MAX_SWEEPS,
                          4 * n * bw * bw // (10 * nnz + 2 * n * (3 * bw + 1)))

    def reset(self) -> None:
        """Drop the factors; the next solve factors its own matrix."""
        self._lu = None

    def solve(self, c: np.ndarray, rhs: np.ndarray, U: np.ndarray,
              V: np.ndarray) -> np.ndarray:
        if self._lu is not None:  # only a solver with sweeps keeps factors
            x = self._refine(c, rhs, U, V, fresh=False)
            if x is not None:
                return x
        self._lu = None  # free the old factors before making new ones
        bw = self.ops.bandwidth
        lu, piv, info = dgbtrf(self.ops.band(c), bw, bw, overwrite_ab=1)
        if info > 0:
            raise SingularJacobian(f"zero pivot in column {info} of the band LU")
        self.factorizations += 1
        if not self.sweeps:  # 1D: the factors are never kept, so no target is needed
            return self._woodbury(lu, piv, rhs, U, V)[0]
        self._lu = lu, piv
        return self._refine(c, rhs, U, V, fresh=True)

    def _woodbury(self, lu, piv, rhs, U, V):
        """(x, Z, W) from the factors of S: Z = S^-1 U, W = (I + V^T Z)^-1 V^T
        and x = (S + U V^T)^-1 rhs = y - Z W y for y = S^-1 rhs."""
        bw, r = self.ops.bandwidth, U.shape[1]
        Y = np.empty((rhs.size, r + 1), order="F")  # [rhs, U], in LAPACK's layout
        Y[:, 0], Y[:, 1:] = rhs, U
        Y = dgbtrs(lu, bw, bw, Y, piv, overwrite_b=1)[0]
        y, Z, W = Y[:, 0], Y[:, 1:], V.T
        if r:  # r = 0 leaves no capacitance (and dgesv rejects a 0 x 0 matrix)
            C = V.T @ Z
            C.flat[::r + 1] += 1.0
            *_, W, info = dgesv(C, V.T, overwrite_a=1)
            if info > 0:
                raise SingularJacobian(f"singular Woodbury capacitance: zero pivot {info}")
        return y - Z @ (W @ y), Z, W

    def _refine(self, c, rhs, U, V, fresh: bool) -> np.ndarray | None:
        lu, piv = self._lu
        bw = self.ops.bandwidth
        x, Z, W = self._woodbury(lu, piv, rhs, U, V)
        last = math.inf
        for sweep in range(1, self.sweeps + 1):
            y = dgbtrs(lu, bw, bw, rhs - c @ self.ops.products(x) - U @ (V.T @ x), piv,
                       overwrite_b=1)[0]
            dx = y - Z @ (W @ y)
            x = x + dx
            size = float(np.abs(dx).max()) / (float(np.abs(x).max()) or 1.0)
            if fresh:
                self._target = 8.0 * max(size, np.finfo(float).eps)
            if fresh or size <= self._target:
                return x
            rate, last = size / last, size
            # refactor on a stall, or when this rate needs more sweeps than allowed
            if not rate < 0.5 or (sweep > 1 and sweep + math.log(
                    self._target / size, rate) > self.sweeps):
                return None
        return None


@runtime_checkable
class Source(Protocol):
    """A load sum_k c_k(t) h_k(y) as ``make_source`` returns it."""

    terms: Sequence[Callable[[np.ndarray], np.ndarray]]
    coefficients: Callable[[float], np.ndarray]


@dataclass(eq=False)
class BeamSystem:
    """Assembled context for one run: constant operators, time factors, loads.

    ``source`` is None (a homogeneous run, zero load) or a ``Source`` from
    ``make_source``, whose data attributes ``terms`` and ``coefficients`` give
    it as sum_k c_k(t) h_k(y); a plain f(y, t) is refused here.  At the first
    load each h_k is integrated against the basis into row k of Phi; every
    load is then c(t) @ Phi, with no quadrature per step.
    """

    space: HermiteSpace
    ops: AssembledOperators
    boundary: MovingBoundary
    params: BeamParameters
    source: Source | None = None
    _phi: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.source is not None and not isinstance(self.source, Source):
            raise TypeError("source must come from make_source, with `terms` and `coefficients`")

    def level(self, t: float) -> TimeLevel:
        """b1, L1, L2 and F at time t, from one evaluation of the time factors."""
        f = time_factors(self.boundary, self.params, t)
        return TimeLevel(f.b1, *l_coefficients(f, self.params.nu), self.load(t))

    def load(self, t: float) -> np.ndarray | float:
        """F(t) = c(t) @ Phi; Phi is built here, in the march, at the first call.
        A homogeneous run's load is the scalar 0.0, exact in every sum it enters."""
        if self.source is None:
            return 0.0
        if self._phi is None:
            self._phi = np.array([
                assemble_load(self.space, lambda y, _t, h=h: h(y), t)
                for h in self.source.terms])
        F = self.source.coefficients(t) @ self._phi
        if not np.all(np.isfinite(F)):
            raise ValueError(f"load is non-finite at t={t}")
        return F


class StepProblem:
    """One implicit step eta -> eta+1, formed from the levels eta-1, eta, eta+1,
    with its residual and Jacobian in Woodbury-friendly form.

    ``c1``, ``c2``, ``c3`` hold the step's matrices as coefficient vectors over
    ``AssembledOperators.BASIS``, and ``F_avg`` its averaged load:

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
    ``curr`` and ``prev`` are d^eta and d^{eta-1} as pairs (d, ``ops.products(d)``).
    """

    def __init__(self, ops: AssembledOperators, cfg: NewmarkConfig, levels: tuple[TimeLevel, ...],
                 curr: tuple[np.ndarray, np.ndarray],
                 prev: tuple[np.ndarray, np.ndarray] | None, d1: np.ndarray | None):
        dt, th = cfg.dt, cfg.theta
        lm, ln, lp = levels
        self.ops = ops
        self.th_dt2 = th * dt * dt
        half_L1 = 0.5 * dt * ln.L1
        self.c1 = _A + half_L1 + self.th_dt2 * lp.L2
        self.c2 = dt * dt * (1.0 - 2.0 * th) * ln.L2 - 2.0 * _A
        self.c3 = _A - half_L1 + self.th_dt2 * lm.L2
        d, Od = curr  # Od rows: A d, K1 d, K2 d, Q d, P d
        g_curr = ln.b1 * float(d @ Od[1])
        self.const = const = self.c2 @ Od  # summed in place, term by term
        const += dt * dt * (1.0 - 2.0 * th) * g_curr * Od[1]
        # (b_j, s_j, K1 s_j) of each Kirchhoff term; None is a zero shift
        self.terms = [(lp.b1, None, None)]
        if prev is None:
            self.F_avg = th * lp.F + (1.0 - th) * ln.F
            Od1 = ops.products(d1)
            self.c_lin = self.c1 + self.c3
            self.terms.append((lm.b1, 2.0 * dt * d1, 2.0 * dt * Od1[1]))
            const -= dt * dt * self.F_avg
            const -= 2.0 * dt * (self.c3 @ Od1)
        else:
            self.F_avg = th * lm.F + (1.0 - 2.0 * th) * ln.F + th * lp.F
            dp, Odp = prev
            g_prev = lm.b1 * float(dp @ Odp[1])
            self.c_lin = self.c1
            const -= dt * dt * self.F_avg
            const += self.c3 @ Odp
            const += self.th_dt2 * g_prev * Odp[1]

    def _kirchhoff(self, X: np.ndarray, K1X: np.ndarray) -> list:
        """[(b_j, G_j(X), K1 (X - s_j))] over the terms."""
        out = []
        for b, s, K1s in self.terms:
            z, K1z = (X, K1X) if s is None else (X - s, K1X - K1s)
            out.append((b, b * float(z @ K1z), K1z))
        return out

    def residual(self, X: np.ndarray, OX: np.ndarray) -> np.ndarray:
        """R(X), formed from its products OX = ``ops.products(X)``."""
        r = self.c_lin @ OX
        r += self.const
        for _, g, K1z in self._kirchhoff(X, OX[1]):
            r += self.th_dt2 * g * K1z
        return r

    def jacobian_parts(self, X: np.ndarray, K1X: np.ndarray):
        """(c, U, V) with J = S(c) + U V^T at X, given K1X = K1 X: c is the
        coefficient vector of the sparse part, and each term adds the column
        pair theta dt^2 K1 z_j, 2 b_j K1 z_j, for z_j = X - s_j."""
        terms = self._kirchhoff(X, K1X)
        c = self.c_lin.copy()
        c[1] += self.th_dt2 * sum(g for _, g, _ in terms)  # slot 1 is K1
        U, V = np.empty((2, X.size, len(terms)))
        for j, (b, _, K1z) in enumerate(terms):
            np.multiply(self.th_dt2, K1z, out=U[:, j])
            np.multiply(2.0 * b, K1z, out=V[:, j])
        return c, U, V


def newton_solve(problem: StepProblem, start: tuple[np.ndarray, np.ndarray],
                 solver: LinearSolver | None = None):
    """Newton iteration from ``start`` = (x0, O x0); returns (X, O X, iterations,
    max |R(X)|), all from a residual at X.  The linear solves go through
    ``solver``, whose factors carry over between calls."""
    solver = solver or LinearSolver(problem.ops)
    X, OX = start[0].copy(), start[1]
    for it in range(1, NEWTON_MAX_ITER + 1):
        r = problem.residual(X, OX)
        rn = float(np.abs(r).max())  # NaN and inf carry through the max
        if not math.isfinite(rn):
            raise NewtonNoConvergence("non-finite residual")
        if rn < NEWTON_TOL_RESID:
            return X, OX, it - 1, rn
        c, U, V = problem.jacobian_parts(X, OX[1])
        step = solver.solve(c, np.negative(r, out=r), U, V)
        X += step  # X is Newton's own copy
        if not np.isfinite(X).all():
            raise NewtonNoConvergence("non-finite Newton iterate")
        OX = problem.ops.products(X)
        if np.abs(step).max() < NEWTON_TOL_STEP:
            return X, OX, it, float(np.abs(problem.residual(X, OX)).max())
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
    lm = ln = system.level(0.0)  # the startup's ghost level is level 0 itself
    curr, prev = (ds[0], system.ops.products(ds[0])), None  # (d, O d) at eta, eta-1
    for eta in range(cfg.n_steps):
        if eta == 1:  # the startup matrix M1 + M3 is about 2 M1: too far to refine from
            solver.reset()
        levels = lm, ln, system.level((eta + 1) * cfg.dt)
        prob = StepProblem(system.ops, cfg, levels, curr, prev, d1)
        try:
            d_next, Od_next, nit, resid = newton_solve(prob, curr, solver)
        except (NewtonNoConvergence, SingularJacobian):
            break
        dinf = float(np.abs(d_next).max()) if d_next.size else 0.0
        if not math.isfinite(dinf) or dinf > DIVERGENCE_THRESHOLD:
            break
        ds.append(d_next)
        iters.append(nit)
        residuals.append(resid)
        lm, ln = levels[1:]
        prev, curr = curr, (d_next, Od_next)
    done = len(ds) == cfg.n_steps + 1  # a failed step eta + 1 leaves d^0..d^eta
    return Trajectory(ds, times[: len(ds)], iters, residuals,
                      "completed" if done else "diverged", None if done else len(ds),
                      solver.factorizations)
