"""Shared fixtures, and the quadrature oracles that only the tests use."""
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from movingbeam import (
    BeamParameters,
    HermiteSpace,
    ManufacturedCase,
    Mesh,
    MovingBoundary,
    SingularMappingError,
    assemble_load,
    eval_boundary,
)
from movingbeam.energy import _energies
from movingbeam.fem import (DEFAULT_LOAD_QUAD, DEFAULT_OPERATOR_QUAD, _elem_integrals, _quadrature,
                            interpolate_initial, l_coefficients)
from movingbeam.geometry import TimeFactors, time_factors
from movingbeam.manufactured import strong_coefficients, strong_terms
from movingbeam import newmark
from movingbeam.newmark import (LinearSolver, NewtonNoConvergence, SingularJacobian, Trajectory,
                                step_matrices)


def scalar_time_factors(b, p, t):
    """The time factors at one time t by the scalar formulas, in Python floats:
    the oracle the columns of ``time_factors`` are checked against."""
    k, kp, kpp = eval_boundary(b, t)
    if k <= 0.0:
        raise SingularMappingError(f"K(t) must be positive, got K({t}) = {k}")
    damping = k * (p.nu * kp + kpp)
    return TimeFactors(k=k, b1=p.zeta1 * k ** -4, b2=k ** -4, s0=p.zeta0 / k ** 2, r=kp / k,
                       c3=(2.0 * kp * kp - damping) / k ** 2,
                       c4=(-2.0 * kp * kp - damping) / k ** 2)


def scalar_l_coefficients(f, nu):
    """L1 and L2 over ``AssembledOperators.BASIS`` at one time, from the scalar
    factors ``f`` (``scalar_time_factors``): the oracle of ``fem.l_coefficients``."""
    return (np.array([nu, 0.0, 0.0, 0.0, -2.0 * f.r]),
            np.array([0.0, f.s0, f.b2, -4.0 * f.r * f.r, f.c4]))


def scalar_source_coefficients(case, b, p, t):
    """The coefficients c(t) of ``make_source(case, b, p)`` at one time t, by the
    scalar formulas: the oracle of the source's table."""
    tf, n = scalar_time_factors(b, p, t), case.dim
    T0, T1, T2 = (case.amplitude * case.temporal_factor(t, k) for k in range(3))
    r2 = tf.r * tf.r
    l1 = np.array([p.nu, 0.0, 0.0, -2.0 * tf.r, 0.0])
    l2 = np.array([0.0, -tf.s0 - tf.b1 * case.grad_norm_sq(t), tf.b2,
                   tf.c3 + (4.0 * n + 8.0) * r2, r2])
    c = T1 * l1 + T0 * l2
    c[0] += T2
    return c


def energy_from_state(space, boundary, params, d, d_dot, t, nq=8):
    """E(t) of the one state (d, d_dot) at time t, as ``energy_series`` forms it
    for a block (its docstring gives E), with the scalar time factors at t."""
    f = scalar_time_factors(boundary, params, t)
    factors = np.array([[f.k], [f.r], [f.b1], [f.b2], [f.s0]])
    return float(_energies(space, factors, d[None], d_dot[None], nq)[0])


def a_coefficients(tf, y):
    """The paper's (a1, ..., a5) of the time factors ``tf`` at points y of shape
    (..., n); a2 adds (n, n) axes."""
    r2 = tf.r * tf.r
    a2 = 4.0 * r2 * (y[..., :, None] * y[..., None, :])
    return tf.s0 - 4.0 * r2 * (y * y), a2, tf.c3 * y, -2.0 * tf.r * y, tf.c4 * y


@dataclass
class TimeDependentOperators:
    """Coefficient-weighted matrices at one time level.

    Orientation: row = test DOF, column = trial DOF, i.e. ``(B3 @ d)[l] =
    (a4_i d_i v_h, phi_l)``; this is the transposed layout the three-level
    scheme applies to coefficient vectors.
    """

    B1: sp.csr_matrix
    B2: sp.csr_matrix
    B3: sp.csr_matrix
    B4: sp.csr_matrix
    t: float


def assemble_time_dependent(space, boundary, params, t, nq=DEFAULT_OPERATOR_QUAD):
    """Assemble B1..B4 at time t by pointwise quadrature: the reference that
    the stepper's combinations (``fem.l_coefficients``) are checked against."""
    tab = space.basis_tables(nq)
    a1, a2, _, a4, a5 = a_coefficients(scalar_time_factors(boundary, params, t), tab["points"])
    g = [tab["grad"][:, :, i] for i in range(space.mesh.dim)]
    pairs = [(i, j) for i in range(len(g)) for j in range(len(g))]
    integrate = functools.partial(_elem_integrals, space, nq)
    elems = (
        sum(integrate(a1[..., i], gi, gi) for i, gi in enumerate(g)),
        sum(integrate(a2[..., i, j], g[i], g[j]) for i, j in pairs),
        sum(integrate(a4[..., i], gi, tab["N"]) for i, gi in enumerate(g)),
        sum(integrate(a5[..., i], gi, tab["N"]) for i, gi in enumerate(g)),
    )
    return TimeDependentOperators(*(space.scatter(e) for e in elems), t=t)


def kirchhoff_scalar(b1_t, d, K1):
    """G(t, d) = b1(t) * d^T K1 d."""
    return float(b1_t * (d @ (K1 @ d)))


def project_initial(space, ops, value, nq=DEFAULT_LOAD_QUAD):
    """L2 projection alternative to nodal interpolation: solve A d = (v, phi)."""
    return spsolve(ops.A.tocsc(), assemble_load(space, value, nq=nq))


def _scale(b, t):
    k, _, _ = eval_boundary(b, t)
    if k <= 0.0:
        raise SingularMappingError(f"K(t) must be positive, got K({t}) = {k}")
    return k


def map_point(b, t, y):
    """Reference -> physical: x = K(t) y (componentwise)."""
    return _scale(b, t) * np.asarray(y, dtype=float)


def map_back(b, t, x):
    """Physical -> reference: y = x / K(t)."""
    return np.asarray(x, dtype=float) / _scale(b, t)


class UnclampedSpace(HermiteSpace):
    """The Hermite space of ``mesh`` with no DOF clamped: its free set is every
    DOF.  The package's ``_quadrature`` and ``interpolate_initial`` run on it;
    ``assemble_constant`` does not, its 2D form holding only on the clamped space."""

    def __init__(self, mesh):
        super().__init__(mesh)
        self.free_dofs = self.full_to_free = np.arange(self.ndof_full)
        self.ndof = self.ndof_full


def free_operators(space, nq=DEFAULT_OPERATOR_QUAD):
    """The operators of the free DOFs of ``space`` as CSR matrices, by quadrature
    on its own cells: ``assemble_constant`` itself in 1D; in 2D, where it keeps
    only the 1D operators of the axis, the 2D assembly its Kronecker form is
    checked against."""
    return _quadrature(space, nq)


def weak_strong_consistency(space, boundary, params, t, v_derivs, w_derivs, nq=12):
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

    # operators on every DOF: the trial function need not satisfy the clamped
    # conditions; the (clamped) test function kills the constrained rows
    unclamped = UnclampedSpace(space.mesh)
    ops = _quadrature(unclamped, DEFAULT_OPERATOR_QUAD)
    L2f = ops.combine(l_coefficients(f, params.nu)[1])

    d_v = interpolate_initial(unclamped, v_derivs)
    d_w = space.expand(interpolate_initial(space, w_derivs))
    weak = float(d_w @ (L2f @ d_v)) + g_exact * float(d_w @ (ops.K1 @ d_v))

    # the same operator in strong form, applied to v at the quadrature grid
    weights = strong_coefficients(f, params.nu, dim)[1]
    weights[1] -= g_exact
    strong = sum(c * h(pts) for c, h in zip(weights, strong_terms(v_derivs, dim)))
    strong_val = float(np.sum(strong * w_derivs(pts, (0,) * dim) * w_q))
    return abs(weak - strong_val)


def jacobian_dense(problem, X, csr):
    """The Newton matrix of a ``StepProblem`` at X as a dense array, its step
    matrix combined from ``csr``, the run's operators as ``free_operators``."""
    c, U, V = problem.jacobian_parts(problem.residual(*state(problem.ops, X))[1])
    return csr.combine(c).toarray() + U @ V.T


def velocity_series(trajectory):
    """Second-order discrete velocities, one state at a time: central inside,
    one-sided at the ends; the formulas ``energy_series`` applies per block."""
    d, n = trajectory.d, len(trajectory.d) - 1
    dt = float(trajectory.times[1] - trajectory.times[0])
    return ([(-3.0 * d[0] + 4.0 * d[1] - d[2]) / (2.0 * dt)]
            + [(d[eta + 1] - d[eta - 1]) / (2.0 * dt) for eta in range(1, n)]
            + [(3.0 * d[n] - 4.0 * d[n - 1] + d[n - 2]) / (2.0 * dt)])


def error_series(space, trajectory, case, nq=8):
    """(L2, Laplacian) errors of each state against amp T(t) g(y), one state at
    a time: the reference ``error_norms`` is checked against."""
    tab = space.basis_tables(nq)
    dim, shape, w = space.mesh.dim, tab["points"].shape[:2], tab["w"]
    pts = tab["points"].reshape(-1, dim)
    g = case.spatial_factor(pts, (0,) * dim).reshape(shape)
    lap_g = sum(case.spatial_factor(pts, tuple(2 * e))
                for e in np.eye(dim, dtype=int)).reshape(shape)
    l2, h2 = [], []
    for t, d in zip(trajectory.times, trajectory.d):
        scale = case.amplitude * case.temporal_factor(float(t))
        vh, lh = (space.eval_at_quad(d, nq, deriv) for deriv in ("N", "lap"))
        l2.append(np.sqrt(np.sum((vh - scale * g) ** 2 * w[None, :])))
        h2.append(np.sqrt(np.sum((lh - scale * lap_g) ** 2 * w[None, :])))
    return np.array(l2), np.array(h2)


def quadrature_energies(space, boundary, params, d, d_dot, times, nq=8):
    """E at each row of the stacks d, d_dot (m, ndof) at the m times, with the
    displacement, velocity, gradient and Laplacian evaluated at the Gauss points:
    the reference ``energy_series`` is checked against."""
    k, r, b1, b2, s0 = np.array([(f.k, f.r, f.b1, f.b2, f.s0) for f in (
        scalar_time_factors(boundary, params, float(t)) for t in times)]).T
    dim, m = space.mesh.dim, len(d)
    tab = space.basis_tables(nq)
    w = np.tile(tab["w"], space.mesh.ncells)
    pts = tab["points"].reshape(-1, dim)

    def field(x, deriv):
        return space.eval_at_quad(x, nq, deriv).reshape(m, -1)

    grads = [field(d, f"grad{i}") for i in range(dim)]
    y_dot_grad = sum(pts[:, i] * grads[i] for i in range(dim))
    u_prime = field(d_dot, "N") - r[:, None] * y_dot_grad
    grad_sq = sum(g * g for g in grads)
    lap = field(d, "lap")
    density = (u_prime**2 @ w + b2 * (lap**2 @ w) + s0 * (grad_sq @ w)
               + 0.5 * b1 * (grad_sq**2 @ w))
    return 0.5 * k**dim * density


def state(ops, x):
    """The state (x, O x, x^T K1 x) the march carries, by the checked ``ops.products``."""
    Ox = ops.products(x)
    return x, Ox, float(x @ Ox[1])


class StepProblem:
    """One implicit step of the reference march, eta -> eta+1, as an object with
    its residual and Jacobian: the formulas of ``advance``'s docstring, one layer
    per formula, that ``advance`` and ``newton_solve`` fold into one loop.

    ``row`` holds b1 and F at the levels eta-1, eta, eta+1 and the step's matrices
    (c1, c2, c3) (``step_matrices``); ``curr`` and ``prev`` are the states of d^eta
    and d^{eta-1} (``state``), ``prev`` None at startup, whose ghost level takes the
    velocity ``d1``.  R(X) = S(c_lin) X + th_dt2 sum_j G_j(X) K1 (X - s_j) + const,
    ``terms`` the (b_j, s_j, K1 s_j); ``F_avg`` is the averaged load.
    """

    def __init__(self, ops, cfg, row, curr, prev, d1):
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

    def _kirchhoff(self, X, K1X, q):
        """[(b_j, G_j(X), K1 (X - s_j))] over the terms; q = X^T K1 X serves the unshifted one."""
        out = []
        for b, s, K1s in self.terms:
            z, K1z = (X, K1X) if s is None else (X - s, K1X - K1s)
            out.append((b, b * (q if s is None else float(z @ K1z)), K1z))
        return out

    def residual(self, X, OX, q):
        """(R(X), terms) from the state (X, OX, q); ``terms`` are what ``jacobian_parts`` takes."""
        terms = self._kirchhoff(X, OX[1], q)
        r = self.c_lin @ OX
        r += self.const
        for _, g, K1z in terms:
            r += self.th_dt2 * g * K1z
        return r, terms

    def jacobian_parts(self, terms):
        """(c, U, V) with J = S(c) + U V^T at the X whose ``residual`` gave ``terms``."""
        c = self.c_lin.copy()
        c[1] += self.th_dt2 * sum(g for _, g, _ in terms)  # slot 1 is K1
        U, V = np.empty((2, terms[0][2].size, len(terms)))
        for j, (b, _, K1z) in enumerate(terms):
            np.multiply(self.th_dt2, K1z, out=U[:, j])
            np.multiply(2.0 * b, K1z, out=V[:, j])
        return c, U, V


def reference_newton(problem, start, solver=None):
    """Newton's iteration on a ``StepProblem`` from the state ``start``, one layer per
    formula: (the state at X, iterations, max |R(X)|), as ``newmark.newton_solve``."""
    solver = solver or LinearSolver(problem.ops)
    X, OX, q = start[0].copy(), *start[1:]
    for it in range(1, newmark.NEWTON_MAX_ITER + 1):
        r, terms = problem.residual(X, OX, q)
        rn = float(np.abs(r).max())
        if not math.isfinite(rn):
            raise NewtonNoConvergence("non-finite residual")
        if rn < newmark.NEWTON_TOL_RESID:
            return (X, OX, q), it - 1, rn
        c, U, V = problem.jacobian_parts(terms)
        step = solver.solve(c, np.negative(r, out=r), U, V)
        X, OX, q = state(problem.ops, np.add(X, step, out=X))
        if np.abs(step).max() < newmark.NEWTON_TOL_STEP:
            return (X, OX, q), it, float(np.abs(problem.residual(X, OX, q)[0]).max())
    raise NewtonNoConvergence(f"no convergence in {newmark.NEWTON_MAX_ITER} iterations")


def reference_advance(system, cfg, d0, d1):
    """The march as one ``StepProblem`` and one ``reference_newton`` per step, from
    the run's time table: the reference ``advance`` is pinned to bit for bit."""
    times = cfg.dt * np.arange(cfg.n_steps + 1)
    ds, iters, residuals = [np.asarray(d0, dtype=float)], [], []
    solver = LinearSolver(system.ops)
    b1, L1, L2, C = system.time_table(cfg)
    mats = step_matrices(cfg, L1, L2)
    loads = (system.level_load(0.0, C[0]),) * 2
    curr, prev = state(system.ops, ds[0]), None
    for eta in range(cfg.n_steps):
        if eta == 1:
            solver.reset()
        loads = loads[-2:] + (system.level_load(times[eta + 1], C[eta + 1]),)
        row = (b1[max(eta - 1, 0)], b1[eta], b1[eta + 1]), mats[eta], loads
        prob = StepProblem(system.ops, cfg, row, curr, prev, d1)
        try:
            reached, nit, resid = reference_newton(prob, curr, solver)
        except (NewtonNoConvergence, SingularJacobian):
            break
        dinf = float(np.abs(reached[0]).max(initial=0.0))
        if not math.isfinite(dinf) or dinf > newmark.DIVERGENCE_THRESHOLD:
            break
        ds.append(reached[0])
        iters.append(nit)
        residuals.append(resid)
        prev, curr = curr, reached
    done = len(ds) == cfg.n_steps + 1
    return Trajectory(ds, times[: len(ds)], iters, residuals,
                      "completed" if done else "diverged", None if done else len(ds),
                      solver.factorizations, solver.gmres_iterations)


def newton_step(problem, start, solver=None):
    """``newmark.newton_solve`` on the step a ``StepProblem`` poses, from the state
    ``start``, its solves through ``solver`` (a fresh ``LinearSolver`` by default)."""
    solver = solver or LinearSolver(problem.ops)
    return newmark.newton_solve(start, problem.c_lin, problem.const, problem.terms,
                                problem.ops.products, solver.solve, problem.th_dt2)


def residual_at(problem, X):
    """R(X) of a ``StepProblem``, with the state of X formed here as ``advance`` forms it."""
    return problem.residual(*state(problem.ops, X))[0]


def start_at(problem, x0):
    """The state (x0, O x0, x0^T K1 x0) ``newton_solve`` starts from, formed as
    ``advance`` forms it (``state``)."""
    return state(problem.ops, x0)


def step_row(system, cfg, eta):
    """The row of step eta as ``advance`` forms it from the run's time table: b1
    and F at the levels (eta-1, eta, eta+1), level 0 standing in for level -1 at
    startup, and the step's M1, M2, M3; the table reaches step eta at least."""
    cfg = dataclasses.replace(cfg, n_steps=max(cfg.n_steps, eta + 1))
    b1, L1, L2, C = system.time_table(cfg)
    levels = max(eta - 1, 0), eta, eta + 1
    return (tuple(b1[k] for k in levels), step_matrices(cfg, L1, L2)[eta],
            tuple(system.level_load(k * cfg.dt, C[k]) for k in levels))


def step_problem(system, cfg, eta, d_curr, d_prev, d1):
    """The ``StepProblem`` of step eta from the states d^eta and d^{eta-1}, or
    from d^0 and the velocity d1 at startup (eta = 0)."""
    prev = None if eta == 0 else state(system.ops, d_prev)
    return StepProblem(system.ops, cfg, step_row(system, cfg, eta),
                       state(system.ops, d_curr), prev, d1)


@pytest.fixture(scope="session")
def params():
    return BeamParameters(zeta0=128.0, zeta1=2.0, nu=1.0)


@pytest.fixture(scope="session")
def b1_1d():
    return MovingBoundary.b1(1)


@pytest.fixture(scope="session")
def b2_1d():
    return MovingBoundary.b2(1)


@pytest.fixture(scope="session")
def s1_1d():
    return ManufacturedCase.standard("S1", 1)


@pytest.fixture(scope="session")
def s1_2d():
    return ManufacturedCase.standard("S1", 2)


@pytest.fixture(scope="session")
def space_1d_coarse():
    return HermiteSpace(Mesh.uniform(1, 8))


@pytest.fixture(scope="session")
def space_2d_coarse():
    return HermiteSpace(Mesh.uniform(2, 4))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
