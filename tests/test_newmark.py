"""Time stepper: Kirchhoff scalar, step operators, Newton, marching."""
import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv, dgesv

from movingbeam import (
    AssembledOperators,
    BeamParameters,
    BeamSystem,
    BoundaryKind,
    HermiteSpace,
    KroneckerOperators,
    ManufacturedCase,
    Mesh,
    MovingBoundary,
    NewmarkConfig,
    Trajectory,
    advance,
    assemble_constant,
    assemble_load,
    interpolate_initial,
    make_source,
)
from movingbeam import energy, geometry, newmark
from movingbeam.geometry import time_factors
from movingbeam.newmark import LinearSolver, SingularJacobian, step_matrices

from conftest import (StepProblem, a_coefficients, free_operators, jacobian_dense,
                      kirchhoff_scalar, newton_step, reference_advance, residual_at,
                      scalar_l_coefficients, scalar_source_coefficients, scalar_time_factors,
                      start_at, state, step_problem, step_row)

# K = 1 + t/2: K^-4, and with it the Newton matrix, drifts by about 3% per step at dt = 2^-6
FAST = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                      k0=0.5, k1_bound=2.5, k2_bound=1.0)


def _mms_system(dim=1, cells=8, case_id="S1", zeta1=2.0, nu=1.0, boundary=None,
                amplitude=None):
    case = ManufacturedCase.standard(case_id, dim)
    if amplitude is not None:
        case = dataclasses.replace(case, amplitude=amplitude)
    b = boundary or MovingBoundary.b1(dim)
    p = BeamParameters(zeta0=128.0, zeta1=zeta1, nu=nu)
    space = HermiteSpace(Mesh.uniform(dim, cells))
    ops = assemble_constant(space)
    system = BeamSystem(space, ops, b, p, make_source(case, b, p))
    d0 = interpolate_initial(space, case.initial_displacement())
    d1 = interpolate_initial(space, case.initial_velocity())
    return case, system, d0, d1


class TestKirchhoffScalar:
    def test_zero_state(self, space_1d_coarse):
        ops = assemble_constant(space_1d_coarse)
        assert kirchhoff_scalar(1.0, np.zeros(space_1d_coarse.ndof), ops.K1) == 0.0

    def test_unit_boundary_basis_vector(self):
        # K = 1, zeta1 = 1: b1 = 1, so G(e_k) = K1_kk
        b = MovingBoundary.constant(1.0)
        p = BeamParameters(zeta0=1.0, zeta1=1.0, nu=1.0)
        space = HermiteSpace(Mesh.uniform(1, 4))
        ops = assemble_constant(space)
        k = 2
        e = np.zeros(space.ndof)
        e[k] = 1.0
        G = kirchhoff_scalar(time_factors(b, p, 0.3).b1, e, ops.K1)
        assert G == pytest.approx(ops.K1.toarray()[k, k], rel=1e-15)

    def test_s1_interpolant_vs_dense_quadrature(self, b1_1d, params, s1_1d):
        # b1(0) * int |d_y v_h|^2 at 32 Gauss points per cell
        space = HermiteSpace(Mesh.uniform(1, 8))  # h = 2^-2
        ops = assemble_constant(space)
        d = interpolate_initial(space, s1_1d.initial_displacement())
        G = kirchhoff_scalar(2.0 * 64.0**-4, d, ops.K1)
        tab = space.basis_tables(32)
        gy = space.eval_at_quad(d, 32, "grad0")
        oracle = 2.0 * 64.0**-4 * float(np.sum(gy * gy * tab["w"][None, :]))
        assert G == pytest.approx(oracle, rel=1e-13)


class _ScalarSystem:
    """1-DOF stand-in for BeamSystem with prescribed matrices.

    Its coefficient vectors span (A, K1, L1, L2): slots 0 and 1 are A and K1
    as in AssembledOperators.BASIS, L1 and L2 take slots 2 and 3 at every level.
    """

    def __init__(self, A=1.0, L1=2.0, L2=3.0, b1=0.0, K1=1.0, F=0.0):
        stack = np.array([A, K1, L1, L2, 0.0])
        self.ops = SimpleNamespace(
            A=sp.csr_matrix(np.array([[A]])),
            K1=sp.csr_matrix(np.array([[K1]])),
            bandwidth=0,
            band=lambda c: np.array([[c @ stack]]),
            combine=lambda c: sp.csr_matrix(np.array([[c @ stack]])),
            products=lambda x: stack[:, None] * x,
        )
        self._b1 = b1
        self._F = F
        self.source = "F"  # a forced run: every level's load is [F]

    def time_table(self, cfg):
        n = cfg.n_steps + 1
        return (np.full(n, self._b1), *(np.tile(np.eye(5)[k], (n, 1)) for k in (2, 3)),
                np.full((n, 1), self._F))

    def level_load(self, t, c):
        return c  # one load term, whose vector is [1]


def _scalar_problem(system, cfg, eta, F=None):
    """The ``StepProblem`` of step eta of ``_ScalarSystem`` from zero history,
    and zero velocity at startup (eta = 0), with the loads ``F`` of its three
    levels when given."""
    zero = state(system.ops, np.zeros(1))
    b1, c, loads = step_row(system, cfg, eta)
    return StepProblem(system.ops, cfg, (b1, c, F or loads), zero,
                       None if eta == 0 else zero, np.zeros(1))


def _level(system, t):
    """(b1, L1, L2) at time t by the scalar formulas, apart from the run's table."""
    f = scalar_time_factors(system.boundary, system.params, t)
    return (f.b1, *scalar_l_coefficients(f, system.params.nu))


class TestStepOperators:
    def test_one_dof_arithmetic(self):
        # M1 = A + (dt/2) L1 + theta dt^2 L2 = 1 + 0.1 + 0.25*0.01*3 = 1.1075
        system = _ScalarSystem(A=1.0, L1=2.0, L2=3.0)
        cfg = NewmarkConfig(theta=0.25, dt=0.1, n_steps=1)
        prob = _scalar_problem(system, cfg, 1)
        M1, M3 = (system.ops.combine(c).toarray()[0, 0] for c in (prob.c1, prob.c3))
        assert M1 == pytest.approx(1.1075, abs=1e-15)
        assert M3 == pytest.approx(1.0 - 0.1 + 0.0075, abs=1e-15)

    def test_central_difference_limit(self):
        # theta = 0 and L1 = L2 = 0 reduce to (A, -2A, A) with zero load
        system = _ScalarSystem(A=2.5, L1=0.0, L2=0.0)
        cfg = NewmarkConfig(theta=0.0, dt=0.1, n_steps=1)
        prob = _scalar_problem(system, cfg, 3)
        M1, M2, M3 = (system.ops.combine(c).toarray()[0, 0] for c in (prob.c1, prob.c2, prob.c3))
        assert (M1, M2, M3) == (2.5, -5.0, 2.5)
        assert np.all(prob.F_avg == 0.0)

    def test_constant_load_average(self):
        # theta = 1/4 with equal loads at the three levels returns the load
        system = _ScalarSystem(F=3.25)
        cfg = NewmarkConfig(theta=0.25, dt=0.1, n_steps=1)
        assert _scalar_problem(system, cfg, 2).F_avg[0] == pytest.approx(3.25, rel=1e-15)

    def test_startup_load_average(self):
        # the step with no d^{eta-1} (prev=None) uses theta F^1 + (1-theta) F^0,
        # with level 0 standing in for level -1; a generic step weighs all three
        system = _ScalarSystem(F=2.0)
        cfg = NewmarkConfig(theta=0.3, dt=0.1, n_steps=1)
        assert _scalar_problem(system, cfg, 0).F_avg[0] == pytest.approx(2.0, rel=1e-15)
        F0, F1, F2 = (np.array([f]) for f in (2.0, 5.0, 7.0))
        startup = _scalar_problem(system, cfg, 0, (F0, F0, F1))
        assert startup.F_avg[0] == pytest.approx(0.3 * 5.0 + 0.7 * 2.0, rel=1e-15)
        generic = _scalar_problem(system, cfg, 1, (F0, F1, F2))
        assert generic.F_avg[0] == pytest.approx(0.3 * (2.0 + 7.0) + 0.4 * 5.0, rel=1e-15)

    def test_sum_identity(self, b1_1d, params):
        # with L1 at t_eta, M1 + M2 + M3 (with the explicit Kirchhoff part
        # restored) equals dt^2 [(1-2theta)(G K1 + L2^n) + theta (L2^{n+1} + L2^{n-1})],
        # and M1 - M3 = dt L1^n + theta dt^2 (L2^{n+1} - L2^{n-1})
        case, system, d0, _ = _mms_system(cells=8)
        cfg = NewmarkConfig(theta=0.3, dt=2.0**-5, n_steps=4)
        prob = step_problem(system, cfg, 2, d0, d0, d0)
        (_, _, L2m), (b1n, L1n, L2n), (_, _, L2p) = (_level(system, k * cfg.dt) for k in (1, 2, 3))
        g = kirchhoff_scalar(b1n, d0, system.ops.K1)
        dt, th = cfg.dt, cfg.theta
        ops = system.ops
        L2p, L2m, L1n, L2n = map(ops.combine, (L2p, L2m, L1n, L2n))
        for lhs, rhs in (
            (ops.combine(prob.c1 + prob.c2 + prob.c3) + dt * dt * (1 - 2 * th) * g * ops.K1,
             dt * dt * ((1 - 2 * th) * (g * system.ops.K1 + L2n) + th * (L2p + L2m))),
            (ops.combine(prob.c1 - prob.c3), dt * L1n + th * dt * dt * (L2p - L2m)),
        ):
            lhs, rhs = lhs.toarray(), rhs.toarray()
            scale = np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale


class TestTimeTable:
    # numpy's vectorized power and exp differ from Python's in the last ulp at
    # some levels of this grid, and the recorded runs keep the scalar bits
    @pytest.mark.parametrize("boundary", [MovingBoundary.b1(1), MovingBoundary.b2(1), FAST])
    def test_levels_are_the_scalar_time_factors(self, boundary, params):
        cfg = NewmarkConfig(dt=2.0**-7, n_steps=2560)
        space = HermiteSpace(Mesh.uniform(1, 4))
        system = BeamSystem(space, assemble_constant(space), boundary, params)
        b1, L1, L2, C = system.time_table(cfg)
        assert C == [None] * (cfg.n_steps + 1)
        for i in range(cfg.n_steps + 1):
            f = scalar_time_factors(boundary, params, i * cfg.dt)
            L1_i, L2_i = scalar_l_coefficients(f, params.nu)
            assert b1[i] == f.b1, i
            assert np.array_equal(L1[i], L1_i) and np.array_equal(L2[i], L2_i), i

    @pytest.mark.parametrize("case_id", ["S1", "S2"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("boundary", ["B1", "B2", "FAST"])
    def test_load_rows_are_the_scalar_source_coefficients(self, case_id, dim, boundary,
                                                          params):
        # each row of C has the bits of the scalar c(t) at its level, and the
        # level's load is that row times Phi, bit for bit
        b = {"B1": MovingBoundary.b1(dim), "B2": MovingBoundary.b2(dim), "FAST": FAST}[boundary]
        case = ManufacturedCase.standard(case_id, dim)
        cfg = NewmarkConfig(dt=2.0**-7, n_steps=256)
        space = HermiteSpace(Mesh.uniform(dim, 4))
        system = BeamSystem(space, assemble_constant(space), b, params,
                            make_source(case, b, params))
        *_, C = system.time_table(cfg)
        assert C.shape == (cfg.n_steps + 1, 5)
        for i in range(cfg.n_steps + 1):
            c = scalar_source_coefficients(case, b, params, i * cfg.dt)
            assert np.array_equal(C[i], c), i
        for i in (0, 1, 128, 256):
            F = system.level_load(i * cfg.dt, C[i])
            ref = scalar_source_coefficients(case, b, params, i * cfg.dt) @ system._phi
            alone = system.level_load(i * cfg.dt, system.source.coefficients(i * cfg.dt))
            assert F.tobytes() == ref.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("boundary", [MovingBoundary.b2(1), FAST])
    def test_energy_factors_are_the_scalar_time_factors(self, boundary, params, monkeypatch):
        # energy_series takes K, r, b1, b2, s0 of every state from one call, with
        # the bits of the scalar formulas at the trajectory's times
        blocks = _count_calls(monkeypatch, energy, "_energies")
        factors = _count_calls(monkeypatch, energy, "time_factors")
        case = ManufacturedCase.standard("S1", 1)
        space = HermiteSpace(Mesh.uniform(1, 64))
        system = BeamSystem(space, assemble_constant(space), boundary, params)
        d0 = interpolate_initial(space, case.initial_displacement())
        traj = advance(system, NewmarkConfig(dt=2.0**-7, n_steps=300), d0, 0.0 * d0)
        energy.energy_series(space, boundary, params, traj)
        assert len(factors) == 1 and len(blocks) > 1
        columns = np.concatenate([call[1] for call in blocks], axis=1)
        for t, column in zip(traj.times, columns.T):
            f = scalar_time_factors(boundary, params, float(t))
            assert np.array_equal(column, [f.k, f.r, f.b1, f.b2, f.s0]), t

    @pytest.mark.parametrize("theta", [0.25, 0.3])
    def test_step_matrices_are_each_steps_formulas(self, theta, params):
        # the formulas evaluated on each step's own 5-vectors give the same bits
        cfg = NewmarkConfig(theta=theta, dt=2.0**-6, n_steps=64)
        space = HermiteSpace(Mesh.uniform(1, 4))
        _, L1, L2, _ = BeamSystem(space, assemble_constant(space), FAST, params).time_table(cfg)
        A, dt, th_dt2 = np.eye(5)[0], cfg.dt, theta * cfg.dt * cfg.dt
        for eta, got in enumerate(step_matrices(cfg, L1, L2)):
            half_L1 = 0.5 * dt * L1[eta]
            ref = (A + half_L1 + th_dt2 * L2[eta + 1],
                   dt * dt * (1.0 - 2.0 * theta) * L2[eta] - 2.0 * A,
                   A - half_L1 + th_dt2 * L2[max(eta - 1, 0)])
            assert np.array_equal(got, np.stack(ref)), eta


class TestNewton:
    def test_linear_case_single_iteration(self):
        # zeta1 = 0 makes every step linear; Newton must converge in one step
        case, system, d0, d1 = _mms_system(zeta1=0.0)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=8)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed
        assert all(it <= 1 for it in traj.newton_iterations)

    def test_scalar_cubic_vs_bisection(self):
        # residual (m + theta dt^2 b x^2) x + gamma = 0 with K1 = [[1]]
        m, bcoef, gamma = 2.0, 5.0, -1.3
        theta, dt = 0.25, 0.5
        # zero history, constant load producing the affine term gamma
        system = _ScalarSystem(A=m, L1=0.0, L2=0.0, b1=bcoef, K1=1.0, F=-gamma / dt**2)
        cfg = NewmarkConfig(theta=theta, dt=dt, n_steps=1)
        prob = _scalar_problem(system, cfg, 1)

        def f(x):
            return (m + theta * dt * dt * bcoef * x * x) * x + gamma

        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        (X, *_), iters, _ = newton_step(prob, start_at(prob, np.zeros(1)))
        assert X[0] == pytest.approx(root, abs=1e-13)
        assert residual_at(prob, X)[0] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 4)])
    def test_jacobian_matches_finite_differences(self, dim, cells, rng):
        case, system, d0, d1 = _mms_system(dim=dim, cells=cells)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=4)
        for eta in (0, 2):
            prob = step_problem(system, cfg, eta, d0, 0.5 * d0, d1)
            X = d0 + 0.01 * rng.standard_normal(len(d0))
            J = jacobian_dense(prob, X, free_operators(system.space))
            eps = 1e-6
            Jfd = np.empty_like(J)
            for k in range(len(X)):
                e = np.zeros_like(X)
                e[k] = eps
                Jfd[:, k] = (residual_at(prob, X + e) - residual_at(prob, X - e)) / (2 * eps)
            denom = np.max(np.abs(Jfd))
            assert np.max(np.abs(J - Jfd)) / denom < 1e-6

    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("eta", [0, 2])
    def test_residual_matches_scheme(self, dim, cells, eta, rng):
        # the three-level formula from dense matrices, with the ghost level
        # d^{-1} = X - 2 dt d1 written out explicitly at startup.  K near 1 and
        # amplitude 1 make the Kirchhoff terms large enough to show; S2 starts
        # with a velocity, so the ghost shift is not zero, and d0 takes its profile
        case, system, _, d1 = _mms_system(dim=dim, cells=cells, case_id="S2",
                                          boundary=FAST, amplitude=1.0)
        d0 = d1 / case.omega
        cfg = NewmarkConfig(theta=0.3, dt=2.0**-5, n_steps=4)
        dt, th, ops = cfg.dt, cfg.theta, free_operators(system.space)
        K1 = ops.K1.toarray()
        d_prev = 0.5 * d0 + 0.1
        prob = step_problem(system, cfg, eta, d0, d_prev, d1)
        M1, M2, M3 = (ops.combine(c).toarray() for c in (prob.c1, prob.c2, prob.c3))
        lm, ln, lp = (_level(system, max(k, 0) * cfg.dt) for k in (eta - 1, eta, eta + 1))

        def G(level, d):
            return kirchhoff_scalar(level[0], d, ops.K1)

        for _ in range(3):
            X = d0 + 0.05 * rng.standard_normal(len(d0))
            dm = X - 2.0 * dt * d1 if eta == 0 else d_prev
            ref = (
                (M1 + th * dt * dt * G(lp, X) * K1) @ X
                + (M2 + dt * dt * (1 - 2 * th) * G(ln, d0) * K1) @ d0
                + (M3 + th * dt * dt * G(lm, dm) * K1) @ dm
                - dt * dt * prob.F_avg
            )
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(residual_at(prob, X) - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("load", [np.nan, np.inf, -np.inf])
    def test_non_finite_residual_is_no_convergence(self, load):
        system = _ScalarSystem(F=load)
        cfg = NewmarkConfig(theta=0.25, dt=0.1, n_steps=2)
        prob = _scalar_problem(system, cfg, 1)
        with pytest.raises(newmark.NewtonNoConvergence, match="non-finite residual"):
            newton_step(prob, start_at(prob, np.zeros(1)))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_iterate_is_no_convergence(self, bad, monkeypatch):
        # a linear solve that returns a non-finite step: no check of the iterate
        # itself, but the residual at it is non-finite, which raises (numpy warns
        # of the inf - inf in its products); in a run the step it poisons ends
        # the march as diverged
        _, system, d0, d1 = _mms_system(cells=8, boundary=FAST, amplitude=1.0)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=8)
        prob = step_problem(system, cfg, 1, d0, d0, d1)
        with pytest.raises(newmark.NewtonNoConvergence, match="non-finite residual"):
            newton_step(prob, start_at(prob, d0), _PoisonedSolver(system.ops, bad, after=0))
        ref = advance(system, cfg, d0, d1)
        assert ref.completed and max(ref.newton_iterations) > 1
        for after in (0, 4, 9):  # the first solve, the first of a step, one inside a step
            monkeypatch.setattr(newmark, "LinearSolver",
                                lambda ops: _PoisonedSolver(ops, bad, after))
            traj = advance(system, cfg, d0, d1)
            eta = int(np.searchsorted(np.cumsum(ref.newton_iterations), after, side="right"))
            assert traj.status == "diverged" and traj.diverged_step == eta + 1
            assert len(traj.d) == eta + 1 and traj.newton_iterations == ref.newton_iterations[:eta]
            assert all(np.array_equal(a, b) for a, b in zip(traj.d, ref.d))

    def test_newton_iteration_counts_small(self):
        case, system, d0, d1 = _mms_system()
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=16)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed
        assert max(traj.newton_iterations) <= 5


class TestAdvance:
    def test_zero_data_zero_source_stays_zero(self, b1_1d, params):
        space = HermiteSpace(Mesh.uniform(1, 8))
        ops = assemble_constant(space)
        system = BeamSystem(space, ops, b1_1d, params)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=8)
        z = np.zeros(space.ndof)
        traj = advance(system, cfg, z, z)
        assert traj.completed
        for d in traj.d:
            assert np.all(d == 0.0)

    def test_s1_paper_row_stays_finite(self):
        # h = 2^-3, dt = 2^-7, theta = 1/4 over [0, 1]
        case, system, d0, d1 = _mms_system(cells=16)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=128)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed
        assert all(np.all(np.isfinite(d)) for d in traj.d)

    def test_divergence_is_reported_not_raised(self):
        # theta = 0 on a mesh past the conditional-stability boundary
        case, system, d0, d1 = _mms_system(cells=512)
        cfg = NewmarkConfig(theta=0.0, dt=2.0**-7, n_steps=128)
        traj = advance(system, cfg, d0, d1)
        assert traj.status == "diverged"
        assert traj.diverged_step is not None

    def test_conservative_smoke(self):
        # nu = 0, zeta1 = 0, constant K, theta = 1/4: energy drift < 1 percent
        from movingbeam.energy import energy_series

        case = ManufacturedCase.standard("S1", 1)
        b = MovingBoundary.constant(64.0)
        p = BeamParameters(zeta0=128.0, zeta1=0.0, nu=0.0)
        space = HermiteSpace(Mesh.uniform(1, 16))
        ops = assemble_constant(space)
        system = BeamSystem(space, ops, b, p)  # homogeneous: no source
        d0 = interpolate_initial(space, case.initial_displacement())
        d1 = interpolate_initial(space, case.initial_velocity())
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=100)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed
        times, E = energy_series(space, b, p, traj)
        drift = abs(E[-1] - E[0]) / E[0]
        assert drift < 0.01

    def test_trace_collection(self):
        # every step records Newton's final max |R| next to its time and iterations
        case, system, d0, d1 = _mms_system(cells=8)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=4)
        traj = advance(system, cfg, d0, d1)
        assert len(traj.residuals) == len(traj.newton_iterations) == 4
        assert traj.times[1] == pytest.approx(2.0**-5)
        assert np.all(np.isfinite(traj.residuals)) and np.all(np.isfinite(traj.d[1]))

    # B1: one Newton iteration per step; FAST with amplitude 1: three
    @pytest.mark.parametrize("boundary,amplitude", [(None, None), (FAST, 1.0)])
    def test_each_level_and_product_formed_once(self, boundary, amplitude, monkeypatch):
        # a homogeneous 1D run evaluates its time factors in one call, which
        # evaluates the boundary once per level, and makes one five-operator
        # product per Newton iterate, plus O d0 and O d1 at startup; a 1D linear
        # solve makes none, as it runs no refinement sweep.  Each step is one ``newton_solve`` call,
        # which forms the Kirchhoff terms in one pass over them per residual (one
        # per iterate and one at the start): the Jacobian at the same X takes them
        factors = _count_calls(monkeypatch, newmark, "time_factors")
        products = _count_calls(monkeypatch, AssembledOperators, "products")
        steps, passes, original = [], [], newmark.newton_solve

        class Terms(list):  # a step's Kirchhoff terms, counting the passes over them
            def __iter__(self):
                passes.append(len(self))
                return super().__iter__()

        monkeypatch.setattr(newmark, "newton_solve", lambda start, c, const, terms, *a: (
            steps.append(terms) or original(start, c, const, Terms(terms), *a)))
        _, forced, d0, d1 = _mms_system(cells=16, boundary=boundary, amplitude=amplitude)
        system = BeamSystem(forced.space, forced.ops, forced.boundary, forced.params)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=16)
        boundaries = _count_calls(monkeypatch, geometry, "eval_boundary")
        traj = advance(system, cfg, d0, d1)
        assert traj.completed and len(steps) == cfg.n_steps
        assert len(factors) == 1 and len(boundaries) == cfg.n_steps + 1
        assert len(products) == sum(traj.newton_iterations) + 2 >= cfg.n_steps + 2
        assert products[0][1] is traj.d[0] and products[1][1] is d1
        assert len(passes) == sum(traj.newton_iterations) + cfg.n_steps
        assert passes.count(2) == traj.newton_iterations[0] + 1  # the startup's two terms
        # a forced run takes the source's coefficients in one call, before the
        # first step, from the table's time factors: no boundary is evaluated twice
        coefficients, before = forced.source.coefficients, []
        monkeypatch.setattr(forced.source, "coefficients",
                            lambda *a: before.append((len(steps), len(a))) or coefficients(*a))
        factors.clear(), boundaries.clear(), steps.clear()
        assert advance(forced, cfg, d0, d1).completed
        assert before == [(0, 2)] and len(steps) == cfg.n_steps
        assert len(factors) == 1 and len(boundaries) == cfg.n_steps + 1

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 8)])
    def test_each_state_carries_its_own_products_and_form(self, dim, cells, monkeypatch):
        # every step starts Newton from the state (d, O d, d^T K1 d) of d^eta that the
        # previous step's Newton returned; each carried q is float(d @ Od[1]) bit for
        # bit, and the products are those of d.  K = 1 + t/2 and amplitude 1: several
        # iterations a step
        posed, reached, original = [], [], newmark.newton_solve

        def recording(start, *args):
            out = original(start, *args)
            posed.append(start), reached.append(out[0])
            return out

        monkeypatch.setattr(newmark, "newton_solve", recording)
        _, system, d0, d1 = _mms_system(dim=dim, cells=cells, boundary=FAST, amplitude=1.0)
        traj = advance(system, NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=16), d0, d1)
        assert traj.completed and sum(traj.newton_iterations) > len(posed) == 16
        for eta, (d, Od, q) in enumerate(posed):
            assert d is traj.d[eta] and (eta == 0 or posed[eta] is reached[eta - 1])
            assert type(q) is float and q == float(d @ Od[1])
            assert Od.tobytes() == system.ops.products(d).tobytes()

    def test_newton_stops_on_a_small_step(self, monkeypatch):
        # with no residual below NEWTON_TOL_RESID = 0, Newton stops only on a step
        # below NEWTON_TOL_STEP: two more iterations than the residual exit takes
        # in the paper's regime, and the reported residual is max |R| at the X returned
        _, system, d0, d1 = _mms_system(cells=16)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=8)
        assert advance(system, cfg, d0, d1).newton_iterations == [1] * cfg.n_steps
        monkeypatch.setattr(newmark, "NEWTON_TOL_RESID", 0.0)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed and traj.newton_iterations == [3] * cfg.n_steps
        assert reference_advance(system, cfg, d0, d1).newton_iterations == [3] * cfg.n_steps
        for eta in range(cfg.n_steps):
            prob = step_problem(system, cfg, eta, traj.d[eta], traj.d[max(eta - 1, 0)], d1)
            assert traj.residuals[eta] == float(np.abs(residual_at(prob, traj.d[eta + 1])).max())


class TestReferenceMarch:
    # ``advance`` binds a run's products and solve once and runs one Newton loop;
    # the reference march (tests/conftest.py) poses a ``StepProblem`` per step and
    # iterates on its residual and Jacobian layers.  Every output is the same bits.
    # theta = 1/4 and a power-of-2 dt make the weights theta dt^2 and dt^2 (1 - 2 theta)
    # powers of 2, which hide a change in the order of their products; theta = 0.3 does not
    @pytest.mark.parametrize("dim,cells,boundary,amplitude,dt,homogeneous,theta", [
        (1, 16, None, None, 2.0**-7, True, 0.25),    # B1, homogeneous: one iteration a step
        (1, 16, FAST, 1.0, 2.0**-5, False, 0.25),    # K = 1 + t/2, dt = h/4: several, r = 2
        (1, 16, FAST, 1.0, 2.0**-5, False, 0.3),
        (2, 8, None, None, 2.0**-5, False, 0.25),    # S1/B1 in 2D: GMRES, kept preconditioner
    ])
    def test_march_is_the_reference_bit_for_bit(self, dim, cells, boundary, amplitude, dt,
                                                homogeneous, theta):
        _, system, d0, d1 = _mms_system(dim=dim, cells=cells, boundary=boundary,
                                        amplitude=amplitude)
        if homogeneous:
            system = BeamSystem(system.space, system.ops, system.boundary, system.params)
        cfg = NewmarkConfig(theta=theta, dt=dt, n_steps=round(1.0 / dt))
        got, ref = advance(system, cfg, d0, d1), reference_advance(system, cfg, d0, d1)
        assert got.completed and ref.completed
        assert got.newton_iterations == ref.newton_iterations
        assert max(got.newton_iterations) == (3 if boundary else 1)
        assert np.array(got.residuals).tobytes() == np.array(ref.residuals).tobytes()
        assert got.factorizations == ref.factorizations > 0
        assert got.gmres_iterations == ref.gmres_iterations
        assert (got.gmres_iterations > 0) == (dim == 2)
        assert len(got.d) == len(ref.d) == cfg.n_steps + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.d, ref.d))


def _woodbury_reference(S, rhs, U, V):
    """A fresh sparse LU of S and the Woodbury identity for U V^T."""
    lu = spla.splu(S.tocsc())
    x, Z = lu.solve(rhs), lu.solve(U)
    return x - Z @ np.linalg.solve(np.eye(U.shape[1]) + V.T @ Z, V.T @ x)


class _PerIterationLU:
    """Reference solver: a dense LU of the whole Newton matrix at every
    iteration, combined from ``csr``, the run's operators as ``free_operators``."""

    factorizations = gmres_iterations = 0

    def __init__(self, csr):
        self.csr = csr

    def reset(self):
        pass

    def solve(self, c, rhs, U, V):
        return np.linalg.solve(self.csr.combine(c).toarray() + U @ V.T, rhs)


class _PoisonedSolver(LinearSolver):
    """A ``LinearSolver`` whose solves from the ``after``-th on (counted from 0)
    return a step with one entry ``bad``."""

    def __init__(self, ops, bad, after):
        super().__init__(ops)
        self.bad, self.left = bad, after

    def solve(self, c, rhs, U, V):
        x = super().solve(c, rhs, U, V)
        self.left -= 1
        if self.left < 0:
            x[len(x) // 2] = self.bad
        return x


def _dgesv_solve(ops, c, rhs, U, V):
    """A 1D ``LinearSolver.solve`` whose Woodbury capacitance always goes to LAPACK's
    ``dgesv``, in the same arithmetic and memory layout otherwise."""
    bw, r = ops.bandwidth, U.shape[1]
    Y = np.empty((rhs.size, r + 1), order="F")
    Y[:, 0], Y[:, 1:] = rhs, U
    *_, Y, info = dgbsv(bw, bw, ops.band(c), Y, overwrite_ab=1, overwrite_b=1)
    assert info == 0
    y, Z = Y[:, 0], Y[:, 1:]
    C = V.T @ Z
    C.flat[::r + 1] += 1.0
    *_, W, info = dgesv(C, V.T, overwrite_a=1)
    assert info == 0
    return y - Z @ (W @ y)


def _step_matrix(system, cfg, eta):
    """The coefficient vector of M1 of generic step eta; no state enters it."""
    zero = np.zeros(system.space.ndof)
    return step_problem(system, cfg, eta, zero, zero, zero).c1


def _count_calls(monkeypatch, owner, name):
    """The positional arguments of each call of owner.name from here on, made
    through the owner."""
    calls, original = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


def _kirchhoff_columns(system, cfg, rng, r):
    """U and V in the Kirchhoff terms' form: theta dt^2 K1 z_j and 2 b_j K1 z_j,
    for random z_j and b_j = 1."""
    K1z = free_operators(system.space).K1 @ rng.standard_normal((system.space.ndof, r))
    return cfg.theta * cfg.dt ** 2 * K1z, 2.0 * K1z


class TestLinearSolver:
    # 1D: a band LU per solve.  2D: GMRES on the Kronecker form, preconditioned
    # by the fast diagonalization of a kept Newton matrix.

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_refined_solve_matches_fresh_lu(self, r, rng, monkeypatch):
        # the eigendecompositions of the step-1 matrix precondition the solve
        # with the step-64 one, in the paper's regime (B1) and with K = 1 + t/2,
        # where a random right-hand side needs 20-33 iterations and a restart
        monkeypatch.setattr(newmark, "GMRES_REFRESH", newmark.GMRES_MAX_ITER)
        for boundary, amplitude in ((None, None), (FAST, 1.0)):
            _, system, _, _ = _mms_system(dim=2, cells=16, boundary=boundary,
                                          amplitude=amplitude)
            cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=64)
            c0, c = (_step_matrix(system, cfg, eta) for eta in (1, 64))
            U, V = _kirchhoff_columns(system, cfg, rng, r)
            rhs = rng.standard_normal(system.space.ndof)
            solver = LinearSolver(system.ops)
            solver.solve(c0, rhs, U, V)
            x = solver.solve(c, rhs, U, V)
            assert solver.factorizations == 1
            ref = _woodbury_reference(free_operators(system.space).combine(c), rhs, U, V)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_1d_solve_is_one_lu_and_one_triangular_solve(self, r, rng, monkeypatch):
        # each 1D solve factors its own matrix and solves for r + 1 right-hand
        # sides in one dgbsv: no refinement sweep, so no operator product
        _, system, _, _ = _mms_system(cells=64)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=128)
        n = system.space.ndof
        U = 0.1 * rng.standard_normal((n, r))
        V = 2.0 * U
        solver = LinearSolver(system.ops)
        matrices = [_step_matrix(system, cfg, eta) for eta in (1, 64, 128)]
        products = _count_calls(monkeypatch, AssembledOperators, "products")
        banded = _count_calls(monkeypatch, newmark, "dgbsv")
        results = []
        for c in matrices:
            rhs = rng.standard_normal(n)
            results.append((c, rhs, solver.solve(c, rhs, U, V)))
        assert solver.factorizations == len(results) == len(banded)
        assert all(args[3].shape == (n, r + 1) for args in banded)  # dgbsv(kl, ku, ab, b)
        assert products == []
        for c, rhs, x in results:
            ref = _woodbury_reference(system.ops.combine(c), rhs, U, V)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_slow_boundary_keeps_one_factorization(self, monkeypatch):
        calls = _count_calls(monkeypatch, newmark, "eigh")
        _, system, d0, d1 = _mms_system(dim=2, cells=16)
        traj = advance(system, NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=128), d0, d1)
        assert traj.completed
        # one eigendecomposition for the startup step, one for the rest of the
        # run; the two axes of the square are one
        assert traj.factorizations == len(calls) <= 3

    def test_slow_solve_refreshes_the_preconditioner(self, monkeypatch):
        # a solve of more than GMRES_REFRESH iterations drops the eigendecompositions;
        # each solve here takes 2, so a limit of 1 diagonalizes every Newton matrix
        _, system, d0, d1 = _mms_system(dim=2, cells=8)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-4, n_steps=16)
        kept = advance(system, cfg, d0, d1)
        monkeypatch.setattr(newmark, "GMRES_REFRESH", 1)
        fresh = advance(system, cfg, d0, d1)
        assert kept.factorizations == 2
        assert fresh.factorizations == sum(fresh.newton_iterations) > 2
        assert fresh.newton_iterations == kept.newton_iterations
        scale = max(np.max(np.abs(d)) for d in kept.d)
        assert max(np.max(np.abs(a - b)) for a, b in zip(kept.d, fresh.d)) <= 1e-12 * scale

    def test_fast_boundary_matches_per_iteration_lu(self, monkeypatch):
        _, system, d0, d1 = _mms_system(dim=2, cells=8, boundary=FAST, amplitude=1.0)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=64)
        traj = advance(system, cfg, d0, d1)
        monkeypatch.setattr(newmark, "LinearSolver",
                            lambda ops: _PerIterationLU(free_operators(system.space)))
        ref = advance(system, cfg, d0, d1)
        assert traj.completed and ref.completed
        assert traj.newton_iterations == ref.newton_iterations
        scale = max(np.max(np.abs(d)) for d in ref.d)
        assert max(np.max(np.abs(a - b)) for a, b in zip(traj.d, ref.d)) <= 1e-8 * scale

    @pytest.mark.parametrize("boundary,cells,dt,amplitude", [
        (None, 128, 2.0**-7, None),    # B1
        (FAST, 32, 2.0**-6, 1.0),
    ])
    def test_matrices_are_formed_only_to_factor(self, boundary, cells, dt, amplitude,
                                                 monkeypatch):
        # 1D: one band array and one LU per linear solve, and no CSR matrix
        combined = _count_calls(monkeypatch, AssembledOperators, "combine")
        banded = _count_calls(monkeypatch, AssembledOperators, "band")
        solves = _count_calls(monkeypatch, LinearSolver, "solve")
        _, system, d0, d1 = _mms_system(cells=cells, boundary=boundary,
                                        amplitude=amplitude)
        traj = advance(system, NewmarkConfig(theta=0.25, dt=dt, n_steps=int(1 / dt)),
                       d0, d1)
        assert traj.completed
        assert len(banded) == traj.factorizations == len(solves)
        assert len(solves) >= sum(traj.newton_iterations) and combined == []

    @pytest.mark.parametrize("boundary,cells,dt,amplitude", [
        (None, 16, 2.0**-7, None),     # B1
        (FAST, 8, 2.0**-6, 1.0),
    ])
    def test_2d_march_forms_no_matrix(self, boundary, cells, dt, amplitude, monkeypatch):
        # 2D: the operators are the 1D ones of the axis; no band LU or band
        # array, and the only CSR combinations are the preconditioner's, one
        # per refresh
        _, system, d0, d1 = _mms_system(dim=2, cells=cells, boundary=boundary,
                                        amplitude=amplitude)
        factored = _count_calls(monkeypatch, newmark, "dgbsv")
        combined = _count_calls(monkeypatch, AssembledOperators, "combine")
        banded = _count_calls(monkeypatch, AssembledOperators, "band")
        traj = advance(system, NewmarkConfig(theta=0.25, dt=dt, n_steps=int(1 / dt)),
                       d0, d1)
        assert traj.completed and 0 < traj.factorizations < sum(traj.newton_iterations)
        assert isinstance(system.ops, KroneckerOperators)
        assert factored == banded == [] and len(combined) == traj.factorizations
        assert "band_stack" not in vars(system.ops.axis)

    @pytest.mark.parametrize("boundary,amplitude", [(None, None), (FAST, 1.0)])  # B1, K = 1 + t/2
    def test_2d_products_are_formed_once_per_state(self, boundary, amplitude, monkeypatch):
        # the five products of d^0, of the startup velocity and of each Newton
        # iterate; a GMRES iteration applies S(c) in one pass and forms none
        _, system, d0, d1 = _mms_system(dim=2, cells=8, boundary=boundary,
                                        amplitude=amplitude)
        formed = _count_calls(monkeypatch, KroneckerOperators, "grid_products")
        traj = advance(system, NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=16), d0, d1)
        assert traj.completed
        assert len(formed) == 2 + sum(traj.newton_iterations) < traj.gmres_iterations

    def test_gmres_iterations_are_counted(self, monkeypatch):
        # the run's total of the iterations gmres reports; a 1D run makes none
        iterations, original = [], newmark.gmres

        def counting(*args):
            x, count = original(*args)
            iterations.append(count)
            return x, count

        monkeypatch.setattr(newmark, "gmres", counting)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=16)
        _, system, d0, d1 = _mms_system(dim=2, cells=8, boundary=FAST, amplitude=1.0)
        traj = advance(system, cfg, d0, d1)
        assert traj.completed and traj.gmres_iterations == sum(iterations) > len(iterations)
        _, system, d0, d1 = _mms_system(cells=8, boundary=FAST, amplitude=1.0)
        assert advance(system, cfg, d0, d1).gmres_iterations == 0

    def test_gmres_missing_its_target_is_a_singular_jacobian(self, monkeypatch):
        # the paper's regime needs 2 iterations per solve: a cap of 1 misses the
        # target, which raises and never returns the unconverged step
        _, system, d0, d1 = _mms_system(dim=2, cells=8)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-4, n_steps=16)
        monkeypatch.setattr(newmark, "GMRES_MAX_ITER", 1)
        prob = step_problem(system, cfg, 1, d0, d0, d1)
        with pytest.raises(SingularJacobian, match="GMRES"):
            newton_step(prob, start_at(prob, d0))
        traj = advance(system, cfg, d0, d1)
        assert traj.status == "diverged" and traj.diverged_step == 1 and len(traj.d) == 1
        monkeypatch.setattr(newmark, "GMRES_MAX_ITER", 2)
        assert advance(system, cfg, d0, d1).completed

    def test_singular_newton_matrix(self):
        # A = L1 = L2 = 0 and b1 = 0 leave the zero Newton matrix
        system = _ScalarSystem(A=0.0, L1=0.0, L2=0.0, F=1.0)
        cfg = NewmarkConfig(theta=0.25, dt=0.1, n_steps=2)
        prob = _scalar_problem(system, cfg, 1)
        with pytest.raises(SingularJacobian):
            newton_step(prob, start_at(prob, np.zeros(1)))
        # also when the kept factors belong to a regular matrix (K1 = [[1]], A = 0)
        solver, none = LinearSolver(system.ops), np.zeros((1, 0))
        regular, zero = np.eye(5)[1], np.eye(5)[0]
        solver.solve(regular, np.ones(1), none, none)
        with pytest.raises(SingularJacobian):
            solver.solve(zero, np.ones(1), none, none)
        traj = advance(system, cfg, np.zeros(1), np.zeros(1))
        assert traj.status == "diverged" and traj.diverged_step == 1
        # the zero matrix of an assembled system: a zero pivot of the band LU in
        # 1D, a zero eigenvalue sum of the preconditioner in 2D
        for dim, match in ((1, "zero pivot"), (2, "zero eigenvalue sum")):
            space = HermiteSpace(Mesh.uniform(dim, 4))
            ops, n = assemble_constant(space), space.ndof
            with pytest.raises(SingularJacobian, match=match):
                LinearSolver(ops).solve(np.zeros(5), np.ones(n), np.zeros((n, 0)),
                                        np.zeros((n, 0)))

    def test_one_term_capacitance_is_dgesv_bit_for_bit(self, rng):
        # r = 1: the capacitance 1 + V^T S^-1 U is a scalar, solved by a product with
        # its reciprocal, as OpenBLAS's dgesv solves a 1 x 1 system.  Random (V, Z =
        # S^-1 U) pairs, their scales over twelve decades, give the same bits
        _, system, _, _ = _mms_system(cells=4)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=128)
        c, n = _step_matrix(system, cfg, 64), system.space.ndof
        solver = LinearSolver(system.ops)
        for _ in range(10_000):
            U, V = 10.0 ** rng.uniform(-6.0, 6.0, (2, 1, 1)) * rng.standard_normal((2, n, 1))
            rhs = rng.standard_normal(n)
            x = solver.solve(c, rhs, U, V)
            assert x.tobytes() == _dgesv_solve(system.ops, c, rhs, U, V).tobytes()

    def test_one_term_capacitance_in_a_run_is_dgesv_bit_for_bit(self, monkeypatch):
        # every solve of every generic step of a B1 run (r = 1), against dgesv
        solves, original = [], LinearSolver.solve

        def recording(self, c, rhs, U, V):
            x = original(self, c, rhs, U, V)
            solves.append((c, rhs.copy(), U, V, x))
            return x

        monkeypatch.setattr(LinearSolver, "solve", recording)
        _, system, d0, d1 = _mms_system(cells=32)
        traj = advance(system, NewmarkConfig(theta=0.25, dt=2.0**-7, n_steps=64), d0, d1)
        generic = [call for call in solves if call[2].shape[1] == 1]
        assert traj.completed and len(generic) == sum(traj.newton_iterations[1:]) >= 63
        for c, rhs, U, V, x in generic:
            assert x.tobytes() == _dgesv_solve(system.ops, c, rhs, U, V).tobytes()

    def test_singular_woodbury_capacitance(self):
        # S = K1 = [[1]] is regular, but U V^T = -1 makes I + V^T S^-1 U exactly 0
        solver = LinearSolver(_ScalarSystem().ops)
        with pytest.raises(SingularJacobian, match="capacitance"):
            solver.solve(np.eye(5)[1], np.ones(1), np.ones((1, 1)), -np.ones((1, 1)))

    def test_singular_woodbury_capacitance_at_startup(self):
        # the startup step's two Kirchhoff terms (r = 2) at X = 1, with theta dt^2 = 1,
        # b1 = -1/4 and S = 2A - K1/2 = [[1]]: U = [1, 1] and V = -[1/2, 1/2] make
        # I + V^T S^-1 U = [[1/2, -1/2], [-1/2, 1/2]], whose second pivot is exactly 0
        system = _ScalarSystem(A=0.75, L2=0.0, b1=-0.25)
        prob = _scalar_problem(system, NewmarkConfig(theta=0.25, dt=2.0, n_steps=1), 0)
        c, U, V = prob.jacobian_parts(prob.residual(*start_at(prob, np.ones(1)))[1])
        assert system.ops.band(c)[0, 0] == 1.0
        assert np.array_equal(U, [[1.0, 1.0]]) and np.array_equal(V, [[-0.5, -0.5]])
        with pytest.raises(SingularJacobian, match="capacitance"):
            newton_step(prob, start_at(prob, np.ones(1)))

    def test_reruns_are_byte_identical(self):
        # factorizations: band LUs in 1D, refreshed eigendecompositions in 2D
        for dim, cells, boundary in ((1, 32, FAST), (2, 8, FAST), (2, 16, None)):
            _, system, d0, d1 = _mms_system(dim=dim, cells=cells, boundary=boundary,
                                            amplitude=1.0 if boundary else None)
            cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=64)
            first, second = (advance(system, cfg, d0, d1) for _ in range(2))
            assert first.factorizations == second.factorizations >= 2
            assert first.newton_iterations == second.newton_iterations
            assert (b"".join(d.tobytes() for d in first.d)
                    == b"".join(d.tobytes() for d in second.d))


def _strong_operator(tf, derivs, pts):
    """Displacement terms of the strong operator, less the Kirchhoff term, from
    the paper's a1..a3 at every point:

        b2 bilap v - a1_i d_ii v + a2_ij d_ij v + (a3_i + (4n+8) y_i (K'/K)^2) d_i v

    for v given by ``derivs(points, multi_index)``."""
    dim = pts.shape[1]
    eye = np.eye(dim, dtype=int)
    a1, a2, a3, _, _ = a_coefficients(tf, pts)

    def d(mi):
        return derivs(pts, tuple(int(o) for o in mi))

    out = tf.b2 * sum(d(2 * eye[i] + 2 * eye[j]) for i in range(dim) for j in range(dim))
    for i in range(dim):
        out -= a1[:, i] * d(2 * eye[i])
        out += (a3[:, i] + (4.0 * dim + 8.0) * pts[:, i] * tf.r * tf.r) * d(eye[i])
        for j in range(dim):
            out += a2[:, i, j] * d(eye[i] + eye[j])
    return out


def _pointwise_source(case, b, p):
    """The source formula of the manufactured module, term by term at each point,
    with an oracle of its own rather than ``strong_terms``."""
    eye = np.eye(case.dim, dtype=int)

    def f(pts, t):
        tf = scalar_time_factors(b, p, t)
        a4 = a_coefficients(tf, pts)[3]
        out = case.eval(pts, t, 2) + p.nu * case.eval(pts, t, 1)
        out -= tf.b1 * case.grad_norm_sq(t) * sum(case.eval(pts, t, 0, tuple(2 * e))
                                                   for e in eye)
        out += _strong_operator(tf, lambda q, mi: case.eval(q, t, 0, mi), pts)
        for i in range(case.dim):
            out += a4[:, i] * case.eval(pts, t, 1, tuple(eye[i]))
        return out
    return f


class TestLoadBasis:
    @pytest.mark.parametrize("case_id", ["S1", "S2"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("which", ["B1", "B2", "custom"])
    def test_load_matches_quadrature_of_pointwise_source(self, case_id, dim, which,
                                                         params):
        b = {
            "B1": MovingBoundary.b1(dim),
            "B2": MovingBoundary.b2(dim),
            "custom": MovingBoundary(  # K = 2 - e^-t: K'' != 0 and K'/K of order 1
                BoundaryKind.EXPONENTIAL_SATURATION, base=1.0, amplitude=1.0, rate=1.0),
        }[which]
        case = ManufacturedCase.standard(case_id, dim)
        space = HermiteSpace(Mesh.uniform(dim, 8 if dim == 1 else 4))
        system = BeamSystem(space, assemble_constant(space), b, params,
                            make_source(case, b, params))
        reference = _pointwise_source(case, b, params)
        for t in (0.0, 0.1, 0.25, 0.37, 0.5, 0.61, 0.75, 0.9, 1.0):
            ref = assemble_load(space, lambda y: reference(y, t))
            F = system.level_load(t, system.source.coefficients(t))
            assert np.max(np.abs(F - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_forced_run_integrates_five_terms_once(self, monkeypatch):
        # five integrations per run, each on the 1D axis space, in 2D too
        calls, original = [], newmark.assemble_load  # the space of each call
        monkeypatch.setattr(newmark, "assemble_load",
                            lambda space, *a: calls.append(space) or original(space, *a))
        for dim in (2, 1):
            for n_steps in (8, 64):
                _, system, d0, d1 = _mms_system(dim=dim, cells=8)
                traj = advance(system, NewmarkConfig(dt=2.0**-6, n_steps=n_steps), d0, d1)
                assert traj.completed and len(calls) == 5
                axis = system.space.axis or system.space
                assert all(space is axis and space.mesh.dim == 1 for space in calls)
                calls.clear()
        # the decomposition is data on the source, so a functools.wraps wrapper
        # (as a tracer would add) keeps it
        source = system.source
        wrapped = BeamSystem(system.space, system.ops, system.boundary, system.params,
                             functools.wraps(source)(lambda pts, t: source(pts, t)))
        rerun = advance(wrapped, NewmarkConfig(dt=2.0**-6, n_steps=64), d0, d1)
        assert len(calls) == 5
        assert all(np.array_equal(a, b) for a, b in zip(rerun.d, traj.d))
        calls.clear()
        homogeneous = BeamSystem(system.space, system.ops, system.boundary, system.params)
        traj = advance(homogeneous, NewmarkConfig(dt=2.0**-6, n_steps=8), d0, d1)
        assert traj.completed and calls == []
        assert homogeneous.level_load(0.5, None) == 0.0  # the row C[i] of a homogeneous run

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 4)])
    def test_homogeneous_run_equals_zero_source_run(self, dim, cells):
        # the scalar 0.0 load of a source-free run against a source whose
        # coefficients are all zero: the same states, bit for bit
        case, system, d0, d1 = _mms_system(dim=dim, cells=cells, boundary=FAST,
                                           amplitude=1.0)
        b, p = system.boundary, system.params
        zero = make_source(dataclasses.replace(case, amplitude=0.0), b, p)
        assert all(np.all(zero.coefficients(t) == 0.0) for t in (0.0, 0.3, 1.0))
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=16)
        homogeneous, zero_source = (
            advance(BeamSystem(system.space, system.ops, b, p, f), cfg, d0, d1)
            for f in (None, zero))
        assert homogeneous.completed and zero_source.completed
        assert homogeneous.newton_iterations == zero_source.newton_iterations
        # band LUs in 1D, refreshed eigendecompositions in 2D
        assert homogeneous.factorizations == zero_source.factorizations
        assert all(np.array_equal(u, v) for u, v in zip(homogeneous.d, zero_source.d))
        source_free = BeamSystem(system.space, system.ops, b, p)
        for eta in (0, 1):
            prob = step_problem(source_free, cfg, eta, d0, d0, d1)
            assert isinstance(prob.F_avg, float) and prob.F_avg == 0.0

    def test_plain_source_is_refused_at_construction(self, b1_1d, params):
        # a plain f(y, t) gives no terms to integrate once: refused before any level
        space = HermiteSpace(Mesh.uniform(1, 8))
        ops = assemble_constant(space)
        source = make_source(ManufacturedCase.standard("S1", 1), b1_1d, params)
        only_terms = functools.partial(source)  # an f(y, t) with `axis_terms` only
        only_terms.axis_terms = source.axis_terms
        for f in (lambda y, t: np.zeros(len(y)), only_terms):
            with pytest.raises(TypeError, match="make_source"):
                BeamSystem(space, ops, b1_1d, params, f)
        assert BeamSystem(space, ops, b1_1d, params, source).source is source

    def test_non_finite_load_names_the_time(self, b1_1d, params):
        case = dataclasses.replace(ManufacturedCase.standard("S1", 1), amplitude=np.inf)
        space = HermiteSpace(Mesh.uniform(1, 8))
        system = BeamSystem(space, assemble_constant(space), b1_1d, params,
                            make_source(case, b1_1d, params))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                         match="non-finite at t=0.25"):
            system.level_load(0.25, system.source.coefficients(0.25))


    def test_non_finite_level_load_in_a_run_names_the_time(self, b1_1d, params):
        # the march reads each level's load from the run's table; a non-finite
        # row raises before the first step, naming its level's time
        case = dataclasses.replace(ManufacturedCase.standard("S1", 1), amplitude=np.inf)
        space = HermiteSpace(Mesh.uniform(1, 8))
        system = BeamSystem(space, assemble_constant(space), b1_1d, params,
                            make_source(case, b1_1d, params))
        d0 = np.zeros(space.ndof)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite at t=0.0"):
            advance(system, NewmarkConfig(dt=2.0**-5, n_steps=4), d0, d0)


class TestConfigValidation:
    def test_bad_theta(self):
        with pytest.raises(ValueError):
            NewmarkConfig(theta=1.5)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            NewmarkConfig(dt=0.0)

    def test_for_horizon_divisibility(self):
        cfg = NewmarkConfig.for_horizon(1.0, 2.0**-3)
        assert cfg.n_steps == 8
        with pytest.raises(ValueError):
            NewmarkConfig.for_horizon(1.0, 0.3)
