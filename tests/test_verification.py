"""Error norms, convergence machinery, theta sweep, weak/strong consistency."""
import math

import numpy as np
import pytest

from movingbeam import (
    BeamParameters,
    BoundaryKind,
    HermiteSpace,
    ManufacturedCase,
    Mesh,
    MovingBoundary,
    NewmarkConfig,
    cells_for_h,
    convergence_study,
    error_norms,
    simulate,
    theta_sweep,
)
from movingbeam import fem
from movingbeam.fem import interpolate_initial
from movingbeam.hermite import local_layout
from movingbeam.newmark import Trajectory
from movingbeam.verification import ConvergenceRow, ConvergenceTable, exact_nodal_trajectory

from conftest import error_series, weak_strong_consistency

LD = np.longdouble


def _gauss_longdouble(npts):
    """Gauss-Legendre nodes and weights on [0, 1] in extended precision: Newton
    on the Legendre recurrence, from the double-precision nodes."""
    x = np.polynomial.legendre.leggauss(npts)[0].astype(LD)
    for _ in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(2, npts + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = npts * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def _errors_longdouble(space, trajectory, case, nq=8):
    """(L2, Laplacian) errors of each state of a run against amp T(t) g(y),
    integrated per state in extended precision: nodes, weights, Hermite shapes,
    g and the residual all in ``np.longdouble``.  In 2D every table is the
    tensor product of the 1D ones: cells and points first axis fastest, local
    DOFs in the order of ``hermite.local_layout``."""
    cells, dim = space.mesh.cells, space.mesh.dim
    h = LD(2) / cells
    x, w = _gauss_longdouble(nq)
    N = np.stack([2 * x**3 - 3 * x**2 + 1, h * (x**3 - 2 * x**2 + x),
                  -2 * x**3 + 3 * x**2, h * (x**3 - x**2)], axis=1)
    ddN = np.stack([12 * x - 6, h * (6 * x - 4), 6 - 12 * x, h * (6 * x - 2)], axis=1) / (h * h)
    y = -1 + h * (np.arange(cells, dtype=LD)[:, None] + x[None, :])
    g, lap_g = (y * y - 1) ** 2, 12 * y * y - 4
    if dim == 2:
        corner, deriv = local_layout(2)
        ix, iy = (2 * corner + deriv).T  # the 1D shape of each local DOF on x and y

        def shapes(u, v):  # u(x) v(y): rows [q_y, q_x], local DOF columns
            return (u[None, :, ix] * v[:, None, iy]).reshape(nq * nq, -1)

        def values(u, v):  # u(x) v(y): rows [c_y, c_x], columns [q_y, q_x]
            return (u[None, :, None, :] * v[:, None, :, None]).reshape(cells * cells, -1)

        N, ddN = shapes(N, N), shapes(ddN, N) + shapes(N, ddN)
        g, lap_g = values(g, g), values(lap_g, g) + values(g, lap_g)
        w = np.outer(w, w).ravel()
    out = []
    for t, d in zip(trajectory.times, trajectory.d):
        de = space.expand(d).astype(LD)[space.element_dofs]
        s = LD(case.amplitude * case.temporal_factor(float(t)))
        out.append([np.sqrt(np.sum(h**dim * w * (de @ shapes.T - s * exact) ** 2))
                    for shapes, exact in ((N, g), (ddN, lap_g))])
    return np.array(out).T


class TestErrorNorms:
    def test_zero_case(self, b1_1d, params):
        case = ManufacturedCase("S1", 1, amplitude=0.0)
        space = HermiteSpace(Mesh.uniform(1, 8))
        times = np.linspace(0, 1, 5)
        traj = Trajectory(
            d=[np.zeros(space.ndof) for _ in times], times=times, newton_iterations=[]
        )
        rep = error_norms(space, traj, case)
        assert rep.linf_l2 == 0.0
        assert rep.linf_h2 == 0.0

    def test_interpolation_error_only_is_fourth_order(self, s1_1d):
        errs = []
        for cells in (8, 16):
            space = HermiteSpace(Mesh.uniform(1, cells))
            times = np.linspace(0.0, 1.0, 9)
            traj = exact_nodal_trajectory(space, s1_1d, times)
            rep = error_norms(space, traj, s1_1d)
            errs.append(rep.linf_l2)
        assert errs[0] / errs[1] >= 12.0

    # error_norms takes quadratic forms of the run's operators and reads the
    # states in blocks (1D at 64 cells: 130 states, not a divisor of 301); the
    # oracle integrates each state at the nq-point rule.  Measured: per-step
    # values within 1.8e-10 relative (the 1D run's interpolation-level steps,
    # where both sides cancel), L-inf within 8.2e-14
    @pytest.mark.parametrize("dim,cells,n_steps,nq", [(1, 64, 300, 8), (2, 8, 40, 8),
                                                      (2, 8, 6, 33)])
    def test_blocks_match_per_state_oracle(self, dim, cells, n_steps, nq, params):
        case = ManufacturedCase.standard("S1", dim)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=n_steps)
        res = simulate(case, MovingBoundary.b1(dim), params, cells, cfg)
        assert res.trajectory.completed
        rep = error_norms(res.space, res.trajectory, case, nq=nq)
        l2, h2 = error_series(res.space, res.trajectory, case, nq=nq)
        np.testing.assert_allclose(rep.l2_series, l2, rtol=5e-10, atol=0.0)
        np.testing.assert_allclose(rep.h2_series, h2, rtol=5e-10, atol=0.0)
        np.testing.assert_allclose([rep.linf_l2, rep.linf_h2], [l2.max(), h2.max()],
                                   rtol=5e-13, atol=0.0)
        assert (rep.linf_l2, rep.linf_h2) == (rep.l2_series.max(), rep.h2_series.max())

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_assembly_per_run(self, dim, params, monkeypatch):
        # the run's space hands its operators to error_norms, while
        # assemble_constant itself stays a pure assembly
        calls = []
        quadrature = fem._quadrature
        monkeypatch.setattr(fem, "_quadrature", lambda *a: calls.append(a) or quadrature(*a))
        case = ManufacturedCase.standard("S1", dim)
        res = simulate(case, MovingBoundary.b1(dim), params, 4,
                       NewmarkConfig(dt=2.0**-5, n_steps=4))
        error_norms(res.space, res.trajectory, case)
        assert len(calls) == 1
        fem.assemble_constant(res.space)
        assert len(calls) == 2

    def test_2d_run_integrates_on_the_axis_only(self, params, monkeypatch):
        # neither the loads nor the residual terms build a 2D basis table
        dims, tables = [], HermiteSpace.basis_tables
        monkeypatch.setattr(HermiteSpace, "basis_tables",
                            lambda space, nq: dims.append(space.mesh.dim) or tables(space, nq))
        case = ManufacturedCase.standard("S1", 2)
        res = simulate(case, MovingBoundary.b1(2), params, 4,
                       NewmarkConfig(dt=2.0**-5, n_steps=4))
        error_norms(res.space, res.trajectory, case)
        assert dims and set(dims) == {1}

    def test_diverged_trajectory_marker(self, s1_1d):
        space = HermiteSpace(Mesh.uniform(1, 8))
        traj = Trajectory(
            d=[np.zeros(space.ndof)], times=np.array([0.0]),
            newton_iterations=[], status="diverged", diverged_step=1,
        )
        rep = error_norms(space, traj, s1_1d)
        assert rep.diverged
        assert math.isnan(rep.linf_l2)


@pytest.mark.skipif(np.finfo(LD).eps > 1e-18, reason="no extended precision")
class TestErrorNormsExtendedPrecision:
    # a kirchhoff-like 1D run: S1 at amplitude 1, K = 1 + t/2, dt = h/4
    @pytest.fixture(scope="class")
    def run(self, params):
        b = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                           k0=0.5, k1_bound=2.5, k2_bound=1.0)
        case = ManufacturedCase("S1", 1, amplitude=1.0, temporal="cos")
        res = simulate(case, b, params, 32, NewmarkConfig.for_horizon(0.5, 2.0 / 32 / 4))
        assert res.trajectory.completed
        return case, res

    def test_maxima_match_the_longdouble_oracle(self, run):
        # measured: L-inf(L2) within 4.3e-14, L-inf(H2) within 1.5e-14
        case, res = run
        rep = error_norms(res.space, res.trajectory, case)
        l2, h2 = _errors_longdouble(res.space, res.trajectory, case)
        np.testing.assert_allclose([rep.linf_l2, rep.linf_h2],
                                   np.array([l2.max(), h2.max()], dtype=float), rtol=1e-10)

    @pytest.mark.parametrize("cells", [8, 32])
    def test_2d_exact_interpolant_matches_the_longdouble_oracle(self, cells):
        # d = s p, so e = 0 and the errors are |s| ||p - g|| and |s| ||lap(p - g)||:
        # the residual terms alone, which error_norms forms from 1D integrals.
        # Measured at 32 cells: 1.1e-11 (L2) and 1.9e-14 (Laplacian) relative.
        # e1 = p1 - q is a pointwise difference of O(1) values, so the L2 term
        # loses digits as h^-4: 5e-10 at 64 cells (a 2D quadrature: 3.8e-10)
        case = ManufacturedCase.standard("S1", 2)
        space, times = HermiteSpace(Mesh(2, cells)), np.linspace(0.0, 0.5, 5)
        traj = exact_nodal_trajectory(space, case, times)
        rep = error_norms(space, traj, case)
        l2, h2 = _errors_longdouble(space, traj, case)
        np.testing.assert_allclose(rep.l2_series, l2.astype(float), rtol=1e-10)
        np.testing.assert_allclose(rep.h2_series, h2.astype(float), rtol=1e-10)

    def test_exact_interpolant_is_the_scaled_residual(self, run):
        # d = s p bit for bit, so e = 0 and each L2 error is |s(t)| ||I g - g||
        case, res = run
        space, times = res.space, np.linspace(0.0, 1.0, 9)
        traj = exact_nodal_trajectory(space, case, times)
        p = interpolate_initial(space, case.spatial_factor)
        s = case.amplitude * np.array([case.temporal_factor(float(t)) for t in times])
        assert all(np.array_equal(d, si * p) for d, si in zip(traj.d, s))
        rep = error_norms(space, traj, case)
        ratio = rep.l2_series / np.abs(s)
        assert np.ptp(ratio) <= 4 * np.finfo(float).eps * ratio[0]
        np.testing.assert_allclose(rep.l2_series,
                                   _errors_longdouble(space, traj, case)[0].astype(float),
                                   rtol=1e-10)


class TestConvergenceTable:
    def test_synthetic_rate(self):
        table = ConvergenceTable(mode="coupled_h_eq_2dt")
        table.rows = [
            ConvergenceRow(1, 0.5, 0.25, 4e-3),
            ConvergenceRow(2, 0.25, 0.125, 1e-3),
        ]
        table.fill_rates()
        assert table.rows[0].rate is None
        assert table.rows[1].rate == pytest.approx(2.0)

    def test_diverged_rows_skip_rates(self):
        table = ConvergenceTable(mode="coupled_h_eq_2dt")
        table.rows = [
            ConvergenceRow(1, 0.5, 0.25, 4e-3),
            ConvergenceRow(2, 0.25, 0.125, math.nan, diverged=True),
            ConvergenceRow(3, 0.125, 0.0625, 1e-3),
        ]
        table.fill_rates()
        assert table.rows[1].rate is None
        assert table.rows[2].rate is None  # no valid predecessor

    def test_cells_for_h(self):
        assert cells_for_h(0.5) == 4
        assert cells_for_h(2.0**-6) == 128
        with pytest.raises(ValueError):
            cells_for_h(0.3)

    def test_study_validation(self, s1_1d, b1_1d, params):
        with pytest.raises(ValueError):
            convergence_study(s1_1d, b1_1d, params, "coupled_h_eq_2dt", levels=1)
        with pytest.raises(ValueError):
            convergence_study(s1_1d, b1_1d, params, "bogus", levels=2)


class TestStudiesSmoke:
    def test_coupled_small(self, s1_1d, b1_1d, params):
        table = convergence_study(
            s1_1d, b1_1d, params, "coupled_h_eq_2dt", levels=2, T=0.5
        )
        assert len(table.rows) == 2
        assert table.rows[1].error < table.rows[0].error

    def test_theta_sweep_small(self, s1_1d, b1_1d, params):
        sweep = theta_sweep(
            s1_1d, b1_1d, params,
            h_values=[0.5, 0.25], theta_values=[0.25, 1.0],
            dt=2.0**-5, T=0.25,
        )
        assert len(sweep.errors) == 4
        for v in sweep.errors.values():
            assert v is not None and v > 0.0


class TestStronglyNonlinearRates:
    def test_fast_boundary_unit_amplitude_is_second_order(self, params):
        # K = 1 + t/2 with S1 amplitude 1: K'/K and the Kirchhoff term are of
        # order one, unlike the paper's runs (K ~ 64), so a first-order
        # consistency error in the moving-end terms shows in the rates
        b = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                           k0=0.5, k1_bound=2.5, k2_bound=1.0)
        case = ManufacturedCase("S1", 1, amplitude=1.0, temporal="cos")
        errors = []
        for cells in (16, 32, 64, 128):
            cfg = NewmarkConfig.for_horizon(1.0, 2.0 / cells / 4.0)
            res = simulate(case, b, params, cells, cfg)
            assert res.trajectory.completed
            assert sum(res.trajectory.newton_iterations) <= 3 * cfg.n_steps
            errors.append(error_norms(res.space, res.trajectory, case).linf_l2)
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((rates >= 1.8) & (rates <= 2.3)), (errors, rates)


def _fe_member_callbacks(space, d_free):
    """Derivative callbacks backed by a concrete member of the FE space."""
    full = space.expand(d_free)
    nodes = space.mesh.node_coords()

    def derivs(pts, mi):
        pts = np.atleast_2d(pts)
        mi = tuple(mi)
        if space.mesh.dim == 1:
            sel = {(0,): "N", (1,): "grad0", (2,): "lap"}.get(mi)
            if sel is None:
                raise ValueError(mi)
            return space.eval_points(d_free, pts, sel)
        sel = {(0, 0): "N", (1, 0): "grad0", (0, 1): "grad1"}.get(mi)
        if sel is not None:
            return space.eval_points(d_free, pts, sel)
        if mi == (1, 1):
            # nodal cross-derivative: only needed at mesh nodes, where it is a DOF
            out = np.empty(len(pts))
            for i, p in enumerate(pts):
                node = np.argmin(
                    np.abs(nodes[:, 0] - p[0]) + np.abs(nodes[:, 1] - p[1])
                )
                out[i] = full[4 * node + 3]
            return out
        raise ValueError(mi)

    return derivs


class TestWeakStrongConsistency:
    def test_machine_precision_for_cubic_and_space_member(self, params, rng):
        # constant K: every integral is exact, so the residual is roundoff
        b = MovingBoundary.constant(64.0)
        space = HermiteSpace(Mesh.uniform(1, 8))

        def v_derivs(pts, mi):
            pts = np.atleast_2d(pts)[:, 0]
            order = mi[0]
            c3, c2, c1, c0 = 1.0, 0.2, -1.0, 0.05
            if order == 0:
                return c3 * pts**3 + c2 * pts**2 + c1 * pts + c0
            if order == 1:
                return 3 * c3 * pts**2 + 2 * c2 * pts + c1
            if order == 2:
                return 6 * c3 * pts + 2 * c2
            if order == 3:
                return np.full_like(pts, 6 * c3)
            return np.zeros_like(pts)

        d_w = rng.standard_normal(space.ndof)
        w_derivs = _fe_member_callbacks(space, d_w)
        resid = weak_strong_consistency(space, b, params, 0.3, v_derivs, w_derivs)
        assert resid < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trig_pair_decays_quadratically(self, dim, params):
        # residual of a smooth clamped pair must fall at >= O(h^2)
        b = MovingBoundary.b2(dim) if dim == 1 else MovingBoundary.b1(dim)
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x0:{dim}")
        expr_v = 1
        expr_w = 1
        for x in xs:
            u = (x + 1) / 2
            expr_v *= sympy.sin(sympy.pi * u) ** 2
            expr_w *= sympy.sin(sympy.pi * u) ** 2 * (1 + sympy.Rational(3, 10) * sympy.sin(sympy.pi * u))

        def from_sympy(expr):
            cache = {}

            def derivs(pts, mi):
                mi = tuple(mi)
                if mi not in cache:
                    e = expr
                    for ax, order in enumerate(mi):
                        e = sympy.diff(e, xs[ax], order)
                    cache[mi] = sympy.lambdify(xs, e, "numpy")
                pts = np.atleast_2d(pts)
                vals = cache[mi](*[pts[:, ax] for ax in range(dim)])
                return np.broadcast_to(np.asarray(vals, dtype=float), (len(pts),)).copy()

            return derivs

        v_derivs = from_sympy(expr_v)
        w_derivs = from_sympy(expr_w)
        cells_list = (4, 8, 16)
        resids = []
        for cells in cells_list:
            space = HermiteSpace(Mesh.uniform(dim, cells))
            resids.append(
                weak_strong_consistency(space, b, params, 0.25, v_derivs, w_derivs)
            )
        assert resids[0] > resids[1] > resids[2] > 0
        rate2 = math.log2(resids[1] / resids[2])
        assert rate2 >= 2.0 - 0.25

    def test_clamped_quartic_pair_refines(self, params):
        b = MovingBoundary.b1(1)
        q = ManufacturedCase.standard("S1", 1)

        def v_derivs(pts, mi):
            return q.eval(pts, 0.0, 0, tuple(mi)) / q.amplitude

        def w_derivs(pts, mi):
            return q.eval(pts, 0.0, 0, tuple(mi))

        resids = []
        for cells in (4, 8, 16):
            space = HermiteSpace(Mesh.uniform(1, cells))
            resids.append(
                weak_strong_consistency(space, b, params, 0.1, v_derivs, w_derivs)
            )
        assert resids[0] > resids[1] > resids[2]
        assert resids[0] / resids[1] >= 3.5
        assert resids[1] / resids[2] >= 3.5


class TestBoundaryInsensitivity:
    def test_b1_vs_b2_coupled_levels(self, params):
        case = ManufacturedCase.standard("S1", 1)
        errs = {}
        for name, b in (("B1", MovingBoundary.b1(1)), ("B2", MovingBoundary.b2(1))):
            table = convergence_study(
                case, b, params, "coupled_h_eq_2dt", levels=3, T=1.0
            )
            errs[name] = table.errors
        for e1, e2 in zip(errs["B1"], errs["B2"]):
            assert abs(e1 - e2) / e1 < 0.05
