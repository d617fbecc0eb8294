"""Exact solutions and source construction, against symbolic oracles."""
import dataclasses
import math

import numpy as np
import pytest

from movingbeam import (AssembledOperators, BeamParameters, ManufacturedCase, MovingBoundary,
                        make_source)
from movingbeam.fem import gauss_rule, l_coefficients
from movingbeam.geometry import BoundaryKind, time_factors
from movingbeam.manufactured import strong_coefficients, strong_terms, tensor_terms


class TestExactEval:
    def test_s1_center_value(self, s1_1d):
        assert s1_1d.eval([[0.0]], 0.0)[0] == pytest.approx(0.1)

    def test_s2_zero_at_t0(self):
        s2 = ManufacturedCase.standard("S2", 1)
        pts = np.linspace(-1, 1, 7)[:, None]
        assert np.all(s2.eval(pts, 0.0) == 0.0)

    def test_s1_derivative_at_center(self, s1_1d):
        # d_y v = 0.1 * 4 y (y^2 - 1) cos(...) vanishes at y = 0
        assert s1_1d.eval([[0.0]], 0.3, 0, (1,))[0] == 0.0

    def test_unsupported_selector(self, s1_1d):
        with pytest.raises(ValueError):
            s1_1d.eval([[0.0]], 0.0, dt_order=3)
        with pytest.raises(ValueError):
            s1_1d.eval([[0.0]], 0.0, space=(5,))
        with pytest.raises(ValueError):
            s1_1d.eval([[0.0]], 0.0, space=(1, 1))

    def test_clamped_compatibility(self, s1_2d, rng):
        # v and grad v vanish on the box boundary
        edge = rng.uniform(-1, 1, size=12)
        for fixed_axis in (0, 1):
            for side in (-1.0, 1.0):
                pts = np.empty((12, 2))
                pts[:, fixed_axis] = side
                pts[:, 1 - fixed_axis] = edge
                assert np.max(np.abs(s1_2d.eval(pts, 0.37))) == 0.0
                g0 = s1_2d.eval(pts, 0.37, 0, (1, 0))
                g1 = s1_2d.eval(pts, 0.37, 0, (0, 1))
                assert np.max(np.abs(g0)) == 0.0
                assert np.max(np.abs(g1)) == 0.0

    def test_initial_data_matches_callbacks(self, s1_1d, rng):
        pts = rng.uniform(-1, 1, size=(9, 1))
        np.testing.assert_array_equal(
            s1_1d.initial_displacement()(pts, (0,)), s1_1d.eval(pts, 0.0)
        )
        np.testing.assert_array_equal(
            s1_1d.initial_velocity()(pts, (1,)), s1_1d.eval(pts, 0.0, 1, (1,))
        )

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            ManufacturedCase.standard("S3", 1)


class TestGradNormSq:
    @pytest.mark.parametrize("case_id,dim", [("S1", 1), ("S2", 1), ("S1", 2)])
    def test_against_quadrature_oracle(self, case_id, dim):
        case = ManufacturedCase.standard(case_id, dim)
        t = 0.217
        pts, w = gauss_rule(dim, 16)
        # map [0,1]^dim rule to the box (-1,1)^dim
        Y = 2.0 * pts - 1.0
        scale = 2.0**dim
        total = np.zeros(len(Y))
        for i in range(dim):
            mi = [0] * dim
            mi[i] = 1
            total += case.eval(Y, t, 0, tuple(mi)) ** 2
        oracle = scale * float(w @ total)
        assert case.grad_norm_sq(t) == pytest.approx(oracle, rel=1e-13)


class TestSource:
    def test_zero_amplitude_gives_zero_source(self, b1_1d, params):
        case = ManufacturedCase("S1", 1, amplitude=0.0)
        f = make_source(case, b1_1d, params)
        pts = np.linspace(-1, 1, 5)[:, None]
        assert np.all(f(pts, 0.4) == 0.0)

    def test_linear_constant_boundary_reduction(self, s1_1d):
        # K constant, zeta1 = 0: f = v_tt + b2 v_yyyy + nu v_t - (zeta0/K^2) v_yy
        sympy = pytest.importorskip("sympy")
        K, z0, nu = 64.0, 128.0, 1.0
        b = MovingBoundary.constant(K)
        p = BeamParameters(zeta0=z0, zeta1=0.0, nu=nu)
        f = make_source(s1_1d, b, p)

        y, t = sympy.symbols("y t")
        v = sympy.Rational(1, 10) * (y**2 - 1) ** 2 * sympy.cos(2 * sympy.pi * t)
        expr = (
            sympy.diff(v, t, 2)
            + K**-4 * sympy.diff(v, y, 4)
            + nu * sympy.diff(v, t)
            - (z0 / K**2) * sympy.diff(v, y, 2)
        )
        fn = sympy.lambdify((y, t), expr, "numpy")
        pts = np.linspace(-0.9, 0.9, 7)
        tv = 0.31
        np.testing.assert_allclose(
            f(pts[:, None], tv), fn(pts, tv), rtol=1e-12, atol=1e-15
        )

    def test_moving_boundary_source_vs_symbolic_weak_form_oracle(self, params):
        # independent oracle: derive the strong operator by symbolic integration
        # by parts of the assembled weak form (1D, generic clamped pair)
        sympy = pytest.importorskip("sympy")
        case = ManufacturedCase.standard("S1", 1)
        b = MovingBoundary.b2(1)
        f = make_source(case, b, params)
        tv = 0.43

        y = sympy.Symbol("y")
        t = sympy.Symbol("t")
        K = 64 + 2 * (1 - sympy.exp(-t))
        Kp = sympy.diff(K, t)
        Kpp = sympy.diff(K, t, 2)
        z0, z1, nu = params.zeta0, params.zeta1, params.nu
        a1 = (z0 - 4 * (y * Kp) ** 2) / K**2
        a2 = 4 * y * y * (Kp / K) ** 2
        a3 = (2 * y * Kp**2 - y * K * (nu * Kp + Kpp)) / K**2
        a4 = -2 * y * Kp / K
        a5 = a3 + 2 * (Kp / K) * a4
        v = sympy.Rational(1, 10) * (y**2 - 1) ** 2 * sympy.cos(2 * sympy.pi * t)
        gnorm = sympy.integrate(sympy.diff(v, y) ** 2, (y, -1, 1))
        b2c = 1 / K**4
        b1c = z1 / K**4
        # spatial weak-form terms transformed back to a strong operator:
        # (a1 v', w') -> -(a1 v')' w ; -(a2 v', w') -> +(a2 v')' w ; (a5 v', w)
        strong = (
            sympy.diff(v, t, 2)
            + nu * sympy.diff(v, t)
            + a4 * sympy.diff(sympy.diff(v, t), y)
            - b1c * gnorm * sympy.diff(v, y, 2)
            + b2c * sympy.diff(v, y, 4)
            - sympy.diff(a1 * sympy.diff(v, y), y)
            + sympy.diff(a2 * sympy.diff(v, y), y)
            + a5 * sympy.diff(v, y)
        )
        fn = sympy.lambdify((y, t), strong, "numpy")
        pts = np.linspace(-0.95, 0.95, 9)
        np.testing.assert_allclose(
            f(pts[:, None], tv), fn(pts, tv), rtol=1e-10, atol=1e-14
        )

    @pytest.mark.parametrize("amp_k", [2.0**-17, 2.0])
    def test_2d_s2_source_vs_symbolic_weak_form_oracle(self, params, amp_k):
        # 2D form of the oracle above, with the y_i y_j d_ij cross terms.  The
        # 2D B2 drift (2^-17) leaves the (K'/K)^2 terms below rtol; the 1D B2
        # drift (2) on the same box makes them visible.
        sympy = pytest.importorskip("sympy")
        case = ManufacturedCase.standard("S2", 2)
        b = dataclasses.replace(MovingBoundary.b2(2), amplitude=amp_k)
        f = make_source(case, b, params)
        tv = 0.43

        y = sympy.symbols("y1 y2")
        t = sympy.Symbol("t")
        K = 64 + amp_k * (1 - sympy.exp(-t))
        Kp = sympy.diff(K, t)
        Kpp = sympy.diff(K, t, 2)
        z0, z1, nu = params.zeta0, params.zeta1, params.nu
        r = Kp / K
        c3 = (2 * Kp**2 - K * (nu * Kp + Kpp)) / K**2
        a1 = [(z0 - 4 * (yi * Kp) ** 2) / K**2 for yi in y]
        a2 = [[4 * yi * yj * r**2 for yj in y] for yi in y]
        a4 = [-2 * yi * r for yi in y]
        a5 = [c3 * yi + 2 * r * a4i for yi, a4i in zip(y, a4)]
        v = (sympy.Rational(1, 10**7) * (y[0] ** 2 - 1) ** 2 * (y[1] ** 2 - 1) ** 2
             * sympy.sin(2 * sympy.pi * t))
        gnorm = sympy.integrate(sum(sympy.diff(v, yi) ** 2 for yi in y),
                                (y[0], -1, 1), (y[1], -1, 1))
        lap = sum(sympy.diff(v, yi, 2) for yi in y)
        # (a1_i d_i v, d_i w) -> -d_i(a1_i d_i v) ; -(a2_ij d_i v, d_j w) -> +d_j(a2_ij d_i v)
        strong = (
            sympy.diff(v, t, 2)
            + nu * sympy.diff(v, t)
            + sum(a4[i] * sympy.diff(v, t, y[i]) for i in range(2))
            - z1 / K**4 * gnorm * lap
            + sum(sympy.diff(lap, yi, 2) for yi in y) / K**4
            - sum(sympy.diff(a1[i] * sympy.diff(v, y[i]), y[i]) for i in range(2))
            + sum(sympy.diff(a2[i][j] * sympy.diff(v, y[i]), y[j])
                  for i in range(2) for j in range(2))
            + sum(a5[i] * sympy.diff(v, y[i]) for i in range(2))
        )
        fn = sympy.lambdify((*y, t), strong, "numpy")
        g = np.linspace(-0.95, 0.95, 7)
        pts = np.array([(p, q) for p in g for q in g])
        np.testing.assert_allclose(
            f(pts, tv), fn(pts[:, 0], pts[:, 1], tv), rtol=1e-10, atol=1e-21
        )

    def test_2d_source_reduction_on_diagonal_symmetry(self, params):
        # the S1 source on the 2D box is symmetric under swapping axes
        case = ManufacturedCase.standard("S1", 2)
        b = MovingBoundary.b1(2)
        f = make_source(case, b, params)
        pts = np.array([[0.3, -0.7], [-0.7, 0.3], [0.5, 0.1], [0.1, 0.5]])
        vals = f(pts, 0.6)
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[2] == pytest.approx(vals[3], rel=1e-12)


def _by_parts(n):
    """M: row k is the strong form of operator ``AssembledOperators.BASIS[k]``
    over ``strong_terms``, by integration by parts against a clamped w."""
    M = np.zeros((5, 5))
    row = dict(zip(AssembledOperators.BASIS, M))
    row["A"][0] = 1.0                  # (v, w)
    row["K1"][1] = -1.0                # (grad v, grad w) = -(lap v, w)
    row["K2"][2] = 1.0                 # (lap v, lap w) = (bilap v, w)
    row["P"][3] = 1.0                  # (y . grad v, w)
    # sum_ij (1 + delta_ij)(y_i y_j d_j v, d_i w), by parts: d_i (y_i y_j) = y_j + delta_ij y_i
    row["Q"][3:] = -(n + 3.0), -0.25
    return M


class TestStrongCoefficients:
    """The strong weights are the by-parts image of the weak ones: the last
    step of defining the coefficients once derives one from the other."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("which", ["B1", "B2", "linear", "saturation"])
    def test_are_the_by_parts_image_of_l_coefficients(self, n, which, params):
        b = {
            "B1": MovingBoundary.b1(n),
            "B2": MovingBoundary.b2(n),
            "linear": MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5),
            "saturation": MovingBoundary(  # K = 2 - e^-2t: K'' != 0
                BoundaryKind.EXPONENTIAL_SATURATION, base=1.0, amplitude=1.0, rate=2.0),
        }[which]
        M, rounded = _by_parts(n), np.arange(5) == 3
        for t in np.linspace(0.0, 2.0, 17):
            tf = time_factors(b, params, float(t))
            for strong, weak in zip(strong_coefficients(tf, params.nu, n),
                                    l_coefficients(tf, params.nu)):
                image = weak @ M
                assert np.array_equal(strong[~rounded], image[~rounded])
                # L2's: c3 + (4n+8) r^2 against 4 (n+3) r^2 + c4, c4 = c3 - 4 r^2
                assert abs(strong[3] - image[3]) <= 1e-14 * abs(strong[3])


class TestTensorTerms:
    @pytest.mark.parametrize("case_id", ["S1", "S2"])
    def test_are_the_2d_strong_terms_of_the_product(self, case_id, rng):
        # the 2D strong_terms of g = q (x) q pointwise on a grid against the
        # table over the 1D strong_terms of q: the same sums, in another order
        case = ManufacturedCase.standard(case_id, 2)
        x = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 30)])
        f = np.array([h(x[:, None]) for h in strong_terms(case.axis.spatial_factor, 1)])
        Y, X = np.meshgrid(x, x, indexing="ij")  # [b, a] is the point (x_a, x_b)
        pointwise = np.array([h(np.column_stack([X.ravel(), Y.ravel()]))
                              for h in strong_terms(case.spatial_factor, 2)])
        table = tensor_terms(f).reshape(5, -1)
        # measured: at most one ulp of each term's largest value
        ulps = 4 * np.finfo(float).eps * np.abs(pointwise).max(axis=1, keepdims=True)
        assert np.all(np.abs(table - pointwise) <= ulps)
