"""Moving-boundary evaluation, transformed coefficients, hypothesis checks."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingbeam import (
    BeamParameters,
    BoundaryKind,
    InvalidBoundaryError,
    MovingBoundary,
    SingularMappingError,
    eval_boundary,
    validate_hypotheses,
)
from movingbeam.geometry import time_factors

from conftest import a_coefficients, map_back, map_point, scalar_time_factors


class TestEvalBoundary:
    def test_b1_at_zero(self, b1_1d):
        k, kp, kpp = eval_boundary(b1_1d, 0.0)
        assert k == 64.0
        assert kp == 2.0 ** -7
        assert kpp == 0.0

    def test_constant(self):
        b = MovingBoundary.constant(64.0)
        for t in (0.0, 0.3, 17.0):
            assert eval_boundary(b, t) == (64.0, 0.0, 0.0)

    def test_b2_at_zero_hand_differentiated(self, b2_1d):
        # K = 64 + 2(1 - e^-t): K' = 2 e^-t, K'' = -2 e^-t
        k, kp, kpp = eval_boundary(b2_1d, 0.0)
        assert k == pytest.approx(64.0, abs=0.0)
        assert kp == pytest.approx(2.0, abs=0.0)
        assert kpp == pytest.approx(-2.0, abs=0.0)

    def test_b2_at_one(self, b2_1d):
        e = math.exp(-1.0)
        k, kp, kpp = eval_boundary(b2_1d, 1.0)
        assert k == pytest.approx(64.0 + 2.0 * (1.0 - e), rel=1e-15)
        assert kp == pytest.approx(2.0 * e, rel=1e-15)
        assert kpp == pytest.approx(-2.0 * e, rel=1e-15)

    def test_negative_time_rejected(self, b1_1d):
        with pytest.raises(ValueError):
            eval_boundary(b1_1d, -0.5)

    def test_non_finite_custom_rejected(self):
        # a negative rate overflows e^{-rate t}; K is then reported as non-finite
        b = MovingBoundary(BoundaryKind.EXPONENTIAL_SATURATION, base=2.0, amplitude=1.0,
                           rate=-1000.0)
        with pytest.raises(InvalidBoundaryError):
            eval_boundary(b, 1.0)


class TestEvalCoefficients:
    def test_stationary_degeneration(self, params):
        b = MovingBoundary.constant(64.0)
        a1, a2, a3, a4, a5 = a_coefficients(time_factors(b, params, 2.0), np.array([0.37]))
        assert np.all(a2 == 0.0)
        assert np.all(a3 == 0.0)
        assert np.all(a4 == 0.0)
        assert np.all(a5 == 0.0)
        assert a1[0] == pytest.approx(128.0 / 4096.0)  # 0.03125

    def test_b1_scalars(self, b1_1d, params):
        f = time_factors(b1_1d, params, 0.0)
        assert f.b2 == pytest.approx(64.0 ** -4, rel=1e-15)
        assert f.b1 == pytest.approx(2.0 * 64.0 ** -4, rel=1e-15)

    def test_b1_a4_at_unit_point(self, b1_1d, params):
        a4 = a_coefficients(time_factors(b1_1d, params, 0.0), np.array([1.0]))[3]
        assert a4[0] == pytest.approx(-(2.0 ** -12), rel=1e-15)

    @pytest.mark.parametrize("which", ["B1", "B2", "saturation"])
    def test_columns_of_any_shape_are_the_scalar_formulas(self, which, params):
        # a (2, 3) grid of times, a single time and no time: every field is a
        # column of the times' shape with the bits of the scalar formulas
        b = {"B1": MovingBoundary.b1(1), "B2": MovingBoundary.b2(1),
             "saturation": MovingBoundary(BoundaryKind.EXPONENTIAL_SATURATION, base=1.0,
                                          amplitude=1.0, rate=2.0)}[which]
        fields = ("k", "b1", "b2", "s0", "r", "c3", "c4")
        times = np.array([[0.0, 0.3, 1.7], [2.0**-7, 5.0, 19.99]])
        f = time_factors(b, params, times)
        for idx in np.ndindex(times.shape):
            ref = scalar_time_factors(b, params, float(times[idx]))
            assert all(getattr(f, name)[idx] == getattr(ref, name) for name in fields), idx
        one, none = time_factors(b, params, 0.3), time_factors(b, params, [])
        assert all(np.shape(getattr(one, name)) == () for name in fields)
        assert all(getattr(one, name) == getattr(f, name)[0, 1] for name in fields)
        assert all(getattr(none, name).shape == (0,) for name in fields)

    def test_singular_mapping(self, params):
        b = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=0.0)
        with pytest.raises(SingularMappingError):
            time_factors(b, params, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.floats(-1.0, 1.0),
        t=st.floats(0.0, 5.0),
        which=st.sampled_from(["B1", "B2"]),
    )
    def test_a5_identity_and_a2_symmetry(self, y, t, which):
        b = MovingBoundary.b1(2) if which == "B1" else MovingBoundary.b2(2)
        p = BeamParameters()
        tf = time_factors(b, p, t)
        _, a2, a3, a4, a5 = a_coefficients(tf, np.array([y, -0.3 * y + 0.1]))
        k, kp, _ = eval_boundary(b, t)
        resid = a5 - a3 - 2.0 * (kp / k) * a4
        assert np.max(np.abs(resid)) < 1e-14
        assert np.max(np.abs(a2 - a2.T)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(-1.0, 1.0), t=st.floats(0.0, 10.0))
    def test_degeneration_everywhere(self, y, t):
        b = MovingBoundary.constant(17.0)
        _, *rest = a_coefficients(time_factors(b, BeamParameters(), t), np.array([y]))
        for arr in rest:
            assert np.max(np.abs(arr)) == 0.0


class TestHypotheses:
    def test_b1_passes(self, b1_1d, params):
        rep = validate_hypotheses(b1_1d, params, 1.0)
        assert rep.ok
        # analytic max of (K')^2 for the linear drift: slope^2 = 2^-14
        assert rep.max_kprime_sq == pytest.approx(2.0 ** -14, rel=1e-12)
        assert rep.max_kprime_sq < params.zeta0 / 4.0

    def test_fast_linear_fails_h4(self, params):
        b = MovingBoundary(
            BoundaryKind.LINEAR_DRIFT, base=64.0, slope=10.0,
            k0=1.0, k1_bound=1e6, k2_bound=100.0,
        )
        rep = validate_hypotheses(b, params, 1.0)
        assert not rep.h4
        assert not rep.ok
        assert any("zeta0/4" in f for f in rep.failures)

    def test_constant_fails_strict_speed_but_relaxed_ok(self, params):
        b = MovingBoundary.constant(64.0)
        strict = validate_hypotheses(b, params, 1.0)
        assert not strict.h1_speed
        assert not strict.ok
        relaxed = validate_hypotheses(b, params, 1.0, relaxed=True)
        assert relaxed.ok

    @settings(max_examples=30, deadline=None)
    @given(z_lo=st.floats(1.0, 50.0), bump=st.floats(0.0, 500.0))
    def test_h4_monotone_in_zeta0(self, z_lo, bump):
        b = MovingBoundary.b2(1)
        lo = validate_hypotheses(b, BeamParameters(zeta0=z_lo), 1.0)
        hi = validate_hypotheses(b, BeamParameters(zeta0=z_lo + bump), 1.0)
        if lo.h4:
            assert hi.h4

    def test_bad_horizon(self, b1_1d, params):
        with pytest.raises(ValueError):
            validate_hypotheses(b1_1d, params, 0.0)

    @pytest.mark.parametrize("b", [
        MovingBoundary.b1(1),
        MovingBoundary.b2(1),
        MovingBoundary.b2(2),
        MovingBoundary.constant(64.0),
        # K falls from 64 to 54 through K0 = 60, and K' = -1/2 < 0: two failures
        MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=64.0, slope=-0.5,
                       k0=60.0, k1_bound=128.0, k2_bound=1.0),
        # K' = -20 e^{-10 t}: K' < 0, and max K'^2 = 400 >= zeta0/4 at t = 0
        MovingBoundary(BoundaryKind.EXPONENTIAL_SATURATION, base=64.0, amplitude=-2.0,
                       rate=10.0, k0=1.0, k1_bound=128.0, k2_bound=1.0),
        # K = 1 + t/2 leaves K1 = 2.5 and K2 = 0.25: two failures
        MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                       k0=0.5, k1_bound=2.5, k2_bound=0.25),
    ], ids=["B1", "B2", "B2-2D", "constant", "negative-slope", "negative-amplitude",
            "failing"])
    def test_ends_match_dense_sweep(self, b, params):
        # K and K' are monotone, so t = 0 and t = T decide every clause exactly
        T = 20.0
        ts = np.linspace(0.0, T, 20_001)
        ks, kps, _ = np.array([eval_boundary(b, float(t)) for t in ts]).T
        clauses = [b.k0 > 0.0 and bool(np.all(ks >= b.k0)), bool(np.all(ks <= b.k1_bound)),
                   bool(np.all(kps > 0.0)), bool(np.all(kps <= b.k2_bound)),
                   float(np.max(kps ** 2)) < params.zeta0 / 4.0]
        rep = validate_hypotheses(b, params, T)
        assert (rep.h1_bounds, rep.h1_speed, rep.h4) == (
            clauses[0] and clauses[1], clauses[2] and clauses[3], clauses[4])
        assert rep.max_kprime_sq == pytest.approx(float(np.max(kps ** 2)), rel=1e-15, abs=0.0)
        assert len(rep.failures) == clauses.count(False)
        for failure in rep.failures:
            assert float(re.search(r"near t = (\S+)$", failure)[1]) in (0.0, T)

    def test_non_finite_samples_rejected(self, params):
        built_in = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=math.inf, slope=1.0)
        # finite at t = 0; e^{-rate T} overflows at the end of the horizon
        saturation = MovingBoundary(BoundaryKind.EXPONENTIAL_SATURATION, base=2.0,
                                    amplitude=1.0, rate=-1000.0)
        for b in (built_in, saturation):
            with pytest.raises(InvalidBoundaryError):
                validate_hypotheses(b, params, 20.0)


class TestMapping:
    def test_scalar_scaling(self):
        b = MovingBoundary.constant(64.0)
        assert map_point(b, 0.0, [0.5])[0] == 32.0

    def test_roundtrip(self, b2_1d, rng):
        for t in (0.0, 0.7, 2.0):
            y = rng.uniform(-1.0, 1.0, size=5)
            back = map_back(b2_1d, t, map_point(b2_1d, t, y))
            assert np.max(np.abs(back - y)) < 1e-15 * max(1.0, np.max(np.abs(y)))

    def test_b1_at_one(self, b1_1d):
        x = map_point(b1_1d, 1.0, [1.0])
        assert x[0] == pytest.approx(64.0078125, abs=0.0)
