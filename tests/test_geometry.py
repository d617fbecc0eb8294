"""Moving-boundary evaluation, transformed coefficients, hypothesis checks."""
import dataclasses
import math

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

from conftest import map_back, map_point


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

    def test_custom_callbacks(self):
        b = MovingBoundary(
            BoundaryKind.CUSTOM, custom=(lambda t: 2.0 + t * t, lambda t: 2 * t, lambda t: 2.0),
            k0=1.0,
        )
        assert eval_boundary(b, 3.0) == (11.0, 6.0, 2.0)

    def test_non_finite_custom_rejected(self):
        b = MovingBoundary(
            BoundaryKind.CUSTOM,
            custom=(lambda t: math.inf, lambda t: 0.0, lambda t: 0.0),
        )
        with pytest.raises(InvalidBoundaryError):
            eval_boundary(b, 1.0)


class TestEvalCoefficients:
    def test_stationary_degeneration(self, params):
        b = MovingBoundary.constant(64.0)
        a1, a2, a3, a4, a5 = time_factors(b, params, 2.0).a_coefficients(np.array([0.37]))
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
        a4 = time_factors(b1_1d, params, 0.0).a_coefficients(np.array([1.0]))[3]
        assert a4[0] == pytest.approx(-(2.0 ** -12), rel=1e-15)

    def test_singular_mapping(self, params):
        b = MovingBoundary(
            BoundaryKind.CUSTOM,
            custom=(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0),
        )
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
        _, a2, a3, a4, a5 = time_factors(b, p, t).a_coefficients(np.array([y, -0.3 * y + 0.1]))
        k, kp, _ = eval_boundary(b, t)
        resid = a5 - a3 - 2.0 * (kp / k) * a4
        assert np.max(np.abs(resid)) < 1e-14
        assert np.max(np.abs(a2 - a2.T)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(-1.0, 1.0), t=st.floats(0.0, 10.0))
    def test_degeneration_everywhere(self, y, t):
        b = MovingBoundary.constant(17.0)
        _, *rest = time_factors(b, BeamParameters(), t).a_coefficients(np.array([y]))
        for arr in rest:
            assert np.max(np.abs(arr)) == 0.0


class TestHypotheses:
    def test_b1_passes(self, b1_1d, params):
        rep = validate_hypotheses(b1_1d, params, 1.0, samples_per_unit_time=2000)
        assert rep.ok
        # analytic max of (K')^2 for the linear drift: slope^2 = 2^-14
        assert rep.max_kprime_sq == pytest.approx(2.0 ** -14, rel=1e-12)
        assert rep.max_kprime_sq < params.zeta0 / 4.0

    def test_fast_linear_fails_h4(self, params):
        b = MovingBoundary(
            BoundaryKind.LINEAR_DRIFT, base=64.0, slope=10.0,
            k0=1.0, k1_bound=1e6, k2_bound=100.0,
        )
        rep = validate_hypotheses(b, params, 1.0, samples_per_unit_time=500)
        assert not rep.h4
        assert not rep.ok
        assert any("zeta0/4" in f for f in rep.failures)

    def test_constant_fails_strict_speed_but_relaxed_ok(self, params):
        b = MovingBoundary.constant(64.0)
        strict = validate_hypotheses(b, params, 1.0, samples_per_unit_time=500)
        assert not strict.h1_speed
        assert not strict.ok
        relaxed = validate_hypotheses(
            b, params, 1.0, samples_per_unit_time=500, relaxed=True
        )
        assert relaxed.ok

    @settings(max_examples=30, deadline=None)
    @given(z_lo=st.floats(1.0, 50.0), bump=st.floats(0.0, 500.0))
    def test_h4_monotone_in_zeta0(self, z_lo, bump):
        b = MovingBoundary.b2(1)
        lo = validate_hypotheses(
            b, BeamParameters(zeta0=z_lo), 1.0, samples_per_unit_time=200
        )
        hi = validate_hypotheses(
            b, BeamParameters(zeta0=z_lo + bump), 1.0, samples_per_unit_time=200
        )
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
        # K = 1 + t/2 leaves K1 = 2.5 and K2 = 0.25: two failures
        MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                       k0=0.5, k1_bound=2.5, k2_bound=0.25),
    ], ids=["B1", "B2", "B2-2D", "constant", "failing"])
    def test_array_sampling_matches_scalar_loop(self, b, params):
        # as CUSTOM callbacks the same boundary is sampled one call at a time
        scalar = dataclasses.replace(b, kind=BoundaryKind.CUSTOM, custom=tuple(
            (lambda t, i=i: eval_boundary(b, t)[i]) for i in range(3)))
        rep = validate_hypotheses(b, params, 20.0, samples_per_unit_time=2000)
        ref = validate_hypotheses(scalar, params, 20.0, samples_per_unit_time=2000)
        assert (rep.h1_bounds, rep.h1_speed, rep.h4, rep.failures) == (
            ref.h1_bounds, ref.h1_speed, ref.h4, ref.failures)
        assert rep.max_kprime_sq == pytest.approx(ref.max_kprime_sq, rel=1e-15, abs=0.0)

    def test_custom_sampling_matches_scalar_loop(self, params):
        b = MovingBoundary(
            BoundaryKind.CUSTOM, k0=1.0, k1_bound=10.0, k2_bound=1.0,
            custom=(lambda t: 2.0 + t * t / 100.0, lambda t: t / 50.0, lambda t: 0.02),
        )
        rep = validate_hypotheses(b, params, 20.0, samples_per_unit_time=2000)
        ts = np.linspace(0.0, 20.0, 40_001)
        kps = np.array([eval_boundary(b, float(t))[1] for t in ts])
        assert rep.max_kprime_sq == pytest.approx(float(np.max(kps ** 2)), rel=1e-15, abs=0.0)
        assert (rep.h1_bounds, rep.h1_speed, rep.h4) == (True, False, True)

    def test_non_finite_samples_rejected(self, params):
        custom = MovingBoundary(
            BoundaryKind.CUSTOM,
            custom=(lambda t: 2.0 if t < 10.0 else math.nan, lambda t: 0.1, lambda t: 0.0),
        )
        built_in = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=math.inf, slope=1.0)
        for b in (custom, built_in):
            with pytest.raises(InvalidBoundaryError):
                validate_hypotheses(b, params, 20.0, samples_per_unit_time=100)


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
