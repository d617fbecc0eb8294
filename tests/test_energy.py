"""Physical energy evaluation and the exponential decay fit."""
import tracemalloc

import numpy as np
import pytest

from movingbeam import (
    BeamParameters,
    BeamSystem,
    BoundaryKind,
    HermiteSpace,
    ManufacturedCase,
    Mesh,
    MovingBoundary,
    NewmarkConfig,
    advance,
    assemble_constant,
    decay_fit,
    energy_series,
    interpolate_initial,
)

from conftest import energy_from_state, quadrature_energies, velocity_series

# K = 1 + t/2: r = K'/K near 1/2, and b1 = zeta1/K^4 near zeta1
LINEAR = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                        k0=0.5, k1_bound=2.5, k2_bound=1.0)


def _homogeneous_run(b, params, case, dim, cells, n_steps, zero=False):
    """(space, trajectory) of a homogeneous run from the case's initial data,
    or from rest with ``zero``."""
    space = HermiteSpace(Mesh.uniform(dim, cells))
    system = BeamSystem(space, assemble_constant(space), b, params)
    d0 = interpolate_initial(space, case.initial_displacement())
    d1 = interpolate_initial(space, case.initial_velocity())
    if zero:
        d0 = d1 = np.zeros(space.ndof)
    cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=n_steps)
    return space, advance(system, cfg, d0, d1)


class TestEnergyFromState:
    def test_zero_state(self, b1_1d, params, space_1d_coarse):
        z = np.zeros(space_1d_coarse.ndof)
        assert energy_from_state(space_1d_coarse, b1_1d, params, z, z, 0.0) == 0.0

    def test_s1_initial_slice_vs_dense_quadrature_oracle(self, b1_1d, params, s1_1d):
        # same state, independent 64-points-per-cell quadrature; both rules are
        # exact for the polynomial density so they must agree very tightly
        space = HermiteSpace(Mesh.uniform(1, 16))
        d = interpolate_initial(space, s1_1d.initial_displacement())
        zero = np.zeros_like(d)
        E = energy_from_state(space, b1_1d, params, d, zero, 0.0, nq=8)
        E64 = energy_from_state(space, b1_1d, params, d, zero, 0.0, nq=64)
        assert E == pytest.approx(E64, rel=1e-10)
        # dominated by the zeta0 |grad_x u|^2 term: roughly zeta0/K * int v_y^2 / 2
        k = 64.0
        rough = 0.5 * (params.zeta0 / k) * 0.01 * 256.0 / 105.0
        assert E == pytest.approx(rough, rel=0.05)

    def test_positivity_along_run(self, b1_1d, params, s1_1d):
        space = HermiteSpace(Mesh.uniform(1, 16))
        ops = assemble_constant(space)
        system = BeamSystem(space, ops, b1_1d, params)
        d0 = interpolate_initial(space, s1_1d.initial_displacement())
        d1 = interpolate_initial(space, s1_1d.initial_velocity())
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=32)
        traj = advance(system, cfg, d0, d1)
        times, E = energy_series(space, b1_1d, params, traj)
        assert np.all(E >= 0.0)

    def test_non_finite_state_rejected(self, b1_1d, params, space_1d_coarse):
        bad = np.full(space_1d_coarse.ndof, np.nan)
        with pytest.raises(ValueError):
            energy_from_state(
                space_1d_coarse, b1_1d, params, bad, np.zeros_like(bad), 0.0
            )

    def test_decreasing_after_transient(self, b1_1d, params, s1_1d):
        # homogeneous damped run: energy decays monotonically past the start
        space = HermiteSpace(Mesh.uniform(1, 32))
        ops = assemble_constant(space)
        system = BeamSystem(space, ops, b1_1d, params)
        d0 = interpolate_initial(space, s1_1d.initial_displacement())
        d1 = interpolate_initial(space, s1_1d.initial_velocity())
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-6, n_steps=256)  # T = 4
        traj = advance(system, cfg, d0, d1)
        times, E = energy_series(space, b1_1d, params, traj)
        tail = E[times >= 1.0]
        assert np.all(np.diff(tail) < 0.0)


class TestEnergySeries:
    # 1D at 64 cells: 32 states per block; 2D at 8x8 cells: 4 per block,
    # neither a divisor of the state count; with 33^2 points, one per block
    @pytest.mark.parametrize("dim,cells,n_steps,nq", [(1, 64, 300, 8), (2, 8, 40, 8),
                                                      (2, 8, 6, 33)])
    def test_blocks_match_per_state_energies(self, dim, cells, n_steps, nq, params):
        b = MovingBoundary.b1(dim)
        space, traj = _homogeneous_run(b, params, ManufacturedCase.standard("S1", dim),
                                       dim, cells, n_steps)
        assert traj.completed
        assert len(space.state_blocks(n_steps + 1, nq)) > 1
        times, E = energy_series(space, b, params, traj, nq=nq)
        ref = [energy_from_state(space, b, params, d, v, float(t), nq=nq)
               for d, v, t in zip(traj.d, velocity_series(traj), traj.times)]
        assert np.array_equal(times, traj.times)
        np.testing.assert_allclose(E, ref, rtol=1e-14, atol=0.0)

    # B1, and K = 1 + t/2 at amplitude 1, where the transport and quartic terms count
    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 4)])
    @pytest.mark.parametrize("fast", [False, True], ids=["B1", "K=1+t/2"])
    def test_matches_the_quadrature_oracle(self, dim, cells, fast, params):
        b = LINEAR if fast else MovingBoundary.b1(dim)
        case = (ManufacturedCase("S1", dim, amplitude=1.0, temporal="cos") if fast
                else ManufacturedCase.standard("S1", dim))
        space, traj = _homogeneous_run(b, params, case, dim, cells, 24)
        assert traj.completed
        times, E = energy_series(space, b, params, traj)
        ref = quadrature_energies(space, b, params, np.array(traj.d),
                                  np.array(velocity_series(traj)), traj.times)
        np.testing.assert_allclose(E, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim,cells", [(1, 16), (2, 4)])
    def test_only_the_gradient_fields_take_a_quadrature(self, dim, cells, params, monkeypatch):
        b = MovingBoundary.b1(dim)
        space, traj = _homogeneous_run(b, params, ManufacturedCase.standard("S1", dim),
                                       dim, cells, 8)
        asked, evaluate = set(), HermiteSpace.eval_at_quad

        def recording(self, d_free, nq, deriv="N"):
            asked.add(deriv)
            return evaluate(self, d_free, nq, deriv)

        monkeypatch.setattr(HermiteSpace, "eval_at_quad", recording)
        energy_series(space, b, params, traj)
        assert asked == {f"grad{i}" for i in range(dim)}

    def test_trajectory_is_not_copied(self, b1_1d, params, s1_1d):
        # 2048 cells and 1024 steps: 34 MB of states, a block of one state.
        # The states start at rest, which changes nothing that is allocated.
        space, traj = _homogeneous_run(b1_1d, params, s1_1d, 1, 2048, 1024, zero=True)
        assert traj.completed
        states = sum(d.nbytes for d in traj.d)
        tracemalloc.start()
        try:
            energy_series(space, b1_1d, params, traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * states

    @pytest.mark.parametrize("side", [-1, 0], ids=["ends-first-block", "starts-second-block"])
    def test_non_finite_state_mid_run_rejected(self, b1_1d, params, s1_1d, side):
        space, traj = _homogeneous_run(b1_1d, params, s1_1d, 1, 64, 300)
        edge = space.state_blocks(301, 8)[1][0]
        traj.d[edge + side] = np.full(space.ndof, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            energy_series(space, b1_1d, params, traj)


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 201)
        E = 3.0 * np.exp(-2.0 * t)
        fit = decay_fit(t, E, (0.0, 10.0))
        assert fit.A0 == pytest.approx(3.0, rel=1e-10)
        assert fit.A1 == pytest.approx(2.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_energy(self):
        t = np.linspace(0.0, 5.0, 50)
        E = np.full_like(t, 0.7)
        fit = decay_fit(t, E, (0.0, 5.0))
        assert fit.A1 == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        E = np.linspace(1.0, -0.1, 10)
        with pytest.raises(ValueError):
            decay_fit(t, E, (0.0, 1.0))

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            decay_fit(np.array([0.0, 1.0]), np.array([1.0, 0.5]), (2.0, 3.0))
