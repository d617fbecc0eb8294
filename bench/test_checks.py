"""Tests of the benchmark's own checks: each must reject a wrong output.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import movingbeam as mb

import checks
import run
import speed
import workloads
from spans import Tracer

PARAMS = mb.BeamParameters()


def _run(case, boundary, cells, dt, n_steps, homogeneous=False):
    cfg = mb.NewmarkConfig(dt=dt, n_steps=n_steps)
    return mb.simulate(case, boundary, PARAMS, cells, cfg, homogeneous=homogeneous)


def test_closed_form_energy_matches_brute_force_quadrature():
    a, k, kp = 0.1, 64.0, 2.0 ** -7
    y, w = np.polynomial.legendre.leggauss(40)
    vy = a * 4.0 * y * (y * y - 1.0)
    vyy = a * (12.0 * y * y - 4.0)
    density = ((kp / k * y * vy) ** 2 + vyy ** 2 / k ** 4 + 128.0 * vy ** 2 / k ** 2
               + vy ** 4 / k ** 4)
    brute = 0.5 * k * float(np.sum(w * density))
    closed = checks.s1_rest_energy_1d(a, k, kp, zeta0=128.0, zeta1=2.0)
    assert closed == pytest.approx(brute, rel=1e-13)


def test_energy_check_rejects_an_energy_off_by_1e6_relative():
    boundary = mb.MovingBoundary.b1(1)
    case = mb.ManufacturedCase.standard("S1", 1)
    res = _run(case, boundary, 128, 2.0 ** -7, 4, homogeneous=True)
    _, E = mb.energy_series(res.space, boundary, PARAMS, res.trajectory)
    k, kp, _ = mb.eval_boundary(boundary, 0.0)
    closed = checks.s1_rest_energy_1d(case.amplitude, k, kp, PARAMS.zeta0, PARAMS.zeta1)
    assert checks.energy_matches(E[0], closed)
    assert not checks.energy_matches(E[0] * (1.0 + 1e-6), closed)
    assert not checks.energy_matches(E[0] * (1.0 - 1e-6), closed)


def test_decay_check_rejects_growth_and_a_poor_fit():
    assert checks.decay_ok(0.17, 0.9999)
    assert not checks.decay_ok(-0.01, 0.9999)
    assert not checks.decay_ok(0.17, 0.97)


def test_own_error_agrees_with_error_norms_on_the_exact_interpolant():
    case = mb.ManufacturedCase.standard("S1", 2)
    space = mb.HermiteSpace(mb.Mesh.uniform(2, 6))
    traj = mb.verification.exact_nodal_trajectory(space, case, [0.0, 0.3, 0.7])
    own = checks.s1_linf_l2_error(space, traj, case.amplitude, case.omega)
    program = mb.error_norms(space, traj, case).linf_l2
    assert own > 0.0
    assert checks.errors_match(program, own)
    assert not checks.errors_match(program * (1.0 + 1e-6), own)


def test_rate_check_rejects_a_solution_perturbed_at_the_error_level():
    # two levels of the 1D coupled study in the paper's regime (S1, B1)
    case = mb.ManufacturedCase.standard("S1", 1)
    boundary = mb.MovingBoundary.b1(1)
    band = (1.8, 2.3)
    errors = []
    for cells in (32, 64):
        dt = 1.0 / cells
        res = _run(case, boundary, cells, dt, cells)
        errors.append((res, checks.s1_linf_l2_error(res.space, res.trajectory, case.amplitude)))
    (_, coarse), (fine_res, fine) = errors
    assert checks.rate_in_band(checks.observed_rate(coarse, fine), band)

    # add the fine level's own error once more: d -> d + (d - I v)
    space, traj = fine_res.space, fine_res.trajectory
    exact = mb.verification.exact_nodal_trajectory(space, case, traj.times)
    perturbed = mb.Trajectory(
        d=[2.0 * d - e for d, e in zip(traj.d, exact.d)],
        times=traj.times, newton_iterations=traj.newton_iterations,
    )
    worse = checks.s1_linf_l2_error(space, perturbed, case.amplitude)
    assert worse > 1.5 * fine
    assert not checks.rate_in_band(checks.observed_rate(coarse, worse), band)


@pytest.mark.parametrize("band", [(1.5, 2.6), (1.8, 2.3)])
def test_rate_check_rejects_an_observed_rate_of_one(band):
    rate = checks.observed_rate(4e-3, 2e-3)
    assert rate == pytest.approx(1.0)
    assert not checks.rate_in_band(rate, band)
    assert checks.rate_in_band(checks.observed_rate(4e-3, 1e-3), band)


def test_check_round_fails_a_perturbed_level_and_flags_its_error_norm():
    case = mb.ManufacturedCase.standard("S1", 1)
    boundary = mb.MovingBoundary.b1(1)
    wl = workloads.Workload("s1b1", tuple(
        workloads.Level(case, boundary, cells, 1.0 / cells) for cells in (32, 64)
    ), post="errors", rate_band=(1.8, 2.3))
    clock = workloads.MarchClock()
    try:
        runs = [workloads.run_level(wl, level, clock) for level in wl.levels]
    finally:
        mb.verification.advance = clock._advance
    verdict = workloads.check_round(wl, runs)
    assert (verdict.failed, verdict.correct) == (0, True)

    traj = runs[1].trajectory
    exact = mb.verification.exact_nodal_trajectory(runs[1].result.space, case, traj.times)
    traj.d = [2.0 * d - e for d, e in zip(traj.d, exact.d)]
    verdict = workloads.check_round(wl, runs)
    assert [line["ok"] for line in verdict.lines] == [True, False]
    assert (verdict.failed, verdict.correct) == (1, False)


def test_fingerprint_repeats_for_identical_runs_and_catches_a_changed_output():
    case = mb.ManufacturedCase.standard("S1", 1)
    wl = workloads.Workload("s1b1", (
        workloads.Level(case, mb.MovingBoundary.b1(1), 8, 2.0 ** -3),
    ), post="errors")
    clock = workloads.MarchClock()
    try:
        first, second = ([workloads.run_level(wl, wl.levels[0], clock)] for _ in range(2))
    finally:
        mb.verification.advance = clock._advance
    assert workloads.fingerprint(first) == workloads.fingerprint(second)
    second[0].trajectory.d[-1] = second[0].trajectory.d[-1] + 1e-12
    assert workloads.fingerprint(first) != workloads.fingerprint(second)


def test_tracer_reports_every_layer_and_restores_the_package():
    originals = (mb.newmark.build_step_operators, mb.fem.HermiteSpace.scatter, mb.newmark.spla)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        case = mb.ManufacturedCase.standard("S1", 1)
        res = _run(case, mb.MovingBoundary.b1(1), 8, 2.0 ** -3, 4)
        mb.error_norms(res.space, res.trajectory, case)
        tracer.active = False
        level_run = workloads.LevelRun(None, res, 0.0, 0.0, 0.0)
        values = workloads.layer_values(tracer, [level_run])
    finally:
        tracer.uninstall()
    assert (mb.newmark.build_step_operators, mb.fem.HermiteSpace.scatter,
            mb.newmark.spla) == originals
    assert values["newmark.steps"] == 4
    assert values["fem.assemble_load_calls"] > 0
    assert values["newmark.factorizations"] == values["newmark.newton_iters"]
    assert values["newmark.residual_calls"] >= values["newmark.newton_iters"]
    assert 0.0 < values["newmark.step_operators_self_s"] < values["newmark.step_operators_s"]
    assert 0.0 < values["newmark.solve_self_s"] < values["newmark.newton_s"]
    assert values["manufactured.source_s"] < values["fem.assemble_load_s"]


def test_speed_clock_leaves_out_the_samples_and_scales_by_their_mean():
    speed.take()
    t0, c0 = time.perf_counter(), speed.now()
    speed._sample()
    speed._sample()
    measured, clocked = time.perf_counter() - t0, speed.now() - c0
    assert clocked < 0.05 * measured
    samples = list(speed._samples)
    assert len(samples) == 2
    assert speed.take() == pytest.approx(speed.REF_S / statistics.fmean(samples))
    assert not speed._samples


def test_benchmark_json_names_the_metrics_the_workloads_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads._workloads())
    assert run.WORKLOADS == tuple(workloads._workloads())
    assert tuple(m["name"] for m in spec["per_layer"]) == workloads.PER_LAYER
    for m in spec["per_layer"]:
        assert m["unit"] == workloads.layer_unit(m["name"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "steps_per_s", "peak_rss_mb"]
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
