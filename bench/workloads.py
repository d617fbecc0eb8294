"""The workloads of the movingbeam benchmark, run in one measured process.

Start it through ``bench/run.py``, which pins the BLAS/OpenMP threads and
puts ``src/`` on the path.  A run repeats whole rounds of its workload until
``--seconds`` are spent and reports medians over the rounds; every round
attempts the same operations, one per refinement level.  Each time is scaled
by the machine's speed, sampled while it was measured (``bench/speed.py``).

The inputs are fixed: each workload is one deterministic experiment of the
paper's kind, so ``--seed`` is accepted and echoed but changes nothing, and
the traced counts repeat exactly from run to run.
"""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import movingbeam as mb
from movingbeam.geometry import BoundaryKind

import checks
import speed
from run import parse_args
from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
PARAMS = mb.BeamParameters()          # zeta0 = 128, zeta1 = 2, nu = 1
ERROR_QUAD = 8                        # the CLI's default error_quad
FIT_WINDOW = (1.0, 20.0)
SETUP_PROBES = 8                      # set-up-only samples per round


@dataclass(frozen=True)
class Level:
    """One run: the inputs of one `validate` + `simulate` call."""

    case: mb.ManufacturedCase
    boundary: mb.MovingBoundary
    cells: int
    dt: float
    T: float = 1.0
    homogeneous: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    levels: tuple[Level, ...]
    post: str                                  # "energy" | "errors"
    rate_band: tuple[float, float] | None = None


def _workloads() -> dict[str, Workload]:
    s1_1d = mb.ManufacturedCase.standard("S1", 1)
    s1_2d = mb.ManufacturedCase.standard("S1", 2)
    b1_2d = mb.MovingBoundary.b1(2)
    # K = 1 + t/2, with the admissibility bounds the CLI's `linear` boundary sets
    fast = mb.MovingBoundary(
        BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
        k0=0.5, k1_bound=2.5, k2_bound=1.0, label="linear K=1+t/2",
    )
    s1_unit = mb.ManufacturedCase("S1", 1, amplitude=1.0, temporal="cos")
    return {
        w.name: w for w in (
            Workload("energy1d", (
                Level(s1_1d, mb.MovingBoundary.b1(1), 128, 2.0 ** -7, T=20.0,
                      homogeneous=True),
            ), post="energy"),
            Workload("mms2d", tuple(
                Level(s1_2d, b1_2d, cells, 2.0 / cells / 2.0) for cells in (16, 32)
            ), post="errors", rate_band=(1.5, 2.6)),
            # dt = h/4 with h = 2/cells: at h = 2 dt Newton stalls from 64 cells on
            Workload("kirchhoff1d", tuple(
                Level(s1_unit, fast, cells, 2.0 / cells / 4.0) for cells in (16, 32, 64, 128)
            ), post="errors", rate_band=(1.8, 2.3)),
        )
    }


class _SetupDone(Exception):
    """Raised in place of the march when only the set-up is timed."""


class MarchClock:
    """Stands in for `advance` as `simulate` calls it, and times the march.

    This splits one `simulate` call into set-up (everything before the first
    time step) and march; with ``setup_only`` it stops at the first step.
    """

    def __init__(self):
        self._advance = mb.verification.advance
        self.seconds = 0.0
        self.setup_only = False
        mb.verification.advance = self

    def __call__(self, *args, **kwargs):
        if self.setup_only:
            raise _SetupDone
        t0 = speed.now()
        try:
            return self._advance(*args, **kwargs)
        finally:
            self.seconds += speed.now() - t0


@dataclass
class LevelRun:
    level: Level
    result: object
    wall_s: float
    setup_s: float
    march_s: float
    energies: object = None
    fit: object = None
    report: object = None

    @property
    def trajectory(self):
        return self.result.trajectory

    @property
    def steps(self) -> int:
        return len(self.trajectory.times) - 1


def _validate(level: Level) -> None:
    report = mb.validate_hypotheses(level.boundary, PARAMS, level.T)
    if not report.ok:
        raise RuntimeError(f"workload boundary violates the hypotheses:\n{report.summary()}")


def _simulate(level: Level):
    cfg = mb.NewmarkConfig.for_horizon(level.T, level.dt)
    return mb.simulate(level.case, level.boundary, PARAMS, level.cells, cfg,
                       homogeneous=level.homogeneous)


def run_level(wl: Workload, level: Level, clock: MarchClock) -> LevelRun:
    """validate -> simulate -> post-processing, as the CLI's energy/mms do."""
    t0 = speed.now()
    _validate(level)
    t1 = speed.now()
    clock.seconds = 0.0
    res = _simulate(level)
    t2 = speed.now()
    run = LevelRun(level, res, 0.0, 0.0, clock.seconds)
    if res.trajectory.completed:
        if wl.post == "energy":
            times, E = mb.energy_series(res.space, level.boundary, PARAMS, res.trajectory,
                                        nq=ERROR_QUAD)
            run.energies = E
            run.fit = mb.decay_fit(times, E, (FIT_WINDOW[0], min(FIT_WINDOW[1], level.T)))
        else:
            run.report = mb.error_norms(res.space, res.trajectory, level.case, nq=ERROR_QUAD)
    t3 = speed.now()
    run.wall_s = t3 - t0
    run.setup_s = (t1 - t0) + (t2 - t1 - run.march_s)
    return run


def time_setup(level: Level, clock: MarchClock) -> float:
    """validate + simulate up to its first time step."""
    t0 = speed.now()
    _validate(level)
    clock.setup_only = True
    try:
        _simulate(level)
    except _SetupDone:
        pass
    finally:
        clock.setup_only = False
    return speed.now() - t0


@dataclass
class Verdict:
    failed: int
    correct: bool
    lines: list


def check_round(wl: Workload, runs: list[LevelRun]) -> Verdict:
    """Fail an operation on a property of the method; mark the round incorrect
    when an output disagrees with the benchmark's own computation."""
    failed, correct, lines = 0, True, []
    prev_error = None
    for i, run in enumerate(runs):
        traj, level = run.trajectory, run.level
        line = {"level": i + 1, "cells": level.cells, "dt": level.dt,
                "status": traj.status, "newton_iterations": sum(traj.newton_iterations)}
        ok = traj.completed and len(traj.newton_iterations) == round(level.T / level.dt)
        if ok and wl.post == "energy":
            k, kp, _ = mb.eval_boundary(level.boundary, 0.0)
            closed = checks.s1_rest_energy_1d(level.case.amplitude, k, kp,
                                              PARAMS.zeta0, PARAMS.zeta1)
            match = checks.energy_matches(float(run.energies[0]), closed)
            correct &= match
            ok = checks.decay_ok(run.fit.A1, run.fit.r_squared)
            line.update(E0=float(run.energies[0]), E0_closed_form=closed, E0_match=match,
                        A1=run.fit.A1, r_squared=run.fit.r_squared)
        elif ok:
            own = checks.s1_linf_l2_error(run.result.space, traj, level.case.amplitude,
                                          level.case.omega)
            match = checks.errors_match(run.report.linf_l2, own)
            correct &= match
            line.update(linf_l2=run.report.linf_l2, linf_l2_own=own, error_match=match)
            if prev_error is not None:
                rate = checks.observed_rate(prev_error, own)
                ok = checks.rate_in_band(rate, wl.rate_band)
                line.update(rate=rate, band=list(wl.rate_band))
            elif i > 0:
                ok = False          # no rate without the previous level
            prev_error = own
        else:
            prev_error = None
        line["ok"] = bool(ok)
        failed += not ok
        lines.append(line)
    return Verdict(failed, bool(correct), lines)


def fingerprint(runs: list[LevelRun]) -> str:
    """Digest of every output of a round: states, Newton counts, post-processing."""
    h = hashlib.sha256()
    for run in runs:
        traj = run.trajectory
        h.update(repr((traj.status, traj.newton_iterations)).encode())
        for d in traj.d:
            h.update(d.tobytes())
        if run.energies is not None:
            h.update(run.energies.tobytes())
            h.update(repr((run.fit.A0, run.fit.A1, run.fit.r_squared)).encode())
        if run.report is not None:
            h.update(repr((run.report.linf_l2, run.report.linf_h2)).encode())
    return h.hexdigest()


PER_LAYER = (
    "geometry.validate_s", "fem.assemble_constant_s",
    "fem.assemble_time_dependent_s", "fem.assemble_time_dependent_calls",
    "fem.scatter_s", "fem.scatter_calls", "fem.assemble_load_s", "fem.assemble_load_calls",
    "manufactured.source_s", "newmark.step_operators_s", "newmark.step_operators_self_s",
    "newmark.l_matrices_calls", "newmark.newton_s", "newmark.newton_iters",
    "newmark.newton_iters_per_step", "newmark.residual_s", "newmark.residual_calls",
    "newmark.jacobian_s", "newmark.jacobian_calls", "newmark.factorizations",
    "newmark.factorizations_per_step", "newmark.factor_s", "newmark.solve_self_s",
    "newmark.steps", "newmark.state_mb", "verification.error_norms_s",
    "energy.energy_series_s", "energy.decay_fit_s",
)


def layer_values(tr: Tracer, runs: list[LevelRun]) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    s, c = tr.seconds, tr.calls
    steps = sum(r.steps for r in runs)
    iters = sum(sum(getattr(r.trajectory, "newton_iterations", ())) for r in runs)
    state = max(sum(d.nbytes for d in getattr(r.trajectory, "d", ())) for r in runs)
    out = {
        "geometry.validate_s": s["geometry.validate"],
        "fem.assemble_constant_s": s["fem.assemble_constant"],
        "fem.assemble_time_dependent_s": s["fem.assemble_time_dependent"],
        "fem.assemble_time_dependent_calls": c["fem.assemble_time_dependent"],
        "fem.scatter_s": s["fem.scatter"],
        "fem.scatter_calls": c["fem.scatter"],
        "fem.assemble_load_s": s["fem.assemble_load"],
        "fem.assemble_load_calls": c["fem.assemble_load"],
        "manufactured.source_s": s["manufactured.source"],
        "newmark.step_operators_s": s["newmark.step_operators"],
        "newmark.step_operators_self_s": tr.self_seconds["newmark.step_operators"],
        "newmark.l_matrices_calls": c["newmark.l_matrices"],
        "newmark.newton_s": s["newmark.newton"],
        "newmark.newton_iters": iters,
        "newmark.newton_iters_per_step": iters / steps if steps else 0.0,
        "newmark.residual_s": s["newmark.residual"],
        "newmark.residual_calls": c["newmark.residual"],
        "newmark.jacobian_s": s["newmark.jacobian"],
        "newmark.jacobian_calls": c["newmark.jacobian"],
        "newmark.factorizations": c["newmark.factor"],
        "newmark.factorizations_per_step": c["newmark.factor"] / steps if steps else 0.0,
        "newmark.factor_s": s["newmark.factor"],
        "newmark.solve_self_s": tr.self_seconds["newmark.newton"],
        "newmark.steps": steps,
        "newmark.state_mb": state / 2.0 ** 20,
        "verification.error_norms_s": s["verification.error_norms"],
        "energy.energy_series_s": s["energy.energy_series"],
        "energy.decay_fit_s": s["energy.decay_fit"],
    }
    assert tuple(out) == PER_LAYER
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "1"


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(mb.__file__).resolve().is_relative_to(SRC):
        print(f"error: movingbeam imported from {mb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = _workloads()[args.workload]

    clock = MarchClock()
    tracer = Tracer()
    if args.trace:
        tracer.install()

    attempted = failed = 0
    correct = True
    first = None
    walls, setups, rates, layers, durations = [], [], [], [], []
    raw_walls, raw_setups, raw_rates, speeds = [], [], [], []
    speed.start()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        speed.take()            # drops the samples taken outside the timed work
        setup_raw = [sum(time_setup(level, clock) for level in wl.levels)
                     for _ in range(SETUP_PROBES)]
        # each time is scaled by the machine's speed while it was measured
        v_setup = speed.take()
        tracer.reset()
        tracer.active = bool(args.trace)
        runs = [run_level(wl, level, clock) for level in wl.levels]
        tracer.active = False
        v = speed.take()
        if args.trace:
            layers.append(layer_values(tracer, runs))

        wall = sum(r.wall_s for r in runs)
        rate = sum(r.steps for r in runs) / sum(r.march_s for r in runs)
        speeds.append(v)
        raw_walls.append(wall)
        raw_setups.extend(setup_raw)
        raw_setups.append(sum(r.setup_s for r in runs))
        raw_rates.append(rate)
        walls.append(wall * v)
        setups.extend(t * v_setup for t in setup_raw)
        setups.append(sum(r.setup_s for r in runs) * v)
        rates.append(rate / v)
        # The first round is checked against the benchmark's own computations;
        # the later ones repeat its inputs, so their outputs must repeat it bit
        # for bit.
        digest = fingerprint(runs)
        if first is None:
            first = (digest, check_round(wl, runs))
            for line in first[1].lines:
                _emit({"workload": wl.name, **line})
        digest_first, verdict = first
        attempted += len(runs)
        failed += verdict.failed
        correct &= verdict.correct and digest == digest_first
        del runs
        gc.collect()

        now = time.perf_counter()
        durations.append(now - round_start)
        # the next round starts if it should end within half a round of --seconds
        if now - start + 0.5 * statistics.median(durations) > args.seconds:
            break
    speed.stop()

    _emit({"workload": wl.name, "seed": args.seed, "trace": args.trace, "rounds": len(walls),
           "speed_rounds": speeds, "wall_s_rounds": walls, "measured_wall_s_rounds": raw_walls,
           "measured_setup_s_samples": raw_setups, "measured_steps_per_s_rounds": raw_rates,
           "measured_wall_s": statistics.median(raw_walls),
           "measured_setup_s": statistics.median(raw_setups),
           "measured_steps_per_s": statistics.median(raw_rates)})
    if args.trace:
        # the lower median is a value of one round, so counts stay whole numbers
        metrics = {name: {"value": statistics.median_low(l[name] for l in layers),
                          "unit": layer_unit(name)} for name in PER_LAYER}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    _emit({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
