"""Command-line front end.

    movingbeam <subcommand> [--config PATH] [--out DIR] [--set key=value ...]

Subcommands: validate, solve, mms, convergence, theta-sweep, energy.
Each loads its configuration, validates it once and checks the boundary's
hypotheses on [0, T] before any march; mms, convergence and theta-sweep
refuse a run without the manufactured source (case zero or homogeneous),
and energy refuses case zero, whose energy is 0 throughout.
Each writes plot-ready CSV files (header row, scientific notation with 11
significant digits, '.' decimal point) into the output directory and prints
a short summary.  Re-running a command with an identical configuration
produces byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 hypothesis violation,
4 divergence, 5 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, apply_overrides, parse_config_file
from .energy import decay_fit, energy_series
from .geometry import validate_hypotheses
from .newmark import NewmarkConfig, NewtonNoConvergence, SingularJacobian
from .verification import (
    SimulationResult,
    cells_for_h,
    convergence_study,
    error_norms,
    simulate,
    theta_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERIC = 5


def _fmt(x: float) -> str:
    return f"{x:.10e}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _prepare(args) -> RunConfig | None:
    """Load the configuration, apply the overrides and validate it once;
    refuse an unforced run for a command that measures against the
    manufactured solution, and zero data for one that needs them; check the
    hypotheses on [0, T].  Returns None when a hypothesis fails."""
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    cfg = apply_overrides(cfg, args.set)
    cfg.validate()
    needs = COMMANDS[args.command][1]
    if needs == "forced" and (cfg.case == "zero" or cfg.homogeneous):
        raise ConfigError(
            f"{args.command} requires a forced run: case S1 or S2 with homogeneous = false")
    if needs == "data" and cfg.case == "zero":
        raise ConfigError(f"{args.command} requires nonzero initial data: case S1 or S2")
    report = validate_hypotheses(
        cfg.moving_boundary(), cfg.beam_parameters(), cfg.T, relaxed=cfg.relaxed_h1,
    )
    print(report.summary())
    if not report.ok:
        print("hypothesis validation failed")
        return None
    return cfg


def _march(cfg: RunConfig, out: Path, homogeneous: bool) -> SimulationResult | None:
    """Run the configured case and write its trace; None if it diverged."""
    res = simulate(
        cfg.manufactured_case(), cfg.moving_boundary(), cfg.beam_parameters(), cells_for_h(cfg.h),
        NewmarkConfig.for_horizon(cfg.T, cfg.dt, theta=cfg.theta),
        homogeneous=homogeneous or cfg.case == "zero",
    )
    _write_trace(out, res)
    if not res.trajectory.completed:
        print(f"diverged at step {res.trajectory.diverged_step}")
        return None
    return res


def _write_trace(out: Path, res) -> None:
    traj = res.trajectory
    per_step = zip(traj.times[1:], traj.newton_iterations, traj.residuals, traj.d[1:])
    rows = [
        [str(step), _fmt(t), str(iters), _fmt(resid), _fmt(np.max(np.abs(d), initial=0.0))]
        for step, (t, iters, resid, d) in enumerate(per_step, start=1)
    ]
    _write_csv(out / "trace.csv", ["step", "t", "newton_iters", "res_norm", "dinf"], rows)


def _write_snapshots(out: Path, cfg: RunConfig, res) -> None:
    times = res.trajectory.times
    nodes = res.space.mesh.node_coords()
    coord_cols = [f"y{i+1}" for i in range(cfg.dimension)]
    wanted = cfg.snapshots if cfg.snapshots else (0.0, float(times[-1]))
    for t_req in wanted:  # validated: each request is its own time level
        eta = int(round(t_req / cfg.dt))
        values = res.space.nodal_values(res.trajectory.d[eta])
        rows = [
            [_fmt(c) for c in nodes[i]] + [_fmt(values[i])]
            for i in range(nodes.shape[0])
        ]
        name = f"solution_{times[eta]:.6g}.csv"
        _write_csv(out / name, coord_cols + ["value"], rows)


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    print("hypotheses satisfied")
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    res = _march(cfg, out, homogeneous=cfg.homogeneous)
    if res is None:
        return EXIT_DIVERGENCE
    _write_snapshots(out, cfg, res)
    print(f"completed {res.config.n_steps} steps; outputs in {out}")
    return EXIT_OK


def cmd_mms(cfg: RunConfig, out: Path) -> int:
    res = _march(cfg, out, homogeneous=False)
    if res is None:
        return EXIT_DIVERGENCE
    rep = error_norms(res.space, res.trajectory, cfg.manufactured_case())
    rows = [
        [str(i), _fmt(rep.times[i]), _fmt(rep.l2_series[i]), _fmt(rep.h2_series[i])]
        for i in range(len(rep.l2_series))
    ]
    _write_csv(out / "errors.csv", ["step", "t", "l2_error", "lap_error"], rows)
    print(f"linf_l2 = {_fmt(rep.linf_l2)}  linf_lap = {_fmt(rep.linf_h2)}")
    return EXIT_OK


def cmd_convergence(cfg: RunConfig, out: Path) -> int:
    table = convergence_study(
        cfg.manufactured_case(), cfg.moving_boundary(), cfg.beam_parameters(),
        mode=cfg.mode, levels=cfg.levels, theta=cfg.theta, T=cfg.T,
        fixed_h=cfg.h, fixed_dt=cfg.dt,
    )
    rows = []
    for r in table.rows:
        err = "DIVERGE" if r.diverged else _fmt(r.error)
        rate = "" if r.rate is None else _fmt(r.rate)
        rows.append([str(r.level), _fmt(r.h), _fmt(r.dt), err, rate])
    _write_csv(out / "convergence.csv", ["level", "h", "dt", "error_linf_l2", "rate"], rows)
    for r in rows:
        print(" ".join(r))
    return EXIT_OK


def cmd_theta_sweep(cfg: RunConfig, out: Path) -> int:
    sweep = theta_sweep(
        cfg.manufactured_case(), cfg.moving_boundary(), cfg.beam_parameters(),
        h_values=cfg.h_list, theta_values=cfg.theta_list, dt=cfg.dt, T=cfg.T,
    )
    rows = []
    for h in sweep.h_values:
        for th in sweep.theta_values:
            err = sweep.errors[(h, th)]
            rows.append([_fmt(h), _fmt(th), "DIVERGE" if err is None else _fmt(err)])
    _write_csv(out / "theta_sweep.csv", ["h", "theta", "error_or_DIVERGE"], rows)
    for r in rows:
        print(" ".join(r))
    return EXIT_OK


def cmd_energy(cfg: RunConfig, out: Path) -> int:
    res = _march(cfg, out, homogeneous=True)
    if res is None:
        return EXIT_DIVERGENCE
    times, E = energy_series(
        res.space, cfg.moving_boundary(), cfg.beam_parameters(), res.trajectory,
    )
    rows = [[_fmt(t), _fmt(e)] for t, e in zip(times, E)]
    _write_csv(out / "energy.csv", ["t", "E"], rows)
    window = (cfg.fit_window_lo, min(cfg.fit_window_hi, cfg.T))
    try:
        fit = decay_fit(times, E, window)
        print(
            f"decay fit on [{window[0]:g}, {window[1]:g}]: "
            f"A0 = {_fmt(fit.A0)}  A1 = {_fmt(fit.A1)}  R2 = {fit.r_squared:.6f}"
        )
    except ValueError as exc:
        print(f"decay fit unavailable: {exc}")
    return EXIT_OK


# each command, and what its run needs: a source ("forced"), nonzero data ("data") or None
COMMANDS = {
    "validate": (cmd_validate, None),
    "solve": (cmd_solve, None),
    "mms": (cmd_mms, "forced"),
    "convergence": (cmd_convergence, "forced"),
    "theta-sweep": (cmd_theta_sweep, "forced"),
    "energy": (cmd_energy, "data"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingbeam",
        description="Nonlinear beam on a moving domain: solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _prepare(args)
        if cfg is None:
            return EXIT_HYPOTHESIS
        return COMMANDS[args.command][0](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonNoConvergence, SingularJacobian, ValueError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
