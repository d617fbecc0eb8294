"""Command-line front end.

    movingbeam <subcommand> [--config PATH] [--out DIR] [--set key=value ...]

Subcommands: validate, solve, mms, convergence, theta-sweep, energy.
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
from .manufactured import ManufacturedCase
from .newmark import NewmarkConfig, NewtonNoConvergence, SingularJacobian
from .verification import (
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


def _load_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    cfg.validate()
    return cfg


def _check_hypotheses(cfg: RunConfig) -> int | None:
    report = validate_hypotheses(
        cfg.moving_boundary(), cfg.beam_parameters(), cfg.T,
        relaxed=cfg.relaxed_h1,
    )
    print(report.summary())
    if not report.ok:
        print("hypothesis validation failed")
        return EXIT_HYPOTHESIS
    return None


def _case(cfg: RunConfig) -> ManufacturedCase | None:
    if cfg.case == "zero":
        return None
    return ManufacturedCase.standard(cfg.case, cfg.dimension)


def _newmark_config(cfg: RunConfig) -> NewmarkConfig:
    try:
        return NewmarkConfig.for_horizon(cfg.T, cfg.dt, theta=cfg.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run(cfg: RunConfig, homogeneous: bool):
    case = _case(cfg)
    cells = cells_for_h(cfg.box, cfg.h)
    ncfg = _newmark_config(cfg)
    boundary = cfg.moving_boundary()
    params = cfg.beam_parameters()
    if case is None:
        zero = lambda pts, mi: np.zeros(len(np.atleast_2d(pts)))
        return simulate(
            None, boundary, params, cells, ncfg, dim=cfg.dimension, box=cfg.box,
            initial_displacement=zero, initial_velocity=zero,
        )
    return simulate(
        case, boundary, params, cells, ncfg, box=cfg.box,
        homogeneous=homogeneous or cfg.homogeneous,
    )


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
    dpn = res.space.dofs_per_node
    wanted = cfg.snapshots if cfg.snapshots else (0.0, float(times[-1]))
    for t_req in wanted:
        eta = int(np.argmin(np.abs(times - t_req)))
        if eta >= len(res.trajectory.d):
            continue
        full = res.space.expand(res.trajectory.d[eta])
        values = full[0::dpn]
        coord_cols = [f"y{i+1}" for i in range(cfg.dimension)]
        rows = [
            [_fmt(c) for c in nodes[i]] + [_fmt(values[i])]
            for i in range(nodes.shape[0])
        ]
        name = f"solution_{times[eta]:.6g}.csv"
        _write_csv(out / name, coord_cols + ["value"], rows)


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    print("hypotheses satisfied")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    out = Path(args.out)
    res = _run(cfg, homogeneous=cfg.homogeneous)
    _write_trace(out, res)
    if not res.trajectory.completed:
        print(f"diverged at step {res.trajectory.diverged_step}")
        return EXIT_DIVERGENCE
    _write_snapshots(out, cfg, res)
    print(f"completed {res.config.n_steps} steps; outputs in {out}")
    return EXIT_OK


def cmd_mms(args) -> int:
    cfg = _load_config(args)
    if cfg.case == "zero":
        print("mms requires case S1 or S2")
        return EXIT_CONFIG
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    out = Path(args.out)
    res = _run(cfg, homogeneous=False)
    _write_trace(out, res)
    if not res.trajectory.completed:
        print(f"diverged at step {res.trajectory.diverged_step}")
        return EXIT_DIVERGENCE
    case = _case(cfg)
    rep = error_norms(res.space, res.trajectory, case)
    rows = [
        [str(i), _fmt(rep.times[i]), _fmt(rep.l2_series[i]), _fmt(rep.h2_series[i])]
        for i in range(len(rep.l2_series))
    ]
    _write_csv(out / "errors.csv", ["step", "t", "l2_error", "lap_error"], rows)
    print(f"linf_l2 = {_fmt(rep.linf_l2)}  linf_lap = {_fmt(rep.linf_h2)}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _load_config(args)
    if cfg.case == "zero":
        print("convergence requires case S1 or S2")
        return EXIT_CONFIG
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    case = _case(cfg)
    table = convergence_study(
        case, cfg.moving_boundary(), cfg.beam_parameters(),
        mode=cfg.mode, levels=cfg.levels, theta=cfg.theta, T=cfg.T,
        fixed_h=cfg.h, fixed_dt=cfg.dt, box=cfg.box,
    )
    rows = []
    for r in table.rows:
        err = "DIVERGE" if r.diverged else _fmt(r.error)
        rate = "" if r.rate is None else _fmt(r.rate)
        rows.append([str(r.level), _fmt(r.h), _fmt(r.dt), err, rate])
    out = Path(args.out)
    _write_csv(out / "convergence.csv", ["level", "h", "dt", "error_linf_l2", "rate"], rows)
    for r in rows:
        print(" ".join(r))
    return EXIT_OK


def cmd_theta_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.case == "zero":
        print("theta-sweep requires case S1 or S2")
        return EXIT_CONFIG
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    case = _case(cfg)
    sweep = theta_sweep(
        case, cfg.moving_boundary(), cfg.beam_parameters(),
        h_values=cfg.h_list, theta_values=cfg.theta_list,
        dt=cfg.dt, T=cfg.T, box=cfg.box,
    )
    rows = []
    for h in sweep.h_values:
        for th in sweep.theta_values:
            err = sweep.errors[(h, th)]
            rows.append([_fmt(h), _fmt(th), "DIVERGE" if err is None else _fmt(err)])
    out = Path(args.out)
    _write_csv(out / "theta_sweep.csv", ["h", "theta", "error_or_DIVERGE"], rows)
    for r in rows:
        print(" ".join(r))
    return EXIT_OK


def cmd_energy(args) -> int:
    cfg = _load_config(args)
    rc = _check_hypotheses(cfg)
    if rc is not None:
        return rc
    out = Path(args.out)
    res = _run(cfg, homogeneous=True)
    if not res.trajectory.completed:
        print(f"diverged at step {res.trajectory.diverged_step}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movingbeam",
        description="Nonlinear beam on a moving domain: solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "mms": cmd_mms,
        "convergence": cmd_convergence,
        "theta-sweep": cmd_theta_sweep,
        "energy": cmd_energy,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default="out", help="output directory for CSV files")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonNoConvergence, SingularJacobian) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
