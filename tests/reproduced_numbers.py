"""The acceptance runs whose numbers are recorded, and the script that records them.

``tests/reproduced_numbers.json`` holds the numbers these runs reproduce:
criterion 3's theta sweep (each cell an L-inf(L2) error or "diverged"),
criterion 4's coupled 1D and 2D studies and criterion 5's fixed-mesh
temporal study (errors and log2 rates), criterion 6's energy run (E(0) and
the decay fit's A0, A1, R^2), the L-inf(L2) and L-inf(H2) errors of every
level of the benchmark's two error workloads, mms2d and kirchhoff1d, and the
same errors and the Newton iterations of a 2D study in the regime where the
Kirchhoff term matters (K = 1 + t/2, amplitude 1).
``test_acceptance.py`` makes each run once per module through these
functions and compares every recorded entry at 1e-10 relative.

A change that moves these numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/reproduced_numbers.py

and names every moved entry, old and new.  With ``--check`` the script
reruns the runs and writes nothing: it prints every entry that moved by
more than 1e-10 relative and the largest relative move of each section of
the record (the dict that holds the entry, such as ``.bench.mms2d``) and of
each kind of entry (its last name, such as ``linf_h2``), and exits 1 if any
entry moved.  It first prints the ``OPENBLAS_NUM_THREADS`` it runs under.
The record was written with OpenBLAS unpinned; pinned to one thread, as the
benchmark runs, the finest level of the 2D coupled study moves by about
8e-13, well inside the tolerance.
"""
import json
import math
import os
import sys
from pathlib import Path

from movingbeam import (
    BeamParameters,
    ManufacturedCase,
    MovingBoundary,
    NewmarkConfig,
    convergence_study,
    decay_fit,
    energy_series,
    error_norms,
    simulate,
    theta_sweep,
)
from movingbeam.geometry import BoundaryKind

RECORD = Path(__file__).with_name("reproduced_numbers.json")
RTOL = 1e-10

PARAMS = BeamParameters(zeta0=128.0, zeta1=2.0, nu=1.0)
DT = 2.0 ** -7
SWEEP_H = [2.0 ** -i for i in range(1, 7)]
SWEEP_THETA = [0.0, 0.25, 0.5, 0.75, 1.0]
ENERGY_WINDOW = (1.0, 20.0)
# K = 1 + t/2, the CLI's ``linear`` bounds: K'/K and the Kirchhoff term are of order 1
LINEAR = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=1.0, slope=0.5,
                        k0=0.5, k1_bound=2.5, k2_bound=1.0)


def sweep_run():
    """Criterion 3: S1/B1, dt = 2^-7, T = 1, every (h, theta) cell."""
    return theta_sweep(ManufacturedCase.standard("S1", 1), MovingBoundary.b1(1), PARAMS,
                       h_values=SWEEP_H, theta_values=SWEEP_THETA, dt=DT, T=1.0)


def coupled_run(dim: int):
    """Criterion 4: S2/B1 at h = 2 dt, six levels in 1D and five in 2D."""
    return convergence_study(ManufacturedCase.standard("S2", dim), MovingBoundary.b1(dim),
                             PARAMS, "coupled_h_eq_2dt", levels=7 - dim, theta=0.25, T=1.0)


def temporal_run():
    """Criterion 5: S1/B1 at h = 2^-6, dt = 2^-2 .. 2^-7, T = 1."""
    return convergence_study(ManufacturedCase.standard("S1", 1), MovingBoundary.b1(1), PARAMS,
                             "fix_h_vary_dt", levels=6, theta=0.25, T=1.0, fixed_h=2.0 ** -6)


def _levels(case, boundary, levels, per_h) -> list:
    """(cells, result, error report) of each level, dt = h / per_h, T = 1."""
    out = []
    for cells in levels:
        res = simulate(case, boundary, PARAMS, cells,
                       NewmarkConfig.for_horizon(1.0, 2.0 / cells / per_h))
        out.append((cells, res, error_norms(res.space, res.trajectory, case)))
    return out


def bench_runs() -> dict:
    """The levels of the benchmark's error workloads: mms2d, S1/B1 in 2D at 16
    and 32 cells with dt = h/2, and kirchhoff1d, S1 at amplitude 1 with a cos
    factor and K = 1 + t/2 at 16 to 128 cells with dt = h/4; T = 1."""
    return {
        "mms2d": _levels(ManufacturedCase.standard("S1", 2), MovingBoundary.b1(2), (16, 32), 2.0),
        "kirchhoff1d": _levels(ManufacturedCase("S1", 1, amplitude=1.0, temporal="cos"), LINEAR,
                               (16, 32, 64, 128), 4.0),
    }


def kirchhoff_2d_run() -> list:
    """The 2D nonlinear regime: kirchhoff1d's case and boundary in 2D, at 8 and
    16 cells with dt = h/4, T = 1."""
    return _levels(ManufacturedCase("S1", 2, amplitude=1.0, temporal="cos"), LINEAR,
                   (8, 16), 4.0)


def energy_run():
    """Criterion 6: homogeneous S1/B1 on 128 cells to T = 20; (result, times, E, fit)."""
    b = MovingBoundary.b1(1)
    cfg = NewmarkConfig.for_horizon(20.0, DT, theta=0.25)
    res = simulate(ManufacturedCase.standard("S1", 1), b, PARAMS, 128, cfg, homogeneous=True)
    times, E = energy_series(res.space, b, PARAMS, res.trajectory)
    return res, times, E, decay_fit(times, E, ENERGY_WINDOW)


def record(sweep, coupled_1d, coupled_2d, temporal, energy, bench, kirchhoff_2d) -> dict:
    """The recorded numbers of the runs as plain JSON data."""
    def levels(runs, newton=False):
        out = {"cells": [cells for cells, _, _ in runs],
               "linf_l2": [rep.linf_l2 for _, _, rep in runs],
               "linf_h2": [rep.linf_h2 for _, _, rep in runs]}
        if newton:
            out["newton_iterations"] = [sum(res.trajectory.newton_iterations)
                                        for _, res, _ in runs]
        return out

    def study(table, step="h"):
        return {step: [getattr(r, step) for r in table.rows], "rate": table.rates,
                "linf_l2": ["diverged" if r.diverged else r.error for r in table.rows]}

    _, _, E, fit = energy
    return {
        "theta_sweep": {
            "h": sweep.h_values,
            "theta": sweep.theta_values,
            "linf_l2": [["diverged" if sweep.diverged(h, th) else sweep.error(h, th)
                         for th in sweep.theta_values] for h in sweep.h_values],
        },
        "coupled_1d": study(coupled_1d),
        "coupled_2d": study(coupled_2d),
        "temporal_1d": study(temporal, "dt"),
        "energy": {"E0": float(E[0]), "A0": fit.A0, "A1": fit.A1, "r_squared": fit.r_squared},
        "bench": {name: levels(runs) for name, runs in bench.items()},
        "kirchhoff_2d": levels(kirchhoff_2d, newton=True),
    }


def mismatches(recorded, got, path: str = "") -> list[str]:
    """Every entry of ``got`` that differs from ``recorded``: a number by more
    than ``RTOL`` relative, anything else ("diverged", None, keys) at all."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        if recorded.keys() != got.keys():
            return [f"{path}: keys {sorted(recorded)} != {sorted(got)}"]
        return [m for k in recorded for m in mismatches(recorded[k], got[k], f"{path}.{k}")]
    if isinstance(recorded, list) and isinstance(got, list):
        if len(recorded) != len(got):
            return [f"{path}: {len(recorded)} entries != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(recorded, got))
                for m in mismatches(a, b, f"{path}[{i}]")]
    numbers = all(isinstance(v, float) and not isinstance(v, bool) for v in (recorded, got))
    if numbers and math.isfinite(recorded) and abs(got - recorded) <= RTOL * abs(recorded):
        return []
    if not numbers and recorded == got:
        return []
    return [f"{path}: recorded {recorded!r}, got {got!r}"]


def moves(recorded, got, path: str = "") -> list[tuple[float, str]]:
    """(|got - recorded| / |recorded|, path) of every nonzero recorded number;
    entries whose structure differs are left to :func:`mismatches`."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        pairs = [(recorded[k], got[k], f"{path}.{k}") for k in recorded if k in got]
    elif isinstance(recorded, list) and isinstance(got, list):
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(recorded, got))]
    elif all(isinstance(v, float) for v in (recorded, got)) and recorded != 0.0:
        return [(abs(got - recorded) / abs(recorded), path)]
    else:
        return []
    return [m for a, b, p in pairs for m in moves(a, b, p)]


def section(path: str) -> str:
    """The dict that holds an entry, e.g. ".bench.mms2d" of ".bench.mms2d.linf_h2[1]"."""
    return path.rsplit(".", 1)[0]


def kind(path: str) -> str:
    """The entry's last name, e.g. "linf_h2" of ".bench.mms2d.linf_h2[1]"."""
    return path.rsplit(".", 1)[-1].split("[")[0]


def largest(moved: list[tuple[float, str]], key) -> dict[str, tuple[float, str]]:
    """The largest of the ``moves`` per ``key(path)``."""
    out: dict[str, tuple[float, str]] = {}
    for move, path in moved:
        out[key(path)] = max(out.get(key(path), (move, path)), (move, path))
    return out


def run_all() -> dict:
    """Every recorded number, from fresh runs."""
    return record(sweep_run(), coupled_run(1), coupled_run(2), temporal_run(), energy_run(),
                  bench_runs(), kirchhoff_2d_run())


def check() -> int:
    """Rerun, print every moved entry and the largest move of each section and
    of each kind; 1 if any moved."""
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")
    got = run_all()
    recorded = json.loads(RECORD.read_text())
    moved = mismatches(recorded, got)
    for line in moved:
        print(f"MOVED {line}")
    every = moves(recorded, got)
    for key in (section, kind):
        for name, (move, path) in sorted(largest(every, key).items()):
            print(f"largest relative move of {key.__name__} {name}: {move:.3g} at {path}")
    move, path = max(every, default=(0.0, "-"))
    print(f"largest relative move of any entry: {move:.3g} at {path}")
    print(f"{len(moved)} entries moved by more than {RTOL:g} relative")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    RECORD.write_text(json.dumps(run_all(), indent=1) + "\n")
    print(f"wrote {RECORD}")
