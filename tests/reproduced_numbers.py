"""The acceptance runs whose numbers are recorded, and the script that records them.

``tests/reproduced_numbers.json`` holds the numbers these runs reproduce:
criterion 3's theta sweep (each cell an L-inf(L2) error or "diverged"),
criterion 4's coupled 1D and 2D studies (errors and log2 rates) and
criterion 6's energy run (E(0) and the decay fit's A0, A1, R^2).
``test_acceptance.py`` makes each run once per module through these
functions and compares every recorded entry at 1e-10 relative.

A change that moves these numbers on purpose regenerates the file with

    python tests/reproduced_numbers.py

and names every moved entry, old and new.
"""
import json
import math
from pathlib import Path

from movingbeam import (
    BeamParameters,
    ManufacturedCase,
    MovingBoundary,
    NewmarkConfig,
    convergence_study,
    decay_fit,
    energy_series,
    simulate,
    theta_sweep,
)

RECORD = Path(__file__).with_name("reproduced_numbers.json")
RTOL = 1e-10

PARAMS = BeamParameters(zeta0=128.0, zeta1=2.0, nu=1.0)
DT = 2.0 ** -7
SWEEP_H = [2.0 ** -i for i in range(1, 7)]
SWEEP_THETA = [0.0, 0.25, 0.5, 0.75, 1.0]
ENERGY_WINDOW = (1.0, 20.0)


def sweep_run():
    """Criterion 3: S1/B1, dt = 2^-7, T = 1, every (h, theta) cell."""
    return theta_sweep(ManufacturedCase.standard("S1", 1), MovingBoundary.b1(1), PARAMS,
                       h_values=SWEEP_H, theta_values=SWEEP_THETA, dt=DT, T=1.0)


def coupled_run(dim: int):
    """Criterion 4: S2/B1 at h = 2 dt, six levels in 1D and five in 2D."""
    return convergence_study(ManufacturedCase.standard("S2", dim), MovingBoundary.b1(dim),
                             PARAMS, "coupled_h_eq_2dt", levels=7 - dim, theta=0.25, T=1.0)


def energy_run():
    """Criterion 6: homogeneous S1/B1 on 128 cells to T = 20; (result, times, E, fit)."""
    b = MovingBoundary.b1(1)
    cfg = NewmarkConfig.for_horizon(20.0, DT, theta=0.25)
    res = simulate(ManufacturedCase.standard("S1", 1), b, PARAMS, 128, cfg, homogeneous=True)
    times, E = energy_series(res.space, b, PARAMS, res.trajectory)
    return res, times, E, decay_fit(times, E, ENERGY_WINDOW)


def record(sweep, coupled_1d, coupled_2d, energy) -> dict:
    """The recorded numbers of the four runs as plain JSON data."""
    def study(table):
        return {"h": [r.h for r in table.rows], "rate": table.rates,
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
        "energy": {"E0": float(E[0]), "A0": fit.A0, "A1": fit.A1, "r_squared": fit.r_squared},
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


if __name__ == "__main__":
    numbers = record(sweep_run(), coupled_run(1), coupled_run(2), energy_run())
    RECORD.write_text(json.dumps(numbers, indent=1) + "\n")
    print(f"wrote {RECORD}")
