"""Configuration parsing, CLI commands, CSV outputs, exit codes."""
import math
from pathlib import Path

import numpy as np
import pytest

from movingbeam import eval_boundary, verification
from movingbeam.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    main,
)
from movingbeam.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config_file,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _no_march(*args, **kwargs):
    raise AssertionError("a configuration error must be found before any march")


class TestConfig:
    def test_defaults_match_reference_parameters(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.zeta0 == 128.0
        assert cfg.zeta1 == 2.0
        assert cfg.nu == 1.0
        assert cfg.theta == 0.25
        assert cfg.h == 2.0**-6
        assert cfg.dt == 2.0**-7
        assert cfg.T == 1.0
        assert cfg.case == "S1"
        assert cfg.boundary == "B1"

    def test_theta_out_of_range_rejected(self):
        cfg = RunConfig(theta=1.5)
        with pytest.raises(ConfigError, match="theta"):
            cfg.validate()

    def test_zero_dt_rejected(self):
        cfg = RunConfig(dt=0.0)
        with pytest.raises(ConfigError, match="dt"):
            cfg.validate()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            parse_config_file(p)

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("theta = 0.25\nnonsense line\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config_file(p)

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# experiment manifest\n"
            "case = S2\n"
            "theta = 0.5\n"
            "h_list = 0.5, 0.25\n"
            "relaxed_h1 = true\n"
        )
        cfg = parse_config_file(p)
        assert cfg.case == "S2"
        assert cfg.theta == 0.5
        assert cfg.h_list == (0.5, 0.25)
        assert cfg.relaxed_h1 is True
        cfg = apply_overrides(cfg, ["theta=0.75", "case=S1"])
        assert cfg.theta == 0.75
        assert cfg.case == "S1"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file("/nonexistent/path.cfg")

    def test_boundary_factories(self):
        for name in ("B1", "B2", "constant", "linear", "exponential"):
            cfg = RunConfig(boundary=name, boundary_slope=0.01, boundary_amplitude=1.0)
            cfg.validate()
            k, kp, kpp = eval_boundary(cfg.moving_boundary(), 0.0)
            assert math.isfinite(k) and k > 0

    def test_constant_boundary_takes_its_base(self):
        b = RunConfig(boundary="constant", boundary_base=2.0).moving_boundary()
        for t in (0.0, 0.5, 7.0):
            assert eval_boundary(b, t) == (2.0, 0.0, 0.0)

    def test_exponential_boundary_takes_its_base_and_rate(self):
        for rate in (0.5, 3.0):
            cfg = RunConfig(boundary="exponential", boundary_base=8.0,
                            boundary_amplitude=2.0, boundary_rate=rate)
            k, kp, _ = eval_boundary(cfg.moving_boundary(), 0.0)
            assert k == 8.0
            assert kp == 2.0 * rate

    @pytest.mark.parametrize("snapshots", [(-0.25,), (0.0, 1.5), (math.nan,)])
    def test_snapshot_outside_horizon_rejected(self, snapshots):
        with pytest.raises(ConfigError, match="snapshot time"):
            RunConfig(snapshots=snapshots).validate()

    @pytest.mark.parametrize("snapshots,match", [
        ((0.3,), "does not divide snapshot time = 0.3"),
        ((0.0, 0.3, 0.31), "does not divide snapshot time = 0.3"),
        ((0.25, 0.5, 0.25), "repeat a time level"),
        ((0.25, 0.25 + 1e-14), "repeat a time level"),
    ])
    def test_snapshot_off_the_step_grid_or_repeated_rejected(self, snapshots, match):
        # each snapshot must be its own time level: one file per request
        cfg = RunConfig(snapshots=snapshots, dt=0.125, T=0.5, h=0.25)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()
        cfg.snapshots = (0.0, 0.125, 0.5 - 1e-14)  # within the horizon's tolerance
        cfg.validate()


class TestCommands:
    def test_validate_ok(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out

    @pytest.mark.parametrize("manifest", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_manifests_validate(self, manifest, capsys):
        assert main(["validate", "--config", str(manifest)]) == EXIT_OK

    def test_validate_hypothesis_failure_exit_code(self, capsys):
        rc = main([
            "validate",
            "--set", "boundary=linear",
            "--set", "boundary_slope=10",
        ])
        assert rc == EXIT_HYPOTHESIS

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verification, "advance", _no_march)
        assert main(["validate", "--set", "theta=1.5"]) == EXIT_CONFIG
        assert main(["validate", "--set", "dt=0"]) == EXIT_CONFIG
        assert main(["validate", "--set", "bogus=1"]) == EXIT_CONFIG
        # errors a study would meet only when it builds a later run, and a
        # snapshot that would snap to the nearest state
        out = ["--out", str(tmp_path / "o")]
        assert main(["theta-sweep", *out, "--set", "theta_list=0.25,1.5"]) == EXIT_CONFIG
        assert main(["convergence", *out, "--set", "mode=fix_dt_vary_h",
                     "--set", "dt=0.3"]) == EXIT_CONFIG
        assert main(["theta-sweep", *out, "--set", "dt=0.3"]) == EXIT_CONFIG
        assert main(["solve", *out, "--set", "snapshots=5.0", "--set", "T=0.5"]) == EXIT_CONFIG
        assert main(["solve", *out, "--set", "snapshots=0.3,0.31", "--set", "h=0.25",
                     "--set", "dt=0.125", "--set", "T=0.5"]) == EXIT_CONFIG
        # a reversed decay-fit window, refused before the march
        assert main(["energy", *out, "--set", "h=0.25", "--set", "dt=0.125", "--set", "T=2",
                     "--set", "fit_window_lo=5", "--set", "fit_window_hi=2"]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["mms", "convergence", "theta-sweep"])
    @pytest.mark.parametrize("unforced", ["case=zero", "homogeneous=true"])
    def test_error_commands_refuse_an_unforced_run(self, tmp_path, monkeypatch, capsys,
                                                   command, unforced):
        # errors against the manufactured solution mean nothing without its source
        monkeypatch.setattr(verification, "advance", _no_march)
        rc = main([command, "--out", str(tmp_path / "o"), "--set", unforced,
                   "--set", "h=0.5", "--set", "dt=0.25", "--set", "T=0.5"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{command} requires a forced run" in captured.err
        assert "H1 bounds" not in captured.out  # refused before the hypotheses
        assert not (tmp_path / "o").exists()

    def test_energy_refuses_zero_data(self, tmp_path, monkeypatch, capsys):
        # the zero case's energy is 0 at every step: no decay to fit
        monkeypatch.setattr(verification, "advance", _no_march)
        rc = main(["energy", "--out", str(tmp_path / "o"), "--set", "case=zero",
                   "--set", "h=0.5", "--set", "dt=0.25", "--set", "T=0.5"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "energy requires nonzero initial data" in captured.err
        assert "H1 bounds" not in captured.out  # refused before the hypotheses
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_snapshots_write_each_requested_state(self, dim, tmp_path, monkeypatch):
        import movingbeam.cli as cli

        runs, simulate = [], cli.simulate
        monkeypatch.setattr(cli, "simulate",
                            lambda *a, **kw: runs.append(simulate(*a, **kw)) or runs[-1])
        out = tmp_path / "snap"
        assert main(["solve", "--out", str(out), "--set", "snapshots=0.5,0,0.25",
                     "--set", f"dimension={dim}", "--set", "T=0.5", "--set", "h=0.25",
                     "--set", "dt=0.125"]) == EXIT_OK
        res = runs[0]
        nodes = res.space.mesh.node_coords()
        assert sorted(p.name for p in out.glob("solution_*.csv")) == [
            "solution_0.25.csv", "solution_0.5.csv", "solution_0.csv"]
        for name, eta in (("0", 0), ("0.25", 2), ("0.5", 4)):
            lines = (out / f"solution_{name}.csv").read_text().splitlines()
            assert lines[0] == ",".join([f"y{i + 1}" for i in range(dim)] + ["value"])
            rows = [line.rsplit(",", 1) for line in lines[1:]]
            assert [y for y, _ in rows] == [",".join(f"{c:.10e}" for c in p) for p in nodes]
            # the value at each node, read through the basis: independent of the DOF layout
            values = res.space.eval_points(res.trajectory.d[eta], nodes)
            assert [float(v) for _, v in rows] == [float(f"{v:.10e}") for v in values]
        assert np.any(values != 0.0)

    def test_untiled_cell_size_is_config_error(self, tmp_path, capsys):
        # 0.3 does not divide the box length 2: rejected before the march
        rc = main(["solve", "--out", str(tmp_path / "o"), "--set", "h=0.3"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "does not tile" in captured.err
        assert "H1 bounds" not in captured.out  # hypothesis validation never ran
        assert main(["theta-sweep", "--set", "h_list=0.5,0.3"]) == EXIT_CONFIG

    def test_step_not_dividing_horizon_is_config_error(self, tmp_path, capsys):
        rc = main(["solve", "--out", str(tmp_path / "o"), "--set", "dt=0.3"])
        assert rc == EXIT_CONFIG
        assert "dt = 0.3 does not divide T = 1.0" in capsys.readouterr().err

    def test_cell_size_without_free_dofs_is_config_error(self, tmp_path, capsys):
        # one cell per axis: clamping eliminates every DOF
        rc = main(["solve", "--out", str(tmp_path / "o"), "--set", "h=2.0"])
        assert rc == EXIT_CONFIG
        assert "need >= 2" in capsys.readouterr().err
        assert main(["mms", "--set", "dimension=2", "--set", "h=2.0"]) == EXIT_CONFIG
        assert main(["convergence", "--set", "h_list=0.5,2.0"]) == EXIT_CONFIG

    def test_zero_case_solve_writes_zero_snapshots(self, tmp_path):
        # the zero case is the S1 shape at amplitude 0: every printed value is
        # +0, never -0
        zero = "0.0000000000e+00"
        for dim, header in ((1, "y1,value"), (2, "y1,y2,value")):
            out = tmp_path / f"run{dim}"
            rc = main([
                "solve", "--out", str(out),
                "--set", "case=zero", "--set", f"dimension={dim}",
                "--set", "h=0.25", "--set", "dt=0.125", "--set", "T=0.5",
            ])
            assert rc == EXIT_OK
            snaps = sorted(out.glob("solution_*.csv"))
            assert [p.name for p in snaps] == ["solution_0.5.csv", "solution_0.csv"]
            for snap in snaps:
                lines = snap.read_text().strip().splitlines()
                assert lines[0] == header
                assert len(lines) == 1 + 9 ** dim
                assert all(l.split(",")[-1] == zero for l in lines[1:])
            trace = (out / "trace.csv").read_text().strip().splitlines()
            assert len(trace) == 1 + 4
            for step, line in enumerate(trace[1:], start=1):
                assert line.split(",") == [str(step), f"{0.125 * step:.10e}", "0", zero, zero]

    def test_mms_outputs(self, tmp_path, capsys):
        out = tmp_path / "mms"
        rc = main([
            "mms", "--out", str(out),
            "--set", "h=0.5", "--set", "dt=0.25", "--set", "T=0.5",
        ])
        assert rc == EXIT_OK
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,l2_error,lap_error"
        assert len(lines) == 4  # header + 3 states

    def test_convergence_csv_and_determinism(self, tmp_path):
        args = [
            "convergence",
            "--set", "levels=2", "--set", "T=0.25",
        ]
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        b1 = (out1 / "convergence.csv").read_bytes()
        b2 = (out2 / "convergence.csv").read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "level,h,dt,error_linf_l2,rate"

    def test_theta_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "theta-sweep", "--out", str(out),
            "--set", "h_list=0.5,0.25",
            "--set", "theta_list=0.25,1.0",
            "--set", "dt=0.125", "--set", "T=0.25",
        ])
        assert rc == EXIT_OK
        lines = (out / "theta_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "h,theta,error_or_DIVERGE"
        assert len(lines) == 5
        # scientific notation with >= 10 significant digits
        sample = lines[1].split(",")[2]
        mantissa = sample.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 10

    def test_energy_csv_and_fit(self, tmp_path, capsys):
        out = tmp_path / "energy"
        rc = main([
            "energy", "--out", str(out),
            "--set", "h=0.125", "--set", "dt=0.015625",
            "--set", "T=4", "--set", "fit_window_lo=1", "--set", "fit_window_hi=4",
        ])
        assert rc == EXIT_OK
        lines = (out / "energy.csv").read_text().strip().splitlines()
        assert lines[0] == "t,E"
        printed = capsys.readouterr().out
        assert "A1 =" in printed

    def test_divergence_exit_code(self, tmp_path):
        from movingbeam.cli import EXIT_DIVERGENCE

        out = tmp_path / "div"
        rc = main([
            "solve", "--out", str(out),
            "--set", "theta=0.0", "--set", "h=0.00390625",
            "--set", "dt=0.0078125", "--set", "T=0.25",
        ])
        assert rc == EXIT_DIVERGENCE
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("overrides,rc", [
        (["--set", "h=0.25", "--set", "dt=0.0625", "--set", "T=0.5"], EXIT_OK),
        (["--set", "theta=0.0", "--set", "h=0.00390625", "--set", "T=0.25"], EXIT_DIVERGENCE),
    ])
    def test_trace_rows_equal_the_trajectory(self, tmp_path, monkeypatch, overrides, rc):
        # one row per completed step, diverged runs included
        import movingbeam.cli as cli

        runs, simulate = [], cli.simulate
        monkeypatch.setattr(cli, "simulate",
                            lambda *a, **kw: runs.append(simulate(*a, **kw)) or runs[-1])
        out = tmp_path / "trace"
        assert main(["solve", "--out", str(out), *overrides]) == rc
        traj = runs[0].trajectory
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,newton_iters,res_norm,dinf"
        assert len(lines) == len(traj.d) == len(traj.residuals) + 1
        for step, line in enumerate(lines[1:], start=1):
            assert line.split(",") == [
                str(step), f"{traj.times[step]:.10e}", str(traj.newton_iterations[step - 1]),
                f"{traj.residuals[step - 1]:.10e}", f"{np.max(np.abs(traj.d[step])):.10e}"]

    def test_config_file_flag(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("h = 0.5\ndt = 0.25\nT = 0.5\ncase = S1\n")
        out = tmp_path / "o"
        assert main(["mms", "--config", str(p), "--out", str(out)]) == EXIT_OK
