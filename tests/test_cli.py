"""Command-line interface: exit codes, overrides, and artifact layout."""

import json

import pytest

from lwrvsl.cli import cmd_sweep, main
from lwrvsl.config import parse_config

TINY_CONFIG = """\
params:
  sim_time_s: 6
numerics:
  n_cells: 24
output:
  cadence_s: 2.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(TINY_CONFIG)
    return path


def _simulate(config_file, out_dir, *extra):
    return main(
        ["simulate", "--config", str(config_file), "--out", str(out_dir), *extra]
    )


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["-h"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize("command", ["simulate", "sweep", "riccati"])
    def test_bad_q0_is_config_error(self, command, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        for q0 in ("-1", "nan", "inf"):
            rc = main([command, "--config", str(config_file), "--out", str(out), "--q0", q0])
            assert rc == 1, q0
            assert "config error:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "riccati"])
    def test_colliding_q0_labels_are_config_error(self, command, config_file, tmp_path, capsys):
        # both values print as 5e-05, the name of their directory or column
        out = tmp_path / "out"
        argv = ["--config", str(config_file), "--out", str(out)]
        rc = main([command, *argv, "--q0", "5e-5", "--q0", "5.0000001e-5"])
        assert rc == 1
        assert "share labels" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("numerics: {cells: 10}\n")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_formats_flag(self, config_file, tmp_path, capsys):
        rc = _simulate(config_file, tmp_path / "out", "--formats", "png")
        assert rc == 1
        assert "--formats" in capsys.readouterr().err

    def test_simulate_rejects_multiple_q0(self, config_file, tmp_path, capsys):
        rc = _simulate(
            config_file, tmp_path / "out", "--q0", "1e-5", "--q0", "5e-4"
        )
        assert rc == 1
        assert "at most one" in capsys.readouterr().err


class TestSimulate:
    def test_writes_full_artifact_set(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert _simulate(config_file, out) == 0
        captured = capsys.readouterr()
        assert "wrote 9 files" in captured.out
        assert "final total cars:" in captured.out
        names = sorted(p.name for p in out.iterdir())
        assert "density.csv" in names
        assert "summary.json" in names
        assert "vsl.svg" in names
        assert len(names) == 9

    def test_formats_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert _simulate(config_file, out, "--formats", "csv") == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "control.csv",
            "density.csv",
            "speed.csv",
            "total_cars.csv",
            "vsl.csv",
        ]

    def test_model_and_control_overrides(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = _simulate(
            config_file, out, "--formats", "json", "--model", "nonlinear", "--control", "off"
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "nonlinear"
        assert summary["control_enabled"] is False
        assert "mass_balance" in summary

    def test_single_q0_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = _simulate(config_file, out, "--formats", "json", "--q0", "0.0005")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["q0"] == 0.0005

    def test_non_unit_r0_recorded(self, tmp_path):
        path = tmp_path / "weighted.yaml"
        path.write_text(TINY_CONFIG + "control:\n  r0: 4.0\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--out", str(out), "--formats", "json"])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["r0"] == 4.0

    def test_solver_abort_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unstable.yaml"
        path.write_text(TINY_CONFIG + "control:\n  q0: 1000.0\n")
        rc = main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "solver abort" in capsys.readouterr().err

    def test_write_failure_exit_code(self, config_file, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        assert _simulate(config_file, blocked) == 2
        assert "write failure" in capsys.readouterr().err


class TestSweep:
    def test_explicit_members(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--out",
                str(out),
                "--q0",
                "1e-5",
                "--q0",
                "0.0005",
            ]
        )
        assert rc == 0
        assert (out / "q0_1e-05").is_dir()
        assert (out / "q0_0.0005").is_dir()
        header = (out / "total_cars_sweep.csv").read_text().splitlines()[0]
        assert header == "t_s,total_cars[q0=1e-05],total_cars[q0=0.0005]"
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["q0_values"] == [1e-5, 5e-4]
        assert summary["target_cars"] == 100.0
        assert set(summary["final_total_cars"]) == {"1e-05", "0.0005"}
        assert summary["failures"] == {}
        assert (out / "total_cars_sweep.svg").exists()
        # each member's own record: its q0 and the config's numerics
        config = parse_config(TINY_CONFIG)
        for label, q0 in (("1e-05", 1e-5), ("0.0005", 5e-4)):
            member = json.loads((out / f"q0_{label}" / "summary.json").read_text())
            assert member["q0"] == q0
            assert member["cfl"] == config.cfl
            assert member["output_cadence_s"] == config.output_cadence == 2.0

    def test_default_members(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(config_file), "--out", str(out), "--formats", "json"]
        )
        assert rc == 0
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == ["q0_0.0005", "q0_1e-05", "q0_1e-06", "q0_5e-05"]

    def test_partial_failure_keeps_successes(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--out",
                str(out),
                "--q0",
                "5e-5",
                "--q0",
                "1000",
            ]
        )
        assert rc == 2
        assert "sweep member q0=1000 failed" in capsys.readouterr().err
        assert (out / "q0_5e-05").is_dir()
        assert not (out / "q0_1000").exists()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["q0_values"] == [5e-5]
        assert list(summary["failures"]) == ["1000"]

    @pytest.mark.parametrize("blocked", ["total_cars_sweep.csv", "sweep_summary.json"])
    def test_combined_file_write_failure(self, blocked, config_file, tmp_path, capsys):
        # a directory in the way of one combined file: exit 2, no traceback,
        # and none of the combined files is left behind
        out = tmp_path / "sweep"
        (out / blocked).mkdir(parents=True)
        rc = main(["sweep", "--config", str(config_file), "--out", str(out), "--q0", "5e-5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "write failure" in err
        assert "Traceback" not in err
        assert (out / "q0_5e-05" / "summary.json").is_file()
        combined = {"total_cars_sweep.csv", "sweep_summary.json", "total_cars_sweep.svg"}
        assert {p.name for p in out.iterdir()} & combined == {blocked}

    def test_empty_member_list_is_usage_error(self):
        # main maps the ValueError to exit 1, as test_bad_q0_is_config_error checks
        config = parse_config(TINY_CONFIG)
        with pytest.raises(ValueError, match="non-empty q0 list"):
            cmd_sweep(config, [])


class TestRiccati:
    def test_default_uses_config_q0(self, config_file, tmp_path, capsys):
        out = tmp_path / "riccati"
        rc = main(["riccati", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        assert "wrote 4 files" in capsys.readouterr().out
        header = (out / "riccati.csv").read_text().splitlines()[0]
        assert header == "z_m,phi[q0=5e-05],k0_per_m[q0=5e-05]"

    def test_curve_family(self, config_file, tmp_path):
        out = tmp_path / "riccati"
        rc = main(
            [
                "riccati",
                "--config",
                str(config_file),
                "--out",
                str(out),
                "--formats",
                "json",
                "--q0",
                "1e-6",
                "--q0",
                "0.0005",
            ]
        )
        assert rc == 0
        payload = json.loads((out / "riccati_summary.json").read_text())
        assert payload["q0_values"] == [1e-6, 5e-4]
        assert set(payload["phi_at_0"]) == {"1e-06", "0.0005"}


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 8
        assert all(line.startswith("PASS ") for line in lines)
        assert any("riccati" in line for line in lines)
