"""Command-line interface: exit codes, overrides, and artifact layout."""

import dataclasses
import json
import multiprocessing
import os
import tracemalloc

import pytest

import lwrvsl.cli
import lwrvsl.scenario
import lwrvsl.verify
from lwrvsl.cli import cmd_sweep, main
from lwrvsl.config import parse_config
from lwrvsl.output import write_run_artifacts, write_sweep_artifacts
from lwrvsl.scenario import REFERENCE_Q0_VALUES, SimulationHistory, run_simulation, sweep_q0
from lwrvsl.solvers import SolverError

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


RUN_FILES = {
    "density.csv", "speed.csv", "vsl.csv", "control.csv", "total_cars.csv",
    "summary.json", "density.svg", "speed.svg", "vsl.svg",
}
SWEEP_FILES = ("total_cars_sweep.csv", "sweep_summary.json", "total_cars_sweep.svg")


# writer stand-ins; each runs in a sweep writer process forked from the test
def _worker_dies(out_dir, history, formats):
    os._exit(1)


def _worker_dies_for_first_reference_member(out_dir, history, formats):
    if out_dir.name == "q0_1e-06":
        os._exit(1)
    return write_run_artifacts(out_dir, history, formats)


def _worker_raises(out_dir, history, formats):
    raise RuntimeError("not a write failure")


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

    def test_huge_road_length_is_config_error(self, tmp_path, capsys):
        # pi * L overflows, so the initial condition would be NaN: an input error, not exit 2
        path = tmp_path / "long.yaml"
        path.write_text(TINY_CONFIG.replace("params:\n", "params:\n  road_length_m: 1.0e+308\n"))
        out = tmp_path / "out"
        assert _simulate(path, out) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "road_length" in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("params: [unclosed\n")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "config error: malformed config: while parsing a flow sequence" in (
            capsys.readouterr().err
        )

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

    def test_run_within_the_frame_tolerance_plots_its_end(self, tmp_path):
        # a sim_time below the 1e-9 s frame tolerance still records a frame at its
        # end, so the combined plot's time span is not zero
        path = tmp_path / "short.yaml"
        path.write_text(TINY_CONFIG.replace("sim_time_s: 6", "sim_time_s: 1.0e-10"))
        out = tmp_path / "sweep"
        argv = ["--config", str(path), "--out", str(out), "--formats", "svg,json"]
        assert main(["sweep", *argv, "--q0", "1e-5", "--q0", "5e-4"]) == 0
        assert "nan" not in (out / "total_cars_sweep.svg").read_text()
        assert json.loads((out / "q0_1e-05" / "summary.json").read_text())["frames"] == 2

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

    def test_member_write_failure_in_a_worker(self, config_file, tmp_path, capsys):
        # a regular file where the first member's directory goes
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "q0_5e-05").write_text("")
        argv = ["--config", str(config_file), "--out", str(out)]
        rc = main(["sweep", *argv, "--q0", "5e-5", "--q0", "5e-4"])
        assert rc == 2
        assert "sweep member q0=5e-05 failed" in capsys.readouterr().err
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert list(summary["failures"]) == ["5e-05"]
        assert summary["q0_values"] == [5e-4]
        assert {p.name for p in (out / "q0_0.0005").iterdir()} == RUN_FILES
        header = (out / "total_cars_sweep.csv").read_text().splitlines()[0]
        assert header == "t_s,total_cars[q0=0.0005]"
        assert multiprocessing.active_children() == []

    def test_pooled_files_equal_in_process_writes(self, tmp_path, monkeypatch):
        # the writers inherit each history: one that had to be pickled would raise
        def no_pickling(self, protocol):
            raise AssertionError("a SimulationHistory was pickled")

        monkeypatch.setattr(SimulationHistory, "__reduce_ex__", no_pickling)
        q0_list = [1e-5, 5e-4]
        formats = ("csv", "json", "svg")
        config = dataclasses.replace(
            parse_config(TINY_CONFIG), output_dir=str(tmp_path / "pooled"), formats=formats
        )
        assert cmd_sweep(config, q0_list) == 0
        assert multiprocessing.active_children() == []
        members = dict(sweep_q0(config.scenario, q0_list, config.output_cadence, config.cfl))
        assert list(members) == ["1e-05", "0.0005"]
        pairs = []
        for label, history in members.items():
            files = write_run_artifacts(tmp_path / "serial" / f"q0_{label}", history, formats)
            assert len(files) == 9
            pairs += [(path, tmp_path / "pooled" / f"q0_{label}" / path.name) for path in files]
        series = [(m.scenario, m.total_cars_series) for m in members.values()]
        times = members["1e-05"].times
        files = write_sweep_artifacts(tmp_path / "serial", times, series, {}, formats)
        assert [path.name for path in files] == list(SWEEP_FILES)
        pairs += [(path, tmp_path / "pooled" / path.name) for path in files]
        for serial, pooled in pairs:
            assert pooled.read_bytes() == serial.read_bytes(), pooled

    def test_dead_worker_is_a_member_failure(self, config_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lwrvsl.cli, "write_run_artifacts", _worker_dies)
        out = tmp_path / "sweep"
        argv = ["--config", str(config_file), "--out", str(out)]
        rc = main(["sweep", *argv, "--q0", "5e-5", "--q0", "5e-4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep member q0=5e-05 failed: writer process died with exit code 1" in err
        assert "sweep member q0=0.0005 failed: writer process died with exit code 1" in err
        assert "Traceback" not in err
        # no member was written, so neither are the combined files
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_only_its_member(self, config_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            lwrvsl.cli, "write_run_artifacts", _worker_dies_for_first_reference_member
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "sweep member q0=1e-06 failed: writer process died with exit code 1\n"
        assert multiprocessing.active_children() == []
        for label in ("1e-05", "5e-05", "0.0005"):
            assert {p.name for p in (out / f"q0_{label}").iterdir()} == RUN_FILES
        assert not (out / "q0_1e-06").exists()
        assert all((out / name).is_file() for name in SWEEP_FILES)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["q0_values"] == [1e-5, 5e-5, 5e-4]
        assert list(summary["failures"]) == ["1e-06"]

    def test_parent_error_reaps_the_writers(self, tmp_path, monkeypatch):
        # the third run raises in this process; the writers forked for the
        # first two finish their files and are reaped before the error leaves
        runs = []
        run = lwrvsl.scenario.run_simulation

        def third_run_fails(*args):
            runs.append(args)
            if len(runs) == 3:
                raise RuntimeError("injected fault")
            return run(*args)

        monkeypatch.setattr(lwrvsl.scenario, "run_simulation", third_run_fails)
        config = dataclasses.replace(parse_config(TINY_CONFIG), output_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="injected fault"):
            cmd_sweep(config, list(REFERENCE_Q0_VALUES))
        assert multiprocessing.active_children() == []
        assert len(runs) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q0_1e-05", "q0_1e-06"]
        for label in ("1e-06", "1e-05"):
            assert {p.name for p in (tmp_path / f"q0_{label}").iterdir()} == RUN_FILES
        summary = json.loads((tmp_path / "q0_1e-05" / "summary.json").read_text())
        assert summary["frames"] == 4

    def test_parent_keeps_only_the_car_counts(self, tmp_path):
        # each run's frame matrices are freed once its writer is forked, so the
        # traced peak of this process stays below three members' frames
        text = "params:\n  sim_time_s: 30\nnumerics:\n  n_cells: 100\n"
        base = parse_config(text + "scenario:\n  model: nonlinear\n")
        config = dataclasses.replace(base, output_dir=str(tmp_path))
        history = run_simulation(config.scenario, config.output_cadence, config.cfl)
        frame_bytes = sum(
            frames.nbytes
            for frames in (history.density_frames, history.vsl_frames, history.control_frames)
        )
        assert frame_bytes == 61 * 302 * 8
        del history
        tracemalloc.start()
        try:
            assert cmd_sweep(config, list(REFERENCE_Q0_VALUES)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert multiprocessing.active_children() == []
        assert peak < 3 * frame_bytes, f"traced peak {peak} B, one member's frames {frame_bytes} B"

    def test_other_worker_errors_propagate_after_the_pool_closes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lwrvsl.cli, "write_run_artifacts", _worker_raises)
        config = dataclasses.replace(parse_config(TINY_CONFIG), output_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="not a write failure"):
            cmd_sweep(config, [5e-5, 5e-4])
        assert multiprocessing.active_children() == []

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
        assert [line.split(":")[0] for line in lines] == [
            "PASS riccati-boundary",
            "PASS riccati-residual",
            "PASS riccati-oracle",
            "PASS feedback-paths",
            "PASS conservation",
            "PASS convergence-linear",
            "PASS convergence-nonlinear",
            "PASS convergence-coarse",
            "PASS linearization",
        ]

    @pytest.mark.parametrize("error", [SolverError, ValueError])
    def test_a_check_that_raises_is_a_fail_line(self, monkeypatch, capsys, error):
        # every run of the suite goes through run_simulation; the checks
        # that make none still pass, and nothing escapes main
        def abort(*args):
            raise error("injected abort")

        monkeypatch.setattr(lwrvsl.verify, "run_simulation", abort)
        assert main(["verify"]) == 3
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert [line.split(":")[0] for line in lines] == [
            "PASS riccati-boundary",
            "PASS riccati-residual",
            "PASS riccati-oracle",
            "PASS feedback-paths",
            "FAIL conservation",
            "FAIL convergence-linear",
            "FAIL convergence-nonlinear",
            "FAIL convergence-coarse",
            "FAIL linearization",
        ]
        assert all(
            f"measured=nan bound not reached [{error.__name__}: injected abort]" in line
            for line in lines[4:]
        )

    def test_other_exceptions_propagate(self, monkeypatch):
        def abort(*args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(lwrvsl.verify, "run_simulation", abort)
        with pytest.raises(RuntimeError, match="injected fault"):
            main(["verify"])
