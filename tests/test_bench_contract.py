"""The benchmark's view of the package: the names it traces and the data it reads.

perfbench/run.py finds the functions it times by module and name, counts
cell updates from the grid passed first to each stepper, and gates each
solo run on data it reads from the package: RunConfig.cfl and
output_cadence, run_simulation(scenario, cadence, cfl) called with
positional arguments, and the SimulationHistory field names. It counts
the bytes of each writer from the path passed first to it, and gates
its verify workload on the exit code and the PASS/FAIL lines of an
in-process `lwrvsl verify`. A refactor that breaks any of these makes
every benchmark operation fail, so this module loads run.py (without
writing anything next to it) and checks them against small closed-loop
runs and one verify.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import lwrvsl
import lwrvsl.cli  # run.py resolves names on these submodules too
import lwrvsl.verify
from lwrvsl import reference_scenario, run_simulation
from lwrvsl.output import write_run_artifacts, write_sweep_artifacts
from lwrvsl.scenario import sweep_q0

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved_path = list(sys.path)
    saved_bytecode = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        sys.modules.pop("perfbench_run", None)
        sys.modules.pop("tracer", None)


def test_every_traced_name_resolves(bench):
    targets = bench.layer_targets(lwrvsl)
    assert len(targets) == len(bench.LAYER_FUNCTIONS)
    assert all(callable(fn) for fn in targets.values())


def test_traced_names_resolve_in_a_fresh_process(bench):
    # the bench imports lwrvsl, lwrvsl.cli and lwrvsl.verify and reaches every
    # other module through them; this process has imported them all already
    script = (
        "import importlib.util, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "spec = importlib.util.spec_from_file_location('perfbench_run', 'perfbench/run.py')\n"
        "bench = importlib.util.module_from_spec(spec)\n"
        "sys.modules[spec.name] = bench\n"
        "spec.loader.exec_module(bench)\n"
        "targets = bench.layer_targets(bench.import_package())\n"
        "print(sum(callable(fn) for fn in targets.values()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", script],
        cwd=PERFBENCH.parent, capture_output=True, text=True, check=True,
    )
    assert result.stdout == f"{len(bench.LAYER_FUNCTIONS)}\n"


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_cell_updates_count_every_step(bench, model):
    targets = bench.layer_targets(lwrvsl)
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in bench.STEPPERS}, bench.LAYER_COUNTERS
    )
    scenario = reference_scenario(model=model, n_cells=16, sim_time=4.0)
    traced = tracer.run_op(lambda: run_simulation(scenario))
    layers = tracer.op_layers(0)
    steps = sum(layers[name][0] for name in bench.STEPPERS)
    assert steps > 0
    assert tracer.op_counters(0)["solvers.cell_updates"] == steps * scenario.grid.n_cells
    plain = run_simulation(scenario)
    assert traced.total_cars_series.tobytes() == plain.total_cars_series.tobytes()


def test_sweep_runs_stay_in_the_traced_process(bench, tmp_path):
    # cell_steps_per_s divides the updates the steppers report in the bench's
    # own process; a run in a sweep's writer pool would report none
    targets = bench.layer_targets(lwrvsl)
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in bench.STEPPERS}, bench.LAYER_COUNTERS
    )
    config = tmp_path / "run.yaml"
    config.write_text("params:\n  sim_time_s: 4\nnumerics:\n  n_cells: 16\n")
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out"),
            "--q0", "1e-5", "--q0", "5e-4"]
    assert tracer.run_op(lambda: lwrvsl.cli.main(argv)) == 0
    layers = tracer.op_layers(0)
    steps = sum(layers[name][0] for name in bench.STEPPERS)
    assert steps > 0
    assert tracer.op_counters(0)["solvers.cell_updates"] == steps * 16


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_vsl_integration_count(bench, model):
    # the nonlinear stepper reads the VSL profile on every step (one integration
    # per step and one of the initial state), the linear one never; on both
    # plants the profiles of the recorded frames are integrated in one call
    targets = bench.layer_targets(lwrvsl)
    traced = ("riccati.integrate_vsl", *bench.STEPPERS)
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in traced}, bench.LAYER_COUNTERS
    )
    # at 16 cells dt is 1.76 s, so each 4 s frame takes three steps
    scenario = reference_scenario(model=model, n_cells=16, sim_time=8.0)
    history = tracer.run_op(lambda: run_simulation(scenario, 4.0))
    layers = tracer.op_layers(0)
    steps = sum(layers[name][0] for name in bench.STEPPERS)
    expected = 1 if model == "linear" else steps + 2
    assert len(history.times) == 3
    assert steps == 6
    assert layers["riccati.integrate_vsl"][0] == expected


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_closed_loop_call_counts(bench, model):
    # per nonlinear step one flux evaluation (the stacked demand and supply
    # states), plus one in assemble_problem; per step one apply_boundary, which
    # writes the ghosts of the buffer the step reads; per run one integrate_vsl
    # over the controls of its three frames, plus one per nonlinear step and one
    # of the nonlinear initial state
    targets = bench.layer_targets(lwrvsl)
    traced = ("fundamental.flux", "solvers.apply_boundary", "riccati.integrate_vsl",
              *bench.STEPPERS)
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in traced}, bench.LAYER_COUNTERS
    )
    scenario = reference_scenario(model=model, n_cells=16, sim_time=8.0)
    history = tracer.run_op(lambda: run_simulation(scenario, 4.0))
    layers = tracer.op_layers(0)
    calls = {name: layers[name][0] for name in traced}
    nonlinear_steps = calls["solvers.step_nonlinear"]
    assert calls["solvers.step_linear"] + nonlinear_steps == 6
    assert nonlinear_steps == (6 if model == "nonlinear" else 0)
    assert calls["fundamental.flux"] == nonlinear_steps + 1
    assert calls["solvers.apply_boundary"] == 6
    assert len(history.times) == 3
    assert calls["riccati.integrate_vsl"] == (1 if model == "linear" else nonlinear_steps + 2)


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_solo_run_passes_its_own_gate(bench, model):
    # the bench's generated config at seed 1, on a grid small enough for a unit test
    config = bench.config_text(bench.make_inputs(1), model) + (
        "params:\n  sim_time_s: 6\nnumerics:\n  n_cells: 24\n"
    )
    solo = bench.SoloRun(lwrvsl, config, model)
    digests, problems = solo.check(solo.run())
    assert problems == []
    assert set(digests) == {
        "total_cars_series", "density_frames", "vsl_frames", "control_frames"
    }


def test_sweep_passes_its_own_gate(bench, tmp_path, monkeypatch):
    # the gate reads params.rho_max_per_km, the density range and the mass-balance
    # defect from each member's summary.json; a renamed key fails every cli_sweep op
    monkeypatch.setattr(bench, "WORK", tmp_path)
    config = tmp_path / "config-cli_sweep.yaml"
    config.write_text(bench.config_text(bench.make_inputs(1), "nonlinear") + (
        "params:\n  sim_time_s: 6\nnumerics:\n  n_cells: 24\n"
    ))
    sweep = bench.CliSweep(lwrvsl, config, (1e-5, 5e-4))
    digests, problems = sweep.check(sweep.run())
    assert problems == []
    assert set(digests) == sweep.expected


def test_verify_passes_the_bench_gate(bench):
    suite = bench.VerifySuite(lwrvsl)
    digests, problems = suite.check(suite.run())
    assert problems == []
    assert set(digests) == {"verify_stdout"}


def test_writer_byte_counters_match_the_files(bench, tmp_path):
    targets = bench.layer_targets(lwrvsl)
    traced = (*bench.WRITERS, "output.run_summary")
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in traced}, bench.LAYER_COUNTERS
    )
    scenario = reference_scenario(model="nonlinear", n_cells=16, sim_time=4.0)
    members = [m for _, m in sweep_q0(scenario, [1e-5, 5e-4])]
    series = [(m.scenario, m.total_cars_series) for m in members]
    formats = ("csv", "json", "svg")

    def write_all():
        return write_run_artifacts(tmp_path / "run", members[0], formats) + (
            write_sweep_artifacts(tmp_path / "sweep", members[0].times, series, {}, formats)
        )

    files = tracer.run_op(write_all)
    writer_of = {".csv": "output.write_wide_csv", ".json": "output.write_json",
                 ".svg": "output.svg_heatmap", "total_cars_sweep.svg": "output.svg_lineplot"}
    expected = dict.fromkeys((f"{name}.bytes" for name in traced), 0)
    for path in files:
        writer = writer_of.get(path.name, writer_of[path.suffix])
        expected[f"{writer}.bytes"] += path.stat().st_size
    expected["output.run_summary.bytes"] = (tmp_path / "run" / "summary.json").stat().st_size
    assert all(expected.values())
    counts = tracer.op_counters(0)
    assert {name: counts[name] for name in expected} == expected
