"""The benchmark's view of the package: the names it traces and the data it reads.

perfbench/run.py finds the functions it times by module and name, counts
cell updates from the grid passed first to each stepper, and gates each
solo run on data it reads from the package: RunConfig.cfl and
output_cadence, run_simulation(scenario, cadence, cfl) called with
positional arguments, and the SimulationHistory field names. It counts
the bytes of each writer from the path passed first to it. A refactor
that breaks any of these makes every benchmark operation fail, so this
module loads run.py (without writing anything next to it) and checks
them against small closed-loop runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import lwrvsl
import lwrvsl.cli  # run.py resolves names on these submodules too
import lwrvsl.verify
from lwrvsl import reference_scenario, run_simulation, sweep_q0, write_run_artifacts
from lwrvsl.output import write_sweep_artifacts

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


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_vsl_integration_count(bench, model):
    # the nonlinear stepper reads the VSL profile on every step, the linear one
    # never: there the profile is integrated for the recorded frames only
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
    expected = len(history.times) if model == "linear" else steps + 1
    assert steps == 6
    assert layers["riccati.integrate_vsl"][0] == expected


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


def test_writer_byte_counters_match_the_files(bench, tmp_path):
    targets = bench.layer_targets(lwrvsl)
    traced = (*bench.WRITERS, "output.run_summary")
    tracer = bench.Tracer(
        "lwrvsl", {name: targets[name] for name in traced}, bench.LAYER_COUNTERS
    )
    scenario = reference_scenario(model="nonlinear", n_cells=16, sim_time=4.0)
    members, failures = sweep_q0(scenario, [1e-5, 5e-4])
    assert failures == {}
    formats = ("csv", "json", "svg")

    def write_all():
        return write_run_artifacts(tmp_path / "run", members[0], formats) + (
            write_sweep_artifacts(tmp_path / "sweep", members, {}, formats)
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
