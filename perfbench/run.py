"""Benchmark of lwrvsl: closed-loop runs, the CLI sweep and verify.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload solo_nonlinear --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one caller in one process: each
operation starts when the previous one has returned and been checked.

    solo_linear     parse the generated config, run_simulation on the linear plant
    solo_nonlinear  the same on the nonlinear plant
    cli_sweep       lwrvsl.cli.main(["sweep", ...]) over four q0 values, csv+json+svg
    verify_suite    lwrvsl.cli.main(["verify"])

The seed draws the inputs (q0 values and an amplitude scale); seed 0 is
the reference scenario and the reference q0 set. The work per operation
(400 cells, 120 s, 0.5 s cadence) is the same for every seed.

With --trace 0 the last line of standard output holds the end-to-end
metrics, measured with nothing traced. With --trace 1 it holds calls and
self time per public function, from spans recorded by tracer.py around
every other operation, plus the tracing overhead. The full report
(timings with sample counts, output digests, machine context) is printed
before that line and saved under .perfbench/ with the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_REPEATS = 7

REFERENCE_Q0 = (1e-6, 1e-5, 5e-5, 5e-4)
REFERENCE_SOLO_Q0 = 5e-5
Q0_RANGE = (1e-6, 5e-4)
# 1.25 keeps rho_0 + the largest initial or boundary surplus (20 cars/km at
# scale 1) below rho_max / 2 = 80 cars/km, the free-flow band.
AMPLITUDE_RANGE = (0.5, 1.25)
# the relative mass-balance bound that `lwrvsl verify` uses
MASS_BALANCE_BOUND = 1e-9

RUN_FILES = (
    "density.csv", "speed.csv", "vsl.csv", "control.csv", "total_cars.csv",
    "summary.json", "density.svg", "speed.svg", "vsl.svg",
)
SWEEP_FILES = ("total_cars_sweep.csv", "sweep_summary.json", "total_cars_sweep.svg")

# (module, function) pairs timed by the traced run, named <module>.<function>
LAYER_FUNCTIONS = (
    ("config", "parse_config"),
    ("riccati", "phi_closed_form"),
    ("riccati", "control_field"),
    ("riccati", "integrate_vsl"),
    ("riccati", "phi_numeric_oracle"),
    ("fundamental", "equilibrium_speed"),
    ("fundamental", "characteristic_speed"),
    ("fundamental", "flux"),
    ("solvers", "step_linear"),
    ("solvers", "step_nonlinear"),
    ("solvers", "godunov_interface_flux"),
    ("solvers", "apply_boundary"),
    ("scenario", "run_simulation"),
    ("scenario", "upstream_boundary"),
    ("output", "write_wide_csv"),
    ("output", "svg_heatmap"),
    ("output", "svg_lineplot"),
    ("output", "write_json"),
    ("output", "run_summary"),
    ("cli", "cmd_sweep"),
    ("verify", "check_phi_boundary"),
    ("verify", "check_riccati_residual"),
    ("verify", "check_oracle_equivalence"),
    ("verify", "check_conservation"),
    ("verify", "check_convergence_linear"),
    ("verify", "check_convergence_nonlinear"),
    ("verify", "check_convergence_coarse"),
    ("verify", "check_linearization"),
)
STEPPERS = ("solvers.step_linear", "solvers.step_nonlinear")
WRITERS = (
    "output.write_wide_csv", "output.svg_heatmap", "output.svg_lineplot", "output.write_json",
)


def _cell_updates(args, result) -> int:
    return args[0].n_cells


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _summary_bytes(args, result) -> int:
    # what write_json emits for the summary
    return len(json.dumps(result, indent=2, sort_keys=True)) + 1


LAYER_COUNTERS = {
    **{name: ("solvers.cell_updates", _cell_updates) for name in STEPPERS},
    **{name: (f"{name}.bytes", _file_bytes) for name in WRITERS},
    "output.run_summary": ("output.run_summary.bytes", _summary_bytes),
}


def import_package():
    """Import lwrvsl from ./src of the checkout; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "lwrvsl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/lwrvsl under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import lwrvsl
    import lwrvsl.cli
    import lwrvsl.verify

    if Path(lwrvsl.__file__).resolve().parent != (src / "lwrvsl").resolve():
        sys.exit(f"perfbench: imported lwrvsl from {lwrvsl.__file__}, not from {src}")
    return lwrvsl


@dataclass(frozen=True)
class Inputs:
    seed: int
    solo_q0: float
    sweep_q0: tuple[float, ...]
    amplitude_scale: float


def make_inputs(seed: int) -> Inputs:
    """q0 values log-uniform on Q0_RANGE, amplitude scale uniform on AMPLITUDE_RANGE."""
    if seed == 0:
        return Inputs(0, REFERENCE_SOLO_Q0, REFERENCE_Q0, 1.0)
    rng = random.Random(seed)
    low, high = (math.log(q) for q in Q0_RANGE)
    sweep = tuple(math.exp(rng.uniform(low, high)) for _ in REFERENCE_Q0)
    solo = math.exp(rng.uniform(low, high))
    return Inputs(seed, solo, sweep, rng.uniform(*AMPLITUDE_RANGE))


def _yaml_float(value: float) -> str:
    # PyYAML reads 5e-05 as a string; a mantissa with a '.' and 17 digits round-trips
    return format(value, ".17e")


def config_text(inputs: Inputs, model: str) -> str:
    """The generated run config: reference setup with the drawn q0 and amplitudes.

    The amplitude scale multiplies the initial bump (10 cars/km), the
    boundary oscillation (5 cars/km) and the boundary ramp
    (0.125 cars/km/s), as reference_scenario(amplitude_scale=...) does.
    """
    scale = inputs.amplitude_scale
    return (
        "scenario:\n"
        f"  model: {model}\n"
        f"  ic_amplitude_per_km: {_yaml_float(10.0 * scale)}\n"
        f"  bc_osc_amplitude_per_km: {_yaml_float(5.0 * scale)}\n"
        f"  bc_growth_rate_per_km_s: {_yaml_float(0.125 * scale)}\n"
        "control:\n"
        f"  q0: {_yaml_float(inputs.solo_q0)}\n"
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _frames(frames) -> np.ndarray:
    """Stack frames held as arrays or as DensityField-like objects with .values."""
    return np.stack([np.asarray(getattr(frame, "values", frame), dtype=np.float64)
                     for frame in frames])


class SoloRun:
    """One closed-loop run: parse the config, then run_simulation with control on."""

    def __init__(self, lw, config: str, model: str) -> None:
        self.lw = lw
        self.config = config
        self.model = model
        self.label = f"run_{model}_s"

    def run(self):
        config = self.lw.config.parse_config(self.config)
        history = self.lw.scenario.run_simulation(
            config.scenario, config.output_cadence, config.cfl
        )
        return config.scenario, history

    def check(self, raw) -> tuple[dict[str, str], list[str]]:
        scenario, history = raw
        p = scenario.params
        density = _frames(history.density_frames)
        absolute = density + p.rho_0 if self.model == "linear" else density
        problems = []
        if absolute.min() < 0.0 or absolute.max() > p.rho_max:
            problems.append(
                f"density left [0, rho_max]: [{absolute.min()}, {absolute.max()}] cars/m"
            )
        if self.model == "nonlinear":
            totals = history.total_cars_series
            defect = totals[-1] - totals[0] - (history.inflow_cars - history.outflow_cars)
            relative = abs(defect) / totals[0]
            if not relative < MASS_BALANCE_BOUND:
                problems.append(f"mass-balance defect {relative:.3e} >= {MASS_BALANCE_BOUND:g}")
        arrays = {
            "total_cars_series": history.total_cars_series,
            "density_frames": density,
            "vsl_frames": _frames(history.vsl_frames),
            "control_frames": _frames(history.control_frames),
        }
        digests = {
            name: sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes())
            for name, values in arrays.items()
        }
        return digests, problems


class CliSweep:
    """One in-process `lwrvsl sweep` writing csv, json and svg for four q0 values."""

    label = "sweep_s"

    def __init__(self, lw, config_path: Path, q0_values: tuple[float, ...]) -> None:
        self.lw = lw
        self.out = WORK / "sweep-out"
        shutil.rmtree(self.out, ignore_errors=True)
        self.argv = ["sweep", "--model", "nonlinear", "--formats", "csv,json,svg",
                     "--config", str(config_path), "--out", str(self.out)]
        for q0 in q0_values:
            self.argv += ["--q0", repr(q0)]
        self.members = [f"q0_{q0:g}" for q0 in q0_values]
        self.expected = {f"{member}/{name}" for member in self.members for name in RUN_FILES}
        self.expected.update(SWEEP_FILES)

    def run(self):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = self.lw.cli.main(self.argv)
        return code, log.getvalue()

    def check(self, raw) -> tuple[dict[str, str], list[str]]:
        code, log = raw
        problems = [] if code == 0 else [f"sweep exited {code}: {log.strip()[-300:]}"]
        written = sorted(
            path.relative_to(self.out).as_posix()
            for path in self.out.rglob("*") if path.is_file()
        )
        missing = sorted(self.expected.difference(written))
        if missing:
            problems.append(f"{len(missing)} of {len(self.expected)} files missing: {missing[:3]}")
        digests = {name: file_sha256(self.out / name) for name in written}
        for member in self.members:
            path = self.out / member / "summary.json"
            if not path.is_file():
                continue
            summary = json.loads(path.read_text())
            rho_max = summary["params"]["rho_max_per_km"]
            if summary["min_density_per_km"] < 0.0 or summary["max_density_per_km"] > rho_max:
                problems.append(f"{member}: density left [0, rho_max]")
            relative = summary["mass_balance"]["defect_relative"]
            if not relative < MASS_BALANCE_BOUND:
                problems.append(f"{member}: mass-balance defect {relative:.3e}")
        shutil.rmtree(self.out, ignore_errors=True)
        return digests, problems


class VerifySuite:
    """One in-process `lwrvsl verify`."""

    label = "verify_s"

    def __init__(self, lw) -> None:
        self.lw = lw

    def run(self):
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            code = self.lw.cli.main(["verify"])
        return code, log.getvalue()

    def check(self, raw) -> tuple[dict[str, str], list[str]]:
        code, log = raw
        problems = [] if code == 0 else [f"verify exited {code}"]
        lines = log.splitlines()
        if not lines or any(line.startswith("FAIL") for line in lines):
            problems.append("verify reported a failed check: " + "; ".join(lines))
        return {"verify_stdout": sha256(log.encode())}, problems


class Ledger:
    """Counts operations and failures; the first good operation's digests are the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def attempt(self, workload, call) -> float:
        """Time ``call()``, then gate its output; return the wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = call()
        except Exception as exc:  # a raising operation is a failed one; the loop goes on
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            digests, problems = workload.check(raw)
        except Exception as exc:  # output the checks cannot read is a failure too
            self.failures.append(f"check raised {type(exc).__name__}: {exc}")
            return elapsed
        if self.reference is None and not problems:
            self.reference = digests
        elif self.reference is not None and digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"same-seed repeat changed digests: {changed[:3]}")
        if problems:
            self.failures.append("; ".join(problems))
        return elapsed


def build_workload(name: str, lw, inputs: Inputs):
    model = "linear" if name == "solo_linear" else "nonlinear"
    config = config_text(inputs, model)
    config_path = WORK / f"config-{name}.yaml"
    config_path.write_text(config)
    if name.startswith("solo_"):
        workload = SoloRun(lw, config, model)
    elif name == "cli_sweep":
        workload = CliSweep(lw, config_path, inputs.sweep_q0)
    else:
        workload = VerifySuite(lw)
    return workload, config_path


def measure_setup(config_path: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes that import, parse and build."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def layer_targets(lw) -> dict:
    return {
        f"{module}.{function}": getattr(getattr(lw, module), function)
        for module, function in LAYER_FUNCTIONS
    }


def summarize(samples: list[float]) -> dict:
    """Sample count, median, and the highest of p99/p95/p90/p75 with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"count": n, "p50": statistics.median(ordered),
               "min": ordered[0], "max": ordered[-1]}
    for p in (99, 95, 90, 75):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            summary[f"p{p}"] = ordered[rank - 1]
            break
    return summary


def machine_context() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}-{kind}"] = size
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
        ),
    }


def median_layers(tracer: Tracer) -> dict:
    """Per-layer metrics: medians over the traced operations."""
    per_op = [tracer.op_layers(i) for i in range(len(tracer.ops))]
    metrics = {}
    for name in tracer.names[:-1]:  # the last name is the benchmark's own op span
        metrics[f"{name}.calls"] = {
            "value": statistics.median(op[name][0] for op in per_op), "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(op[name][1] for op in per_op), "unit": "s"}
    for counter in tracer.counter_names:
        unit = "count" if counter == "solvers.cell_updates" else "B"
        metrics[counter] = {
            "value": statistics.median(tracer.op_counters(i)[counter]
                                       for i in range(len(tracer.ops))),
            "unit": unit,
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solo_linear", "solo_nonlinear", "cli_sweep", "verify_suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lw = import_package()
    WORK.mkdir(exist_ok=True)
    inputs = make_inputs(args.seed)
    workload, config_path = build_workload(args.workload, lw, inputs)
    setup = [] if args.trace else measure_setup(config_path)

    ledger = Ledger()
    targets = layer_targets(lw)
    counter = Tracer("lwrvsl", {name: targets[name] for name in STEPPERS}, LAYER_COUNTERS)
    ledger.attempt(workload, lambda: counter.run_op(workload.run))  # warm-up and reference
    cell_updates = counter.op_counters(0)["solvers.cell_updates"]
    tracer = Tracer("lwrvsl", targets, LAYER_COUNTERS) if args.trace else None

    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(ledger.attempt(workload, workload.run))
        if tracer is not None:
            traced.append(ledger.attempt(workload, lambda: tracer.run_op(workload.run)))
        if time.perf_counter() >= deadline:
            break

    failed = len(ledger.failures)
    report = {
        "workload": args.workload,
        "inputs": asdict(inputs),
        "seconds": args.seconds,
        "trace": args.trace,
        "timings": {workload.label: summarize(plain)},
        "attempted": ledger.attempted,
        "failed": failed,
        "failed_ops_ratio": failed / ledger.attempted,
        "failures": ledger.failures[:10],
        "digests": ledger.reference,
        "context": {
            **machine_context(),
            "cell_updates_per_op": cell_updates,
            "computed": {
                "note": "from array sizes for the 400-cell grid, float64; all fit in cache, "
                        "so no bandwidth is claimed",
                "field_bytes": 8 * 400,
                "bytes_per_step": 8 * (4 * 400 + 2),
                "bytes_per_step_terms": "state in, control or VSL profile in, "
                                        "interface fluxes out, state out",
            },
        },
    }
    if tracer is None:
        report["timings"]["setup_s"] = summarize(setup)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s.p50": {"value": statistics.median(plain), "unit": "s"},
            "cell_steps_per_s": {
                "value": cell_updates / statistics.median(plain), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        report["timings"]["traced_" + workload.label] = summarize(traced)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = median_layers(tracer)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * overhead / statistics.median(plain), "unit": "%"}
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    report["metrics"] = metrics
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
