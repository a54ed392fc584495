"""Command-line front end: simulate, sweep, riccati, verify.

Exit codes: 0 success, 1 usage or configuration error, 2 solver abort,
artifact write failure or a sweep writer process that died, 3
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .config import FORMATS, ConfigError, RunConfig, parse_config
from .output import write_riccati_artifacts, write_run_artifacts, write_sweep_artifacts
from .scenario import MODELS, REFERENCE_Q0_VALUES, q0_label, run_simulation, sweep_q0
from .solvers import SolverError
from .verify import run_all_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, help="YAML configuration file")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument(
        "--formats", help="comma-separated subset of csv,json,svg (overrides config)"
    )
    common.add_argument("--model", choices=MODELS, help="plant model (overrides config)")
    common.add_argument(
        "--control", choices=("on", "off"), help="feedback on or off (overrides config)"
    )
    common.add_argument(
        "--q0",
        action="append",
        type=float,
        help="state weight; repeat for sweep/riccati curve families",
    )
    parser = _Parser(prog="lwrvsl", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "simulate", parents=[common], help="run one closed- or open-loop simulation"
    )
    subparsers.add_parser(
        "sweep", parents=[common], help="run one simulation per q0 and combine results"
    )
    subparsers.add_parser(
        "riccati", parents=[common], help="emit Phi and gain profiles per q0"
    )
    subparsers.add_parser("verify", help="run the oracle and property suite")
    return parser


def _load_config(args: argparse.Namespace, text: str) -> RunConfig:
    config = parse_config(text)
    scenario = config.scenario
    if args.model is not None:
        scenario = dataclasses.replace(scenario, model=args.model)
    if args.control is not None:
        scenario = dataclasses.replace(scenario, control_enabled=args.control == "on")
    if args.command == "simulate" and args.q0:
        scenario = dataclasses.replace(scenario, q0=args.q0[0])
    replacements: dict[str, object] = {"scenario": scenario}
    if args.out is not None:
        replacements["output_dir"] = args.out
    if args.formats is not None:
        chosen = tuple(part.strip() for part in args.formats.split(",") if part.strip())
        if not chosen or any(f not in FORMATS for f in chosen):
            raise ConfigError(f"--formats must be a non-empty subset of {FORMATS}")
        replacements["formats"] = chosen
    return dataclasses.replace(config, **replacements)


def cmd_simulate(config: RunConfig) -> int:
    """Run one simulation and write its artifact set."""
    history = run_simulation(config.scenario, config.output_cadence, config.cfl)
    written = write_run_artifacts(config.output_dir, history, config.formats)
    print(f"wrote {len(written)} files to {config.output_dir}")
    print(f"final total cars: {history.total_cars_series[-1]:.6g}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, q0_list: list[float]) -> int:
    """Run the members through sweep_q0 and write their artifacts.

    The runs stay in this process. Each member's files are written by a
    pool of min(members, usable CPUs) workers forked from it, and the
    pool is joined before the combined files are written here from the
    members that were written. A failed run, a failed member write and a
    worker that died are reported and left out; the others are kept. A
    bad q0 list and a failed write of the combined files raise, for main.
    """
    members, failures = sweep_q0(config.scenario, q0_list, config.output_cadence, config.cfl)
    out = Path(config.output_dir)
    labels = [q0_label(history.scenario.q0) for history in members]
    written = []
    # a pool that is given no job forks no worker
    workers = max(1, min(len(members), len(os.sched_getaffinity(0))))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        jobs = [
            pool.submit(write_run_artifacts, out / f"q0_{label}", history, config.formats)
            for label, history in zip(labels, members)
        ]
        for label, history, job in zip(labels, members, jobs):
            try:
                job.result()
                written.append(history)
            except (OSError, BrokenProcessPool) as exc:
                failures[label] = str(exc)
    for label, message in failures.items():
        print(f"sweep member q0={label} failed: {message}", file=sys.stderr)
    if written:
        write_sweep_artifacts(out, written, failures, config.formats)
    return EXIT_SOLVER if failures else EXIT_OK


def cmd_riccati(config: RunConfig, q0_values: list[float]) -> int:
    """Emit Phi(z) and K0(z) for one or more q0 values."""
    written = write_riccati_artifacts(
        config.output_dir, config.scenario, q0_values, config.formats
    )
    print(f"wrote {len(written)} files to {config.output_dir}")
    return EXIT_OK


def cmd_verify() -> int:
    """Run every property check, print one line per check."""
    results = run_all_checks()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status} {result.name}: measured={result.measured:.6g} bound {result.bound}"
        if result.detail:
            line += f" [{result.detail}]"
        print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that maps an exception to an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    try:
        text = "" if args.config is None else Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    q0_list = args.q0 or []
    try:
        config = _load_config(args, text)
        if args.command == "simulate":
            if len(q0_list) > 1:
                print("simulate takes at most one --q0", file=sys.stderr)
                return EXIT_USAGE
            return cmd_simulate(config)
        if args.command == "sweep":
            return cmd_sweep(config, q0_list or list(REFERENCE_Q0_VALUES))
        return cmd_riccati(config, q0_list or [config.scenario.q0])
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"write failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
