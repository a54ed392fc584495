"""Command-line front end: simulate, sweep, riccati, verify.

Exit codes: 0 success, 1 usage or configuration error, 2 solver abort,
artifact write failure or a sweep writer process that died, 3
verification failure.

sweep runs its members one after another in this process and forks one
writer process per member as its run returns; the writer inherits the
member's history, so nothing is pickled, and this process keeps only the
member's car-count series for the combined files.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import multiprocessing
import os
import sys
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np

from .config import FORMATS, ConfigError, RunConfig, parse_config
from .output import write_riccati_artifacts, write_run_artifacts, write_sweep_artifacts
from .scenario import (
    MODELS, REFERENCE_Q0_VALUES, Scenario, SimulationHistory, run_simulation, sweep_q0,
)
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


def _write_member(
    sender: Connection, out_dir: Path, history: SimulationHistory, formats: tuple[str, ...]
) -> None:
    """A sweep writer process: send None once the member is written, else the exception."""
    try:
        write_run_artifacts(out_dir, history, formats)
    except Exception as exc:  # the parent decides which ones fail only this member
        sender.send(exc)
    else:
        sender.send(None)


def cmd_sweep(config: RunConfig, q0_list: list[float]) -> int:
    """Run the members through sweep_q0, forking each one's writer as its run returns.

    The runs stay in this process. As a run returns, a writer process is
    forked for it: it inherits the history and writes the member's files,
    and this process drops the frame matrices, keeping the scenario and
    the car-count series that the combined files read. At most one
    writer per usable CPU is alive: the oldest is reaped before the next
    is forked, and every one is reaped before cmd_sweep returns or
    raises. The combined files are then written here from the members
    that were written. A failed run, a failed member write and a writer
    that died fail only their own member, which is reported and left
    out. A bad q0 list raises before any run or fork; any other error,
    in a writer or here, and a failed write of the combined files raise,
    for main.
    """
    out = Path(config.output_dir)
    fork = multiprocessing.get_context("fork")
    limit = len(os.sched_getaffinity(0))
    # per member, in sweep order: its failure message, or what the combined files read
    members: dict[str, str | tuple[Scenario, np.ndarray]] = {}
    # the live writers, (label, process, receiver), oldest first
    writers: collections.deque[tuple[str, BaseProcess, Connection]] = collections.deque()
    times = None

    def reap_oldest() -> None:
        # an OSError in the writer, or its death, fails its member alone
        label, process, receiver = writers.popleft()
        died = False
        try:
            with receiver:
                error = receiver.recv()
        except EOFError:  # the writer exited before it reported
            died = True
        finally:
            process.join()
        if died:
            error = ChildProcessError(f"writer process died with exit code {process.exitcode}")
        if isinstance(error, OSError):
            members[label] = str(error)
        elif error is not None:
            raise error

    try:
        for label, outcome in sweep_q0(
            config.scenario, q0_list, config.output_cadence, config.cfl
        ):
            if isinstance(outcome, str):
                members[label] = outcome
                continue
            if len(writers) == limit:
                reap_oldest()
            receiver, sender = fork.Pipe(duplex=False)
            process = fork.Process(
                target=_write_member,
                args=(sender, out / f"q0_{label}", outcome, config.formats),
            )
            process.start()  # the Process object lets go of its args once started
            sender.close()
            writers.append((label, process, receiver))
            times = outcome.times
            members[label] = (outcome.scenario, outcome.total_cars_series)
            del outcome  # the writer has the frames; free them before the next run
        while writers:
            reap_oldest()
    finally:
        while writers:  # left only when an error is on its way out
            with contextlib.suppress(Exception):
                reap_oldest()
    failures = {label: m for label, m in members.items() if isinstance(m, str)}
    for label, message in failures.items():
        print(f"sweep member q0={label} failed: {message}", file=sys.stderr)
    written = [m for m in members.values() if not isinstance(m, str)]
    if written:
        write_sweep_artifacts(out, times, written, failures, config.formats)
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
