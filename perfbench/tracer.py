"""In-memory spans around calls into lwrvsl's public functions.

A function is traced by replacing it at every module attribute that
holds it, which is where its callers look it up: ``scenario.py`` binds
``step_nonlinear`` by ``from .solvers import ...``, so the wrapper must
go into ``lwrvsl.scenario`` as well as ``lwrvsl.solvers``. Nothing under
``src/`` changes; ``Patch.restore`` puts the originals back.

Each span is stored as (name id, parent span, start, end) in flat
arrays, so a traced run of tens of thousands of calls stays small. A
span's self time is its duration minus the durations of its direct
children, which nest inside it because the benchmark runs one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def lookup_sites(package: str, function) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package that holds ``function``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                sites.append((module, attr))
    return sites


class Patch:
    """Swaps functions for replacements at every lookup site found at init."""

    def __init__(self, package: str, replacements: dict) -> None:
        self._sites = [
            (module, attr, original, replacement)
            for original, replacement in replacements.items()
            for module, attr in lookup_sites(package, original)
        ]

    def apply(self) -> None:
        for module, attr, _, replacement in self._sites:
            setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)


class Tracer:
    """Records spans and per-operation counters for a set of functions.

    ``targets`` maps a span name such as ``"solvers.step_nonlinear"`` to
    the function object. ``counters`` maps a span name to
    ``(counter name, measure)``; after each call ``measure(args, result)``
    is added to that counter.
    """

    def __init__(self, package: str, targets: dict, counters: dict) -> None:
        self.names = list(targets) + ["bench.op"]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counter_names = sorted({counter for counter, _ in counters.values()})
        self._counts = dict.fromkeys(self.counter_names, 0)
        self.ops: list[tuple[int, int, dict[str, int]]] = []
        self._patch = Patch(
            package,
            {fn: self._wrap(name, fn, counters.get(name)) for name, fn in targets.items()},
        )

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        name_id = self._ids[name]
        counts = self._counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def run_op(self, op):
        """Call ``op()`` with every target traced, as one ``bench.op`` span."""
        first = len(self.start)
        self._counts.update(dict.fromkeys(self._counts, 0))
        self._patch.apply()
        index = self._open(self._ids["bench.op"])
        try:
            return op()
        finally:
            self._close(index)
            self._patch.restore()
            self.ops.append((first, len(self.start), dict(self._counts)))

    def op_layers(self, op_index: int) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name within one traced operation."""
        first, last, _ = self.ops[op_index]
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parents = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        duration = (
            np.frombuffer(self.end, dtype=np.float64)[first:last]
            - np.frombuffer(self.start, dtype=np.float64)[first:last]
        )
        self_time = duration.copy()
        nested = parents >= first
        np.subtract.at(self_time, parents[nested] - first, duration[nested])
        calls = np.bincount(ids, minlength=len(self.names))
        seconds = np.bincount(ids, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)
        }

    def op_counters(self, op_index: int) -> dict[str, int]:
        return self.ops[op_index][2]

    def save(self, path: Path) -> None:
        """Write every span and the operation boundaries to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            op_bounds=np.array([(first, last) for first, last, _ in self.ops], dtype=np.int64),
        )
