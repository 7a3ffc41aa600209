"""The execution-backend seam of the suite runner.

A backend answers exactly one question: *given these (index, scenario)
cells and this executor, produce one raw result per cell*.  Everything else
— outcome assembly, progress callbacks, fail-fast, the result-lake
checkpoint — stays in :class:`~repro.experiments.runner.SuiteRunner`,
so every backend (in-process serial, local process pool, filesystem work
queue, or anything a downstream project plugs in) shares the exact same
semantics.

Backends yield results in *completion* order; the runner re-assembles
scenario order.  The contract is one result per cell, or raise: a backend
that cannot finish a cell (a dead worker, a timed-out queue) raises out of
its iterator, and one whose iteration ends short makes the runner raise
``RuntimeError`` naming the first missing cell.
"""

from __future__ import annotations

import importlib
import time  # lint: allow-file[DET-SEED-CLOCK] operational timing: perf_counter measures cell wall-time for reports, never protocol time
import traceback
from collections.abc import Callable, Iterator, Sequence
from typing import Any, Protocol, runtime_checkable

from repro.experiments.scenario import Scenario

#: An executor maps one scenario to its summary dictionary.  It must be a
#: picklable, importable module-level callable to cross process boundaries
#: (the pool pickles it; the work queue ships it by ``module:qualname``).
Executor = Callable[[Scenario], dict[str, Any]]

#: One raw per-cell result: ``(index, summary, error, wall_time)``.
CellResult = tuple[int, "dict[str, Any] | None", "str | None", float]

#: One unit of backend work: the cell's index in the full suite plus the
#: declarative scenario.  Indexes are suite positions, not dense — a run
#: with lake hits hands the backend only the cells that still need executing.
CellTask = tuple[int, Scenario]


def resolve_executor(reference: str) -> Executor:
    """Import the executor named by a ``module:qualname`` reference."""
    module_name, _, qualname = reference.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed executor reference {reference!r} (expected module:name)")
    return getattr(importlib.import_module(module_name), qualname)


def execute_cell(
    payload: tuple[int, Scenario | dict[str, Any], Executor | str],
) -> CellResult:
    """Execute one cell, never raising across a process boundary.

    The only place a cell is run and timed: the in-process backends hand it
    live objects (it is the pool's pickled entry point), queue workers hand
    it a job's declarative scenario dict and ``module:qualname`` executor
    reference.  Materialising those happens *inside* the envelope, so a
    corrupt job or an unimportable executor is a reported failed cell like
    any other, and the error/timing record of a cell is identical no matter
    where it runs.
    """
    index, scenario, executor = payload
    started = time.perf_counter()
    try:
        if isinstance(scenario, dict):
            scenario = Scenario.from_dict(scenario)
        if isinstance(executor, str):
            executor = resolve_executor(executor)
        return index, executor(scenario), None, time.perf_counter() - started
    except Exception:
        return index, None, traceback.format_exc(limit=8), time.perf_counter() - started


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol every suite-execution backend implements."""

    #: Short name recorded in :class:`~repro.experiments.results.SuiteResult`
    #: metadata (``"serial"``, ``"pool"``, ``"work-queue"``, ...).
    name: str

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        """Yield one :data:`CellResult` per cell, in completion order, or raise."""
        ...


__all__ = [
    "CellResult",
    "CellTask",
    "ExecutionBackend",
    "Executor",
    "execute_cell",
    "resolve_executor",
]
