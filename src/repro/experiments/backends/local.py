"""In-process backends: serial execution and the local multiprocessing pool.

Both implement :class:`~repro.experiments.backends.base.ExecutionBackend`:
the serial backend executes cells in suite order, the pool backend fans
them out over ``imap_unordered`` and yields results as workers finish.

Both are generators, so fail-fast works for free: when the runner raises
while consuming the iterator, the generator is closed and the ``with``
block around the pool terminates the workers.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterator, Sequence

from repro.experiments.backends.base import CellResult, CellTask, Executor, execute_cell


class SerialBackend:
    """Execute every cell in-process, in suite order."""

    name = "serial"
    processes = 1

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        for index, scenario in cells:
            yield execute_cell((index, scenario, executor))


class PoolBackend:
    """Fan cells out over a local ``multiprocessing.Pool``."""

    name = "pool"

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        payloads = [(index, scenario, executor) for index, scenario in cells]
        with multiprocessing.Pool(processes=self.processes) as pool:
            yield from pool.imap_unordered(execute_cell, payloads)


__all__ = ["PoolBackend", "SerialBackend"]
