"""In-process backends: serial execution and the local process pool.

The serial backend executes cells in suite order; the pool backend submits
each to a :class:`~concurrent.futures.ProcessPoolExecutor` and yields them
through ``as_completed`` as workers finish.  A dead worker breaks the
executor, so the next result raises ``BrokenProcessPool`` out of
:meth:`~repro.experiments.runner.SuiteRunner.run` instead of leaving the
sweep waiting forever.  Both are generators: when the runner raises
(fail-fast), closing the generator shuts the pool down with
``cancel_futures=True``, which cancels every cell not yet handed to a
worker and waits for the ones already handed over (at most ``processes``
running, plus the one call the executor queues ahead).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.experiments.backends.base import CellResult, CellTask, Executor, execute_cell


class SerialBackend:
    """Execute every cell in-process, in suite order."""

    name = "serial"
    processes = 1

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        for index, scenario in cells:
            yield execute_cell((index, scenario, executor))


class PoolBackend:
    """Fan cells out over a local ``ProcessPoolExecutor`` of ``processes`` workers."""

    name = "pool"

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        pool = ProcessPoolExecutor(max_workers=self.processes)
        try:
            futures = [pool.submit(execute_cell, (index, scenario, executor)) for index, scenario in cells]
            for future in as_completed(futures):
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


__all__ = ["PoolBackend", "SerialBackend"]
