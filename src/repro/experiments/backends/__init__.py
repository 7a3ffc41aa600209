"""Pluggable execution backends for the suite runner.

* :mod:`repro.experiments.backends.base` -- the :class:`ExecutionBackend`
  protocol and :func:`execute_cell`, the one envelope every cell is run and
  timed in (in-process, in a pool child or in a queue worker);
* :mod:`repro.experiments.backends.local` -- :class:`SerialBackend` and
  :class:`PoolBackend`, the in-process paths extracted from the runner;
* :mod:`repro.experiments.backends.queue` -- :class:`WorkQueueBackend` and
  the filesystem :class:`WorkQueue` it coordinates (atomic-rename claiming,
  JSONL outcome shards, heartbeat + lease reclamation), plus
  :class:`QueueWorker`, one worker's side of a queue directory;
* :mod:`repro.experiments.backends.transport` -- length-prefixed JSON
  framing shared by the TCP server and client;
* :mod:`repro.experiments.backends.remote` -- :class:`QueueServer`,
  :class:`RemoteQueueClient` and :class:`RemoteWorkQueueBackend`, serving
  the same queue protocol over TCP with one replay-safe outcome upload
  per cell.

Queue workers of either transport run the single
:func:`repro.experiments.worker.drain` loop.
"""

from repro.experiments.backends.base import (
    CellResult,
    CellTask,
    ExecutionBackend,
    Executor,
    execute_cell,
    resolve_executor,
)
from repro.experiments.backends.local import PoolBackend, SerialBackend
from repro.experiments.backends.queue import (
    QueueWorker,
    WorkQueue,
    WorkQueueBackend,
    WorkQueueError,
    executor_reference,
)
from repro.experiments.backends.remote import (
    QueueServer,
    RemoteQueueClient,
    RemoteQueueError,
    RemoteWorkQueueBackend,
)
from repro.experiments.backends.transport import (
    FrameTooLargeError,
    TransportError,
    TruncatedFrameError,
    read_frame,
    write_frame,
)

__all__ = [
    "CellResult",
    "CellTask",
    "ExecutionBackend",
    "Executor",
    "execute_cell",
    "SerialBackend",
    "PoolBackend",
    "QueueWorker",
    "WorkQueue",
    "WorkQueueBackend",
    "WorkQueueError",
    "executor_reference",
    "resolve_executor",
    "QueueServer",
    "RemoteQueueClient",
    "RemoteQueueError",
    "RemoteWorkQueueBackend",
    "TransportError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "read_frame",
    "write_frame",
]
