"""Work-queue worker: ``python -m repro.experiments.worker --queue DIR``.

A worker is a standalone process that drains a
:class:`~repro.experiments.backends.queue.WorkQueue`: it claims jobs,
materialises the declarative scenario *inside its own process*, runs the
job's executor and journals the outcome.  Launch as many as you like — by
hand, from cron, or from a cluster scheduler; the queue's claiming makes
them cooperate without any coordination channel.  Two transports share one
CLI and one loop (:func:`drain`):

* ``--queue DIR`` — drain a queue directory directly (local or on a shared
  filesystem): atomic-rename claims, per-worker JSONL outcome shards.
* ``--connect HOST:PORT`` — drain the same queue through a
  :class:`~repro.experiments.backends.remote.QueueServer` over TCP, for
  workers *without* access to the coordinator's filesystem.  Each finished
  cell's outcome is uploaded at once in one replay-safe ``report`` request
  and journaled by the server.

Workers heartbeat continuously in both modes, so a coordinator (or a
fellow worker) can reclaim the claims of a worker that died mid-cell once
its lease expires.  A worker only executes: the coordinator's
``SuiteRunner.run(store=...)`` checks its cache before enqueuing and stores
each outcome it collects.

Examples
--------
Drain a queue directory, lingering 10 idle seconds (the default)::

    PYTHONPATH=src python -m repro.experiments.worker --queue sweep-queue

Join a networked sweep from another machine, as a "warm" worker that keeps
waiting for new jobs for up to an hour::

    PYTHONPATH=src python -m repro.experiments.worker --connect coordinator:7341 --idle-timeout 3600
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import threading
import time  # lint: allow-file[DET-SEED-CLOCK] operational timing: the idle deadline is wall-clock by design

from repro.experiments.backends.base import execute_cell
from repro.experiments.backends.queue import QueueWorker
from repro.experiments.backends.remote import RemoteQueueClient


def default_worker_id() -> str:
    """A host- and process-unique worker id."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _graceful_terminate(signum: int, frame: object) -> None:
    raise SystemExit(143)


def drain(queue: QueueWorker | RemoteQueueClient, *, idle_timeout: float = 10.0) -> int:
    """Claim and execute jobs until idle for ``idle_timeout``; return the job count.

    The one claim → execute → report loop, written against the worker-side
    surface the directory :class:`~repro.experiments.backends.queue.QueueWorker`
    and the TCP :class:`~repro.experiments.backends.remote.RemoteQueueClient`
    share; it never asks which transport it is draining.

    The worker exits after ``idle_timeout`` seconds without claiming a job,
    so a large ``idle_timeout`` makes a "warm" worker that keeps waiting for
    new work, and the default makes it linger briefly past the last job.

    A background thread heartbeats every ``queue.heartbeat_interval``,
    *including while a cell is executing* — a claim is therefore only
    reclaimed when the worker process actually died, not merely because one
    cell ran longer than the lease.
    """
    executed = 0
    stop_heartbeat = threading.Event()

    def _heartbeat_loop() -> None:
        while not stop_heartbeat.wait(queue.heartbeat_interval):
            queue.heartbeat()

    heartbeat_thread = threading.Thread(target=_heartbeat_loop, daemon=True)
    heartbeat_thread.start()
    try:
        idle_since = time.monotonic()
        while True:
            job = queue.claim()
            if job is None:
                if time.monotonic() - idle_since > idle_timeout:
                    break
                queue.idle()
                continue
            _index, summary, error, wall_time = execute_cell(
                (job["index"], job["scenario"], job["executor"])
            )
            queue.report(job, summary=summary, error=error, wall_time=wall_time)
            executed += 1
            idle_since = time.monotonic()
    finally:
        stop_heartbeat.set()
        heartbeat_thread.join(timeout=1.0)
        queue.close()
    return executed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.worker",
        description="Drain one work queue of experiment cells (directory or TCP).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--queue", help="work-queue directory to drain")
    source.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drain a queue served over TCP by a QueueServer instead of a directory",
    )
    parser.add_argument("--worker-id", default=None, help="unique worker id (default: host-pid)")
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=10.0,
        help="exit after this many idle seconds (default: 10)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.1, help="seconds between idle polls (default: 0.1)"
    )
    parser.add_argument(
        "--lease",
        type=float,
        default=60.0,
        help="reclaim claims whose worker heartbeat is older than this (default: 60; "
        "directory mode only — over TCP the coordinator enforces leases)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=5.0,
        help="TCP mode: seconds between heartbeats (default: 5)",
    )
    parser.add_argument(
        "--retry-window",
        type=float,
        default=60.0,
        help="TCP mode: keep reconnecting to an unreachable server for this long (default: 60)",
    )
    parser.add_argument(
        "--mode",
        choices=("claim", "push"),
        default="claim",
        help="TCP mode: 'claim' polls for jobs; 'push' long-polls and piggybacks "
        "the next claim on every report (default: claim)",
    )
    parser.add_argument(
        "--claim-wait",
        type=float,
        default=5.0,
        help="TCP push mode: seconds an idle claim long-polls server-side (default: 5)",
    )
    parser.add_argument(
        "--compress-min",
        type=int,
        default=None,
        metavar="BYTES",
        help="TCP mode: request zlib compression for frames at least this large "
        "(default: uncompressed)",
    )
    options = parser.parse_args(argv)
    # A coordinator tearing a sweep down terminates its workers; turning
    # SIGTERM into SystemExit lets the drain loop run its cleanup: stop the
    # heartbeat thread and close the queue connection.
    try:
        signal.signal(signal.SIGTERM, _graceful_terminate)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    worker_id = options.worker_id or default_worker_id()
    queue: QueueWorker | RemoteQueueClient
    if options.connect:
        queue = RemoteQueueClient(
            options.connect,
            worker_id,
            retry_window=options.retry_window,
            compress_min=options.compress_min,
            mode=options.mode,
            claim_wait=options.claim_wait,
            poll_interval=options.poll_interval,
            heartbeat_interval=options.heartbeat_interval,
        )
    else:
        queue = QueueWorker(
            options.queue,
            worker_id,
            lease=options.lease,
            poll_interval=options.poll_interval,
        )
    executed = drain(queue, idle_timeout=options.idle_timeout)
    print(f"worker {worker_id}: executed {executed} jobs")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())


__all__ = ["default_worker_id", "drain", "main"]
