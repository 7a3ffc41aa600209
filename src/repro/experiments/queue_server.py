"""Standalone queue server: ``python -m repro.experiments.queue_server``.

Serves one work-queue directory over TCP so workers on machines *without*
access to the coordinator's filesystem can drain it with ``python -m
repro.experiments.worker --connect host:port``.  All durable state stays in
the queue directory, so the server can be restarted freely (workers
reconnect and re-send the unacknowledged upload), and a coordinator collecting
from the same directory — e.g. ``WorkQueueBackend(root, workers=0)`` —
needs no changes to consume remotely executed outcomes.

Examples
--------
Serve an existing queue directory on a fixed port::

    PYTHONPATH=src python -m repro.experiments.queue_server --queue sweep-queue --port 7341

Then, from any machine that can reach it::

    PYTHONPATH=src python -m repro.experiments.worker --connect coordinator:7341
"""

from __future__ import annotations

import argparse
import time

from repro.experiments.backends.remote import QueueServer, format_address


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.queue_server",
        description="Serve one work-queue directory to TCP workers.",
    )
    parser.add_argument("--queue", required=True, help="work-queue directory to serve")
    parser.add_argument("--host", default="0.0.0.0", help="bind address (default: all interfaces)")
    parser.add_argument("--port", type=int, default=0, help="bind port (default: ephemeral)")
    parser.add_argument(
        "--lease",
        type=float,
        default=60.0,
        help="reclaim claims whose worker heartbeat is older than this (default: 60)",
    )
    options = parser.parse_args(argv)
    server = QueueServer(
        options.queue,
        host=options.host,
        port=options.port,
        lease=options.lease,
        # Standalone servers own reclamation (there may be no coordinator
        # polling the directory while workers drain it).
        reclaim_interval=max(options.lease / 4.0, 0.5),
    )
    server.start()
    assert server.address is not None
    print(f"serving {options.queue} on {format_address(server.address)}", flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())


__all__ = ["main"]
