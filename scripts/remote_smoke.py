"""Network-transport smoke check: 2 TCP workers, one killed mid-suite.

This is the CI guard for the networked execution path: it runs one small
:class:`~repro.experiments.ScenarioMatrix` three ways —

1. serially in-process (the baseline),
2. through a :class:`~repro.experiments.RemoteWorkQueueBackend`: a TCP
   :class:`~repro.experiments.QueueServer` embedded in the coordinator and
   two spawned ``--connect`` worker processes, one of which is SIGKILLed
   after the first couple of cells (its claims must be lease-reclaimed and
   re-executed by the survivor),
3. a second coordinator pass over the *same* queue directory with no
   workers at all (everything must be stitched from the journaled outcome
   shards — the killed-and-resumed path),
4. through the same backend in server-push mode with zlib frame
   compression negotiated: workers long-poll their claims and each report
   piggybacks the next one, over a compressed wire

— and exits non-zero unless (2), (3) and (4) match (1) exactly: identical
per-scenario summaries *and* identical ``cell_digest`` sequences, in
scenario order.  That is the bit-identical-across-transports guarantee —
the transport rhythm (claim vs push) and the frame encoding (plain vs
deflated) must never leak into results.

Run with::

    PYTHONPATH=src python scripts/remote_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import (  # noqa: E402
    GraphSpec,
    RemoteWorkQueueBackend,
    ScenarioMatrix,
    SuiteRunner,
)


def digests(suite) -> list[str]:
    return [outcome.scenario.cell_digest() for outcome in suite]


def main() -> int:
    matrix = ScenarioMatrix(
        name="remote-smoke",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        behaviours=("silent", "lying_pd"),
        replicates=2,
        base_seed=41,
    )
    cells = matrix.scenarios()

    serial = SuiteRunner().run(cells)
    print(f"serial: {len(serial)} cells in {serial.wall_time:.2f}s, solved {serial.solved_rate:.2f}")

    with tempfile.TemporaryDirectory(prefix="remote-smoke-") as tmp:
        queue_dir = Path(tmp) / "queue"
        backend = RemoteWorkQueueBackend(
            queue_dir,
            workers=2,
            poll_interval=0.05,
            lease=2.0,
            idle_timeout=20.0,
            timeout=300.0,
        )

        # Chaos: SIGKILL one TCP worker once the sweep is demonstrably under
        # way.  Its in-flight claim must be lease-reclaimed and re-executed by
        # the survivor.
        sweep_under_way = threading.Event()

        def on_progress(completed: int, total: int, outcome) -> None:
            if completed >= 2:
                sweep_under_way.set()

        def kill_one_worker() -> None:
            if not sweep_under_way.wait(timeout=240.0):
                return
            if backend.procs:
                backend.procs[0].kill()
                print("chaos: killed TCP worker 0 mid-suite")

        killer = threading.Thread(target=kill_one_worker, daemon=True)
        killer.start()
        sharded = SuiteRunner(backend=backend, progress=on_progress).run(cells)
        killer.join(timeout=5.0)
        print(
            f"remote-queue (2 TCP workers, one killed): {len(sharded)} cells in "
            f"{sharded.wall_time:.2f}s"
        )
        if sharded.summaries() != serial.summaries():
            print("FAIL: remote-queue summaries diverge from serial", file=sys.stderr)
            return 1
        if digests(sharded) != digests(serial):
            print("FAIL: remote-queue cell digests diverge from serial", file=sys.stderr)
            return 1

        # Resume path: a fresh coordinator over the same directory, zero
        # workers — every outcome must come from the journaled shards.
        resumed = SuiteRunner(
            backend=RemoteWorkQueueBackend(queue_dir, workers=0, poll_interval=0.05, timeout=60.0)
        ).run(cells)
        print(f"resume from queue dir: {len(resumed)} cells in {resumed.wall_time:.2f}s")
        if resumed.summaries() != serial.summaries():
            print("FAIL: resumed summaries diverge from serial", file=sys.stderr)
            return 1
        if digests(resumed) != digests(serial):
            print("FAIL: resumed cell digests diverge from serial", file=sys.stderr)
            return 1

        # Server-push mode over a compressed wire: workers long-poll and
        # every report piggybacks the next claim; frames >= 1 KiB travel
        # zlib-deflated.  Neither may change a single byte of the results.
        pushed = SuiteRunner(
            backend=RemoteWorkQueueBackend(
                Path(tmp) / "queue-push",
                workers=2,
                poll_interval=0.05,
                lease=2.0,
                idle_timeout=20.0,
                timeout=300.0,
                push=True,
                claim_wait=1.0,
                compress_min=1024,
            )
        ).run(cells)
        print(
            f"remote-queue (server-push, compressed wire): {len(pushed)} cells in "
            f"{pushed.wall_time:.2f}s"
        )
        if pushed.summaries() != serial.summaries():
            print("FAIL: server-push summaries diverge from serial", file=sys.stderr)
            return 1
        if digests(pushed) != digests(serial):
            print("FAIL: server-push cell digests diverge from serial", file=sys.stderr)
            return 1

    print(
        "OK: TCP-sharded (with a worker killed), resumed, and server-push/compressed "
        "results all match the serial baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
