"""Live-runtime smoke check: sim-vs-live fidelity on localhost sockets.

This is the CI guard for the live asyncio runtime: it runs three scenarios
under both the deterministic simulator and the socket-backed
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` —

1. fig-4b, benign (silent faulty process),
2. fig-4b under a scheduled network partition that splits the sink from
   part of the non-sink layer for the first 10 protocol-time units,
3. a generated Theorem-1 graph with f=1 and a crash-faulty process

— and exits non-zero unless every run decides the *same values*, identifies
the *same membership* and satisfies the *same consensus properties* on both
runtimes, and unless every live run opens at most one connection per process
(the runtime keys its outbound links by receiver).  A hard ``signal.alarm``
bounds the whole script so a wedged event loop fails the job instead of
hanging it.

Run with::

    PYTHONPATH=src python scripts/live_smoke.py
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.adversary.schedule import NetworkSchedule, PartitionRule  # noqa: E402
from repro.graphs.figures import figure_4b  # noqa: E402
from repro.graphs.generators import generate_bft_cup_graph  # noqa: E402
from repro.runtime.fidelity import check_fidelity  # noqa: E402
from repro.workloads.builders import figure_run_config, generated_run_config  # noqa: E402

HARD_TIMEOUT_SECONDS = 120
TIME_SCALE = 0.01


def _scenarios():
    yield "fig4b benign", figure_run_config(figure_4b())
    partition = NetworkSchedule(
        rules=(
            PartitionRule(
                groups=(frozenset({1, 2, 3}), frozenset({5, 6, 7, 8})),
                t_from=0.0,
                t_to=10.0,
                heal_delay=0.5,
            ),
        ),
        name="early-split",
    )
    yield "fig4b partition", figure_run_config(figure_4b(), schedule=partition)
    generated = generate_bft_cup_graph(f=1, non_sink_size=3, seed=5)
    yield "generated f=1 crash", generated_run_config(generated, behaviour="crash")


def _on_alarm(signum, frame):  # pragma: no cover - only fires on a hang
    print(f"TIMEOUT: live smoke exceeded {HARD_TIMEOUT_SECONDS}s", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_TIMEOUT_SECONDS)
    failures = 0
    for name, config in _scenarios():
        report = check_fidelity(config, time_scale=TIME_SCALE)
        live = report.live.summary()
        connections = report.live.live.connections
        processes = len(config.graph)
        too_many_links = connections > processes
        status = "ok" if report.ok and report.live.consensus_solved and not too_many_links else "FAIL"
        print(
            f"[{status}] {name}: solved={report.live.consensus_solved} "
            f"frames={live['live_messages_sent']} "
            f"connections={connections} (processes={processes}) "
            f"decide_wall={live['live_decide_wall_seconds']}"
        )
        if status == "FAIL":
            failures += 1
            if too_many_links:
                print(f"{name}: {connections} connections for {processes} processes", file=sys.stderr)
            print(report.describe(), file=sys.stderr)
    if failures:
        print(f"{failures} fidelity failure(s)", file=sys.stderr)
        return 1
    print("live smoke: all scenarios match the simulator")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
