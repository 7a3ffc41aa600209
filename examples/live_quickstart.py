"""Quickstart for the live asyncio runtime: same protocol, real sockets.

The protocol stack from :mod:`examples.quickstart` runs unmodified here —
the handlers never see the difference — but every process is now an asyncio
task behind its own localhost TCP server, messages cross real sockets as
length-prefixed JSON frames, and timers fire on the wall clock (scaled by
``time_scale`` wall seconds per protocol time unit).

Part 1 solves consensus on Fig. 4b over sockets and prints the socket-level
counters next to the protocol outcome.  Part 2 demonstrates the fidelity
gate: the same configuration is run under the deterministic simulator and
the live runtime, and the decisions are compared — the guarantee the
``live-runtime-smoke`` CI job enforces.

Run with::

    python examples/live_quickstart.py
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.graphs.figures import figure_4b
from repro.runtime import check_fidelity, run_live_consensus
from repro.workloads import graph_run_config

TIME_SCALE = 0.01  # wall seconds per protocol time unit


def live_single_run() -> None:
    scenario = figure_4b()
    print(f"Scenario: {scenario.description}\n")

    config = graph_run_config(
        scenario,
        mode=ProtocolMode.BFT_CUP,
        behaviour="silent",
        proposals={pid: f"block-from-{pid}" for pid in scenario.graph.processes},
    )
    result = run_live_consensus(config, time_scale=TIME_SCALE)

    rows = []
    for process in sorted(result.correct):
        rows.append(
            [
                process,
                "member" if process in result.identified.get(process, frozenset()) else "non-member",
                result.decisions.get(process),
                f"{result.decision_times.get(process, float('nan')):.1f}",
            ]
        )
    print(
        render_table(
            ["process", "role", "decision", "decided at (protocol time)"],
            rows,
            title="Per-process outcome (live runtime)",
        )
    )
    summary = result.summary()
    print()
    print(f"Consensus solved: {result.consensus_solved} (runtime: {result.runtime_name})")
    print(f"  frames sent:      {summary['live_messages_sent']}")
    print(f"  frames received:  {summary['live_messages_received']}")
    print(f"  timer fires:      {summary['live_timer_fires']}")
    print(f"  decide wall time: {summary['live_decide_wall_seconds']:.3f}s")
    print(f"  total wall time:  {summary['live_wall_seconds']:.3f}s")


def fidelity_gate() -> None:
    # The live runtime is only trustworthy if it computes the same answer
    # as the simulator; check_fidelity runs both and compares.
    config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP, behaviour="crash")
    report = check_fidelity(config, time_scale=TIME_SCALE)
    print("\nFidelity gate (same config, both runtimes, crash adversary):")
    print(report.describe())
    print(f"fidelity ok: {report.ok}")


def main() -> None:
    live_single_run()
    fidelity_gate()


if __name__ == "__main__":
    main()
