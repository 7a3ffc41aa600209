"""E9 -- Large-n engine throughput (extension; the paper reports no numbers).

Runs the full BFT-CUP stack on generated extended k-OSR graphs of 100 and
200 processes and reports message totals, identification latency, decision
latency and the engine diagnostics (events, pending-event peak) per system
size, under both a synchronous and a partially synchronous network.

The sweep exists to pin the engine's scaling behaviour: message complexity
must stay linear in the system size (the graphs keep ``f`` fixed, so each
process exchanges O(f) discovery and query messages per round).  The graphs
are generated with ``extra_edge_probability=0.0`` so graph construction itself
is linear.  The wall time of one n=5,000 run is measured by
``perf/run.py --workload cup_large_partial``.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    ScenarioMatrix,
    SuiteRunner,
)
from repro.experiments.scenario import SynchronySpec

#: Correct non-sink layer sizes; the system size is ``non_sink + 4`` here
#: (sink of ``2f + 1 = 3`` plus one Byzantine process at ``f = 1``).
NON_SINK_SIZES = [96, 196]

#: Per-process message budget asserted below: discovery, sink queries and
#: decided-value queries are all O(f) per process per round, and the round
#: count is bounded by the synchrony model, not by n.
MESSAGES_PER_PROCESS_BOUND = 120


def _system_size(scenario) -> int:
    return dict(scenario.graph.params)["non_sink_size"] + 4


def large_n_scenarios():
    return ScenarioMatrix(
        name="large-n",
        graphs=tuple(
            GraphSpec.bft_cup(
                f=1, non_sink_size=size, extra_edge_probability=0.0, seed=7
            )
            for size in NON_SINK_SIZES
        ),
        modes=(ProtocolMode.BFT_CUP,),
        synchrony=(SynchronySpec.synchronous(), SynchronySpec(kind="partial")),
        replicates=1,
        base_seed=9,
    ).scenarios()


def test_large_n_sweep(experiment_report, suite_export):
    suite = SuiteRunner().run(large_n_scenarios())
    suite_export("large_n", suite, group_by=_system_size)
    rows = []
    for outcome in suite:
        rows.append(
            [
                _system_size(outcome.scenario),
                outcome.scenario.label("synchrony"),
                outcome.metric("messages"),
                outcome.metric("events"),
                outcome.metric("pending_peak"),
                outcome.metric("identification_latency"),
                outcome.metric("latency"),
                outcome.solved,
            ]
        )
    experiment_report(
        "Large-n scaling (BFT-CUP, f=1, silent Byzantine process)",
        render_table(
            ["n", "synchrony", "messages", "events", "peak", "identify lat", "decide lat", "solved"],
            rows,
        )
        + "\n"
        + suite.render(group_by=_system_size, title="Aggregates per system size"),
    )
    assert all(row[-1] for row in rows)
    # Message complexity is linear in n: within each synchrony model the
    # totals grow with the system size but stay within a constant
    # per-process budget.
    for synchrony in {row[1] for row in rows}:
        model_rows = sorted(row for row in rows if row[1] == synchrony)
        for smaller, larger in zip(model_rows, model_rows[1:]):
            assert smaller[2] < larger[2]
        for row in model_rows:
            assert row[2] <= MESSAGES_PER_PROCESS_BOUND * row[0]
