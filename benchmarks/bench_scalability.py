"""E8 -- Scalability of the protocol stack (extension; the paper reports no numbers).

Sweeps the system size and the fault threshold on generated extended k-OSR
graphs and reports message complexity, identification latency and decision
latency for both protocol modes.  The sweep is expressed as two
:class:`~repro.experiments.ScenarioMatrix` instances (one per protocol
mode, since each mode pairs with its own graph family) executed through the
:class:`~repro.experiments.SuiteRunner`.

Set ``BENCH_QUICK=1`` to shrink the sweep to a CI-sized smoke run.
"""

import os

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    ScenarioMatrix,
    SuiteRunner,
    chain_matrices,
)

QUICK = os.environ.get("BENCH_QUICK") == "1"

CUP_CELLS = [(1, 4), (1, 12), (2, 8)] if not QUICK else [(1, 4), (1, 12)]
CUPFT_CELLS = [(1, 4), (1, 12), (2, 8), (3, 8)] if not QUICK else [(1, 4)]
REPLICATES = 1 if QUICK else 2


def scalability_scenarios():
    """The full sweep: both protocol modes, each over its graph family."""
    cup = ScenarioMatrix(
        name="scalability-cup",
        graphs=tuple(
            GraphSpec.bft_cup(f=f, non_sink_size=extra, seed=f * 100 + extra)
            for f, extra in CUP_CELLS
        ),
        modes=(ProtocolMode.BFT_CUP,),
        replicates=REPLICATES,
        base_seed=1,
    )
    cupft = ScenarioMatrix(
        name="scalability-cupft",
        graphs=tuple(
            GraphSpec.bft_cupft(f=f, non_core_size=extra, seed=f * 100 + extra)
            for f, extra in CUPFT_CELLS
        ),
        modes=(ProtocolMode.BFT_CUPFT,),
        replicates=REPLICATES,
        base_seed=1,
    )
    return chain_matrices(cup, cupft)


def _sweep():
    return SuiteRunner().run(scalability_scenarios())


def test_scalability_sweep(benchmark, experiment_report, suite_export):
    suite = benchmark.pedantic(_sweep, iterations=1, rounds=1)
    suite_export("scalability", suite, group_by="mode", extra={"quick": QUICK})
    rows = []
    for outcome in suite:
        rows.append(
            [
                outcome.scenario.mode.value,
                outcome.scenario.graph.parameters()["f"],
                outcome.metric("correct") + outcome.metric("faulty"),
                outcome.metric("messages"),
                outcome.metric("identification_latency"),
                outcome.metric("latency"),
                outcome.solved,
            ]
        )
    experiment_report(
        "Scalability sweep (generated graphs, silent Byzantine processes)",
        render_table(
            ["protocol", "f", "n", "messages", "identify latency", "decide latency", "solved"],
            rows,
        )
        + "\n"
        + suite.render(group_by="mode", title="Aggregates per protocol mode"),
    )
    assert all(row[-1] for row in rows)
    # Message complexity grows with the system size within each protocol mode.
    cup_rows = [row for row in rows if row[0] == "bft-cup" and row[1] == 1]
    assert cup_rows[0][3] < cup_rows[-1][3]
