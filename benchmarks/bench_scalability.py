"""E8 -- Scalability of the protocol stack (extension; the paper reports no numbers).

Sweeps the system size and the fault threshold on generated extended k-OSR
graphs and reports message complexity, identification latency and decision
latency for both protocol modes.  The sweep is expressed as two
:class:`~repro.experiments.ScenarioMatrix` instances (one per protocol
mode, since each mode pairs with its own graph family) executed through the
:class:`~repro.experiments.SuiteRunner`.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    ScenarioMatrix,
    SuiteRunner,
    chain_matrices,
)

CUP_CELLS = [(1, 4), (1, 12)]
CUPFT_CELLS = [(1, 4)]


def scalability_scenarios():
    """Both protocol modes, each over its graph family."""
    cup = ScenarioMatrix(
        name="scalability-cup",
        graphs=tuple(
            GraphSpec.bft_cup(f=f, non_sink_size=extra, seed=f * 100 + extra)
            for f, extra in CUP_CELLS
        ),
        modes=(ProtocolMode.BFT_CUP,),
        base_seed=1,
    )
    cupft = ScenarioMatrix(
        name="scalability-cupft",
        graphs=tuple(
            GraphSpec.bft_cupft(f=f, non_core_size=extra, seed=f * 100 + extra)
            for f, extra in CUPFT_CELLS
        ),
        modes=(ProtocolMode.BFT_CUPFT,),
        base_seed=1,
    )
    return chain_matrices(cup, cupft)


def test_scalability_sweep(experiment_report, suite_export):
    suite = SuiteRunner().run(scalability_scenarios())
    suite_export("scalability", suite, group_by="mode")
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
