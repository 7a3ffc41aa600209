"""E10 -- Sensitivity to the partial-synchrony parameters (extension).

Sweeps GST and δ on the Fig. 4b workload (BFT-CUPFT, silent Byzantine) and
reports decision latency and message complexity: latency should track GST
(decisions happen shortly after stabilisation) and grow mildly with δ.

The GST × δ grid is one :class:`~repro.experiments.ScenarioMatrix` whose
synchrony axis enumerates every :class:`~repro.experiments.SynchronySpec`
combination; aggregation per GST comes from the suite's group statistics.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import GraphSpec, ScenarioMatrix, SuiteRunner, SynchronySpec

GST_SWEEP = [0.0, 25.0, 100.0, 250.0]
DELTA_SWEEP = [0.5, 1.0, 4.0]


def synchrony_matrix() -> ScenarioMatrix:
    return ScenarioMatrix(
        name="gst-delta",
        graphs=(GraphSpec.figure("fig4b"),),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        synchrony=tuple(
            SynchronySpec.partial(gst=gst, delta=delta)
            for gst in GST_SWEEP
            for delta in DELTA_SWEEP
        ),
        horizon=8_000.0,
    )


def test_partial_synchrony_sensitivity(experiment_report, suite_export):
    suite = SuiteRunner().run(synchrony_matrix().scenarios())
    suite_export("partial_synchrony", suite, group_by="synchrony")
    rows = []
    for outcome in suite:
        synchrony = outcome.scenario.synchrony.parameters()
        rows.append(
            [
                synchrony["gst"],
                synchrony["delta"],
                outcome.metric("latency"),
                outcome.metric("messages"),
                outcome.solved,
            ]
        )
    experiment_report(
        "GST / delta sensitivity (Fig. 4b workload, BFT-CUPFT)",
        render_table(["GST", "delta", "decision latency", "messages", "solved"], rows),
    )
    assert all(row[-1] for row in rows)
    # Later GST means later decisions: compare the per-GST mean latencies.
    by_gst = suite.group_stats(lambda s: s.synchrony.parameters()["gst"])
    averages = [by_gst[gst].mean_latency for gst in sorted(by_gst)]
    assert averages[0] < averages[-1]
