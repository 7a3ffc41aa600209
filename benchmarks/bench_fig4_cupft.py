"""E6 -- Figure 4: solving consensus in the BFT-CUPFT model (unknown f).

Runs the BFT-CUPFT protocol on both Fig. 4 reconstructions under several
Byzantine behaviours and reports the identified core, the fault-threshold
estimate and the consensus outcome — as one six-cell suite exported to
``BENCH_fig4_cupft.json``.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import GraphSpec, Scenario, SuiteRunner, executor_identity
from repro.graphs.figures import paper_figures
from repro.workloads.builders import scenario_run_config

FIGURES = ("fig4a", "fig4b")
BEHAVIOURS = ("silent", "lying_pd", "wrong_value")


@executor_identity("1")
def fig4_executor(scenario: Scenario) -> dict:
    """Default summary, extended with core identification and f estimates."""
    from repro.analysis.harness import run_consensus

    result = run_consensus(scenario_run_config(scenario))
    summary = result.summary()
    summary["identified"] = sorted(next(iter(result.identified.values()), frozenset()))
    summary["distinct_identified"] = len(set(result.identified.values()))
    summary["fault_estimates"] = sorted(
        {e for e in result.estimated_fault_thresholds.values() if e is not None}
    )
    return summary


def fig4_scenarios() -> list[Scenario]:
    return [
        Scenario(
            name=f"{figure}[{behaviour}]",
            graph=GraphSpec.figure(figure),
            mode=ProtocolMode.BFT_CUPFT,
            behaviour=behaviour,
            labels=(("figure", figure), ("behaviour", behaviour)),
        )
        for figure in FIGURES
        for behaviour in BEHAVIOURS
    ]


def test_fig4_consensus_without_fault_threshold(experiment_report, suite_export):
    runner = SuiteRunner(executor=fig4_executor)
    suite = runner.run(fig4_scenarios())
    suite_export("fig4_cupft", suite, group_by="figure")

    true_faulty = {name: len(paper_figures()[name].faulty) for name in FIGURES}
    for outcome in suite:
        name = outcome.scenario.label("figure")
        behaviour = outcome.scenario.label("behaviour")
        experiment_report(
            f"Fig. 4 ({name}, {behaviour})",
            render_table(
                ["metric", "value"],
                [
                    ["Byzantine behaviour", behaviour],
                    ["core returned by every correct process", outcome.metric("identified")],
                    ["fault-threshold estimate f_Gdi", outcome.metric("fault_estimates")],
                    ["true Byzantine count", true_faulty[name]],
                    [
                        "agreement / termination",
                        f"{outcome.metric('agreement')} / {outcome.metric('terminated')}",
                    ],
                    ["messages", outcome.metric("messages")],
                    ["decision latency (virtual time)", outcome.metric("latency")],
                ],
            ),
        )
        assert outcome.solved
        assert outcome.metric("distinct_identified") == 1
