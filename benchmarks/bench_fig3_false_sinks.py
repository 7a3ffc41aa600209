"""E5 -- Figure 3 / Observation 1: false sinks under a wrong fault threshold.

Evaluates the exact predicate instances the paper discusses on the Fig. 3
reconstruction: with the wrong threshold ``g = 2`` the set ``{1,2,3,4,6}``
(plus the silent processes 5 and 7 through ``S2``) passes the sink test,
while with the true threshold ``f = 1`` it is rejected.  Also verifies that
system B (the indistinguishability partner with 5 and 7 faulty) still solves
consensus.

Both parts run as one suite: the executor dispatches per cell between the
pure predicate evaluation and the full consensus simulation (the ``harness``
axis label), and the suite is exported as ``BENCH_fig3_false_sinks.json``.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import GraphSpec, Scenario, SuiteRunner, execute_scenario, executor_identity
from repro.graphs.figures import figure_3a
from repro.graphs.predicates import KnowledgeView, is_sink_gdi


def _observation_instances() -> tuple[bool, bool]:
    graph = figure_3a().graph
    received = [1, 2, 3, 4, 6]
    pds = {node: graph.participant_detector(node) for node in received}
    known = set(received)
    for pd in pds.values():
        known |= pd
    view = KnowledgeView(known=frozenset(known), pds=pds)
    s1, s2 = frozenset({1, 2, 3, 4, 6}), frozenset({5, 7})
    return is_sink_gdi(view, 2, s1, s2), is_sink_gdi(view, 1, s1, s2)


@executor_identity("1")
def fig3_executor(scenario: Scenario) -> dict:
    """Dispatch on the ``harness`` axis: predicate instances vs full run."""
    if scenario.label("harness") == "predicates":
        wrong_threshold_accepts, true_threshold_accepts = _observation_instances()
        return {
            "false_sink_wrong_threshold": wrong_threshold_accepts,
            "false_sink_true_threshold": true_threshold_accepts,
        }
    return execute_scenario(scenario)


def fig3_scenarios() -> list[Scenario]:
    return [
        Scenario(
            name="fig3a[observation1]",
            graph=GraphSpec.figure("fig3a"),
            labels=(("figure", "fig3a"), ("harness", "predicates")),
        ),
        Scenario(
            name="fig3b[silent]",
            graph=GraphSpec.figure("fig3b"),
            mode=ProtocolMode.BFT_CUPFT,
            behaviour="silent",
            labels=(("figure", "fig3b"), ("harness", "consensus")),
        ),
    ]


def test_fig3_suite(experiment_report, suite_export):
    runner = SuiteRunner(executor=fig3_executor)
    suite = runner.run(fig3_scenarios())
    suite_export("fig3_false_sinks", suite, group_by="figure")
    by_name = {outcome.scenario.name: outcome for outcome in suite}

    observation = by_name["fig3a[observation1]"]
    experiment_report(
        "Fig. 3a / Observation 1: false sink instances",
        render_table(
            ["predicate", "holds"],
            [
                [
                    "isSinkGdi(2, {1,2,3,4,6}, {5,7}) (wrong threshold)",
                    observation.metric("false_sink_wrong_threshold"),
                ],
                [
                    "isSinkGdi(1, {1,2,3,4,6}, {5,7}) (true threshold)",
                    observation.metric("false_sink_true_threshold"),
                ],
            ],
        ),
    )
    assert observation.metric("false_sink_wrong_threshold") is True
    assert observation.metric("false_sink_true_threshold") is False

    partner = by_name["fig3b[silent]"]
    experiment_report(
        "Fig. 3b (processes 5 and 7 faulty, f unknown)",
        render_table(
            ["metric", "value"],
            [
                ["consensus solved", partner.solved],
                ["messages", partner.metric("messages")],
                ["decision latency (virtual time)", partner.metric("latency")],
            ],
        ),
    )
    assert partner.solved
