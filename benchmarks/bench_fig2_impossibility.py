"""E4 -- Figure 2 / Theorem 7: impossibility with an unknown fault threshold.

Replays the three executions of the indistinguishability argument (systems
A, B and AB) and reports the decisions, demonstrating the Agreement
violation the theorem predicts.

The experiment runs as a one-cell suite with a custom executor — the suite
machinery (JSON trajectory export, aggregation) is harness-agnostic — and
exports ``BENCH_fig2_impossibility.json``.
"""

from repro.analysis.impossibility import describe, run_impossibility_experiment
from repro.experiments import GraphSpec, Scenario, SuiteRunner, executor_identity


@executor_identity("1")
def impossibility_executor(scenario: Scenario) -> dict:
    """Run the three-execution argument; summarise its verdicts."""
    outcome = run_impossibility_experiment(seed=scenario.seed)
    return {
        "a_decided_v": outcome.a_decided_v,
        "b_decided_u": outcome.b_decided_u,
        "ab_agreement_violated": outcome.ab_agreement_violated,
        "demonstrates_theorem": outcome.demonstrates_theorem,
        "messages": outcome.execution_ab.messages_sent,
        "description": describe(outcome),
    }


def fig2_scenarios() -> list[Scenario]:
    # The executor drives its own three-system harness; the graph spec
    # records which figure the cell reproduces (system A is Fig. 2a).
    return [
        Scenario(
            name="fig2[theorem7]",
            graph=GraphSpec.figure("fig2a"),
            behaviour="silent",
            seed=0,
            labels=(("figure", "fig2"), ("theorem", 7)),
        )
    ]


def test_theorem7_impossibility(experiment_report, suite_export):
    runner = SuiteRunner(executor=impossibility_executor)
    suite = runner.run(fig2_scenarios())
    suite_export("fig2_impossibility", suite, group_by="figure")
    outcome = suite.outcomes[0]
    experiment_report("Fig. 2 / Theorem 7", outcome.metric("description"))
    assert outcome.ok
    assert outcome.metric("demonstrates_theorem")
