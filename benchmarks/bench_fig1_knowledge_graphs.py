"""E2/E3 -- Figure 1: the motivating knowledge connectivity graphs.

* Fig. 1a: the graph violates the BFT-CUP requirements; with process 4
  silent the two halves of the system identify different sinks and decide
  different values (consensus unsolvable, as the caption argues).
* Fig. 1b: the graph satisfies the requirements for ``f = 1``; consensus is
  solved despite the Byzantine process, under several behaviours.

The four executions run as one declarative suite through
:class:`~repro.experiments.SuiteRunner`, and the whole suite is exported as
``BENCH_fig1_knowledge_graphs.json`` — the same uniform trajectory shape as
every other benchmark.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import GraphSpec, Scenario, SuiteRunner, executor_identity
from repro.workloads.builders import scenario_run_config

BEHAVIOURS = ("silent", "lying_pd", "wrong_value")


@executor_identity("1")
def fig1_executor(scenario: Scenario) -> dict:
    """Default summary, extended with the identification details Fig. 1 discusses."""
    from repro.analysis.harness import run_consensus

    result = run_consensus(scenario_run_config(scenario))
    summary = result.summary()
    summary["identification_agreement"] = result.properties.identification_agreement
    summary["identified"] = sorted(next(iter(result.identified.values()), frozenset()))
    summary["distinct_identified"] = len(set(result.identified.values()))
    return summary


def fig1_scenarios() -> list[Scenario]:
    cells = [
        Scenario(
            name="fig1a[silent]",
            graph=GraphSpec.figure("fig1a"),
            mode=ProtocolMode.BFT_CUP,
            behaviour="silent",
            labels=(("figure", "fig1a"), ("behaviour", "silent")),
        )
    ]
    cells.extend(
        Scenario(
            name=f"fig1b[{behaviour}]",
            graph=GraphSpec.figure("fig1b"),
            mode=ProtocolMode.BFT_CUP,
            behaviour=behaviour,
            labels=(("figure", "fig1b"), ("behaviour", behaviour)),
        )
        for behaviour in BEHAVIOURS
    )
    return cells


def test_fig1_suite(experiment_report, suite_export):
    cells = fig1_scenarios()
    runner = SuiteRunner(executor=fig1_executor)
    suite = runner.run(cells)
    suite_export("fig1_knowledge_graphs", suite, group_by="figure")

    by_name = {outcome.scenario.name: outcome for outcome in suite}

    fig1a = by_name["fig1a[silent]"]
    experiment_report(
        "Fig. 1a (silent process 4): consensus fails",
        render_table(
            ["metric", "value"],
            [
                ["graph satisfies Theorem 1", False],
                ["identification agreement", fig1a.metric("identification_agreement")],
                ["agreement", fig1a.metric("agreement")],
                ["distinct decided values", fig1a.metric("distinct_decisions")],
                ["messages", fig1a.metric("messages")],
            ],
        ),
    )
    assert not fig1a.metric("agreement")

    for behaviour in BEHAVIOURS:
        outcome = by_name[f"fig1b[{behaviour}]"]
        experiment_report(
            f"Fig. 1b ({behaviour} process 4): consensus solved",
            render_table(
                ["metric", "value"],
                [
                    ["Byzantine behaviour", behaviour],
                    ["sink returned by every correct process", outcome.metric("identified")],
                    ["agreement", outcome.metric("agreement")],
                    ["termination", outcome.metric("terminated")],
                    ["messages", outcome.metric("messages")],
                    ["decision latency (virtual time)", outcome.metric("latency")],
                ],
            ),
        )
        assert outcome.solved
