"""E9 -- Ablations of the design choices documented in DESIGN.md ("P3", "P5").

* P3 interpretation: the literal reading (``strict_p3``) rejects the paper's
  own Fig. 1b worked example; the S2-excluding reading accepts it.
* P5 (``|S2| <= f``): disabling the bound lets degenerate g=0 splits declare
  almost any strongly connected set a sink (counted on Fig. 4b).
* Quorum rule for the inner consensus: the paper's ``⌈(n+f+1)/2⌉`` vs the
  classic ``2f+1``.

The graph-side ablations read the figures directly (the P5 one through the
safe view of a :class:`~repro.graphs.StaticOracle`); the quorum ablation
runs as declarative :class:`~repro.experiments.Scenario` cells with
``protocol_options``.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.core.config import QuorumRule
from repro.experiments import GraphSpec, Scenario, SuiteRunner
from repro.graphs import StaticOracle
from repro.graphs.figures import figure_1b, figure_4b
from repro.graphs.predicates import KnowledgeView, is_sink_gdi
from repro.graphs.sink_search import SearchOptions, find_all_sinks


def _p3_rows():
    graph = figure_1b().graph
    pds = {
        1: graph.participant_detector(1),
        3: graph.participant_detector(3),
        4: frozenset({1, 2, 3}),
    }
    view = KnowledgeView(known=frozenset({1, 2, 3, 4}), pds=pds)
    return [
        ["P3 over known \\ (S1 ∪ S2) (ours)", is_sink_gdi(view, 1, {1, 3, 4}, {2})],
        ["P3 over known \\ S1 (literal)", is_sink_gdi(view, 1, {1, 3, 4}, {2}, strict_p3=True)],
    ]


def _p5_rows():
    scenario = figure_4b()
    safe_view = StaticOracle(scenario.graph, scenario.faulty).safe_view
    with_bound = find_all_sinks(safe_view, SearchOptions(bound_s2=True))
    without_bound = find_all_sinks(safe_view, SearchOptions(bound_s2=False))
    return [
        ["sinks found with |S2| <= f (ours)", len(with_bound)],
        ["sinks found without the bound", len(without_bound)],
    ]


def test_predicate_interpretation_ablation(benchmark, experiment_report):
    p3_rows, p5_rows = benchmark.pedantic(lambda: (_p3_rows(), _p5_rows()), iterations=1, rounds=1)
    experiment_report(
        "Ablation: isSinkGdi interpretation",
        render_table(["variant", "outcome"], p3_rows + p5_rows),
    )
    assert p3_rows[0][1] is True and p3_rows[1][1] is False
    assert p5_rows[1][1] >= p5_rows[0][1]


@pytest.mark.parametrize("rule", [QuorumRule.PAPER, QuorumRule.CLASSIC])
def test_quorum_rule_ablation(benchmark, experiment_report, rule):
    scenario = Scenario(
        name=f"quorum-{rule.value}",
        graph=GraphSpec.figure("fig1b"),
        mode=ProtocolMode.BFT_CUP,
        behaviour="silent",
        protocol_options=(("quorum_rule", rule),),
    )
    suite = benchmark.pedantic(
        SuiteRunner(fail_fast=True).run,
        args=([scenario],),
        iterations=1,
        rounds=1,
    )
    outcome = suite.outcomes[0]
    rows = [
        ["quorum rule", rule.value],
        ["consensus solved", outcome.solved],
        ["messages", outcome.metric("messages")],
        ["decision latency", outcome.metric("latency")],
    ]
    experiment_report(f"Ablation: quorum rule ({rule.value})", render_table(["metric", "value"], rows))
    assert outcome.solved
