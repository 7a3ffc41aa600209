"""Tests for the extended k-OSR check (Definition 2) and core finding."""

import pytest

from repro.graphs.generators import generate_bft_cup_graph, generate_bft_cupft_graph
from repro.graphs.requirements import (
    enumerate_sinks,
    extended_osr_report,
    find_core,
    is_extended_k_osr,
)
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.predicates import KnowledgeView
from repro.graphs.sink_search import find_core_candidate


class TestFindCore:
    def test_fig4b_safe_graph(self, figures):
        scenario = figures["fig4b"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        core = find_core(safe)
        assert core is not None
        assert core.members == {1, 2, 3}
        assert core.connectivity == 2

    def test_fig2c_has_no_core(self, figures):
        assert find_core(figures["fig2c"].graph) is None

    def test_fig4a_safe_graph(self, figures):
        scenario = figures["fig4a"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        core = find_core(safe)
        assert core is not None
        assert core.members == {1, 2, 3}

    def test_empty_graph_has_no_core(self):
        assert find_core(KnowledgeGraph()) is None

    def test_complete_graph_core_is_everything(self):
        graph = KnowledgeGraph({i: [j for j in range(1, 6) if j != i] for i in range(1, 6)})
        core = find_core(graph)
        assert core is not None
        assert core.members == {1, 2, 3, 4, 5}
        assert core.connectivity == 3  # capped by |S| >= 2f+1


def online_core(graph):
    """The core as Algorithm 4 line 2 finds it, given the whole graph as its view."""
    candidate = find_core_candidate(KnowledgeView.full(graph))
    return None if candidate is None else candidate.witness


class TestFindCoreIsTheOnlineRuleOnTheFullGraph:
    """Definition 2's core and Algorithm 4 line 2 are one definition reached two ways."""

    def test_figures(self, figures):
        for name, scenario in figures.items():
            safe = scenario.graph.safe_subgraph(scenario.faulty)
            assert find_core(safe) == online_core(safe), name

    @pytest.mark.parametrize("seed", range(24))
    def test_generated_scenarios(self, seed):
        f = 1 + seed % 2
        placement = ("sink", "mixed", "non_sink", "none")[seed % 4]
        for generate, size in (
            (generate_bft_cup_graph, {"non_sink_size": 3 + seed % 5}),
            (generate_bft_cupft_graph, {"non_core_size": 3 + seed % 5}),
        ):
            scenario = generate(f=f, byzantine_placement=placement, seed=seed, **size)
            safe = scenario.graph.safe_subgraph(scenario.faulty)
            core = find_core(safe)
            assert core == online_core(safe), (generate.__name__, seed)
            if generate is generate_bft_cupft_graph:
                assert core is not None and core.members == scenario.expected_safe_core


class TestExtendedOsr:
    def test_fig4_figures_are_extended_2_osr(self, figures):
        for name in ("fig4a", "fig4b"):
            scenario = figures[name]
            safe = scenario.graph.safe_subgraph(scenario.faulty)
            assert is_extended_k_osr(safe, 2), name

    def test_fig2c_is_not_extended_1_osr(self, figures):
        report = extended_osr_report(figures["fig2c"].graph, 1)
        assert not report.satisfied
        assert any("C1" in reason for reason in report.failures)
        assert len(report.competing_sinks) >= 1

    def test_report_details(self, figures):
        scenario = figures["fig4b"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        report = extended_osr_report(safe, 2)
        assert report.satisfied
        assert report.core == {1, 2, 3}
        assert report.core_connectivity == 2
        assert report.osr_satisfied
        assert report.min_paths_to_core >= 2

    def test_graph_without_sinks(self):
        report = extended_osr_report(KnowledgeGraph(), 1)
        assert not report.satisfied

    def test_not_extended_when_c2_fails(self):
        # Core = triangle {1,2,3}; node 4 has only one path into it.
        graph = KnowledgeGraph({1: [2, 3], 2: [1, 3], 3: [1, 2], 4: [1]})
        report = extended_osr_report(graph, 2)
        assert not report.satisfied
        assert any("C2" in reason or "k-OSR" in reason for reason in report.failures)

    def test_enumerate_sinks_lists_members(self, figures):
        witnesses = enumerate_sinks(figures["fig2c"].graph)
        members = {witness.members for witness in witnesses}
        assert frozenset({1, 2, 3, 4}) in members
        assert frozenset({5, 6, 7, 8}) in members
