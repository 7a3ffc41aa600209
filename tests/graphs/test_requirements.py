"""Tests for the BFT-CUP (Theorem 1) and BFT-CUPFT requirement checkers."""

import pytest

from repro.graphs.generators import generate_bft_cup_graph, generate_bft_cupft_graph
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.requirements import (
    bft_cup_report,
    bft_cupft_report,
    satisfies_bft_cup,
    satisfies_bft_cupft,
)


class TestFigureClaims:
    def test_all_figures_match_their_claims(self, figures):
        for name, scenario in figures.items():
            assert (
                satisfies_bft_cup(scenario.graph, scenario.fault_threshold, scenario.faulty)
                == scenario.satisfies_bft_cup
            ), name
            assert (
                satisfies_bft_cupft(scenario.graph, scenario.fault_threshold, scenario.faulty)
                == scenario.satisfies_bft_cupft
            ), name

    def test_fig1a_failure_reasons(self, figures):
        scenario = figures["fig1a"]
        report = bft_cup_report(scenario.graph, scenario.fault_threshold, scenario.faulty)
        assert not report.satisfied
        assert report.failures


class TestParameterValidation:
    def test_negative_f_rejected(self, figures):
        report = bft_cup_report(figures["fig1b"].graph, -1, set())
        assert not report.satisfied

    def test_too_many_faulty_rejected(self, figures):
        scenario = figures["fig1b"]
        report = bft_cup_report(scenario.graph, 0, scenario.faulty)
        assert not report.satisfied
        assert any("exceed" in reason for reason in report.failures)

    def test_sink_size_requirement(self):
        # A 2-OSR safe graph whose sink has only 2 processes cannot tolerate f=1...
        # build a 2-cycle sink with one non-sink process: sink size 2 < 2f+1.
        graph = KnowledgeGraph({1: [2], 2: [1], 3: [1, 2]})
        report = bft_cup_report(graph, 1, set())
        assert not report.satisfied
        assert any("2f+1" in reason for reason in report.failures)

    def test_fault_free_requirements(self):
        graph = KnowledgeGraph({1: [2], 2: [1], 3: [1, 2]})
        assert satisfies_bft_cup(graph, 0, set())


class TestGeneratedGraphs:
    @pytest.mark.parametrize("f,non_sink,seed", [(1, 3, 0), (1, 5, 1), (2, 4, 2)])
    def test_generated_cup_graphs_satisfy_theorem_1(self, f, non_sink, seed):
        scenario = generate_bft_cup_graph(f=f, non_sink_size=non_sink, seed=seed)
        assert satisfies_bft_cup(scenario.graph, f, scenario.faulty)

    @pytest.mark.parametrize("f,non_core,seed", [(1, 3, 0), (1, 6, 3), (2, 4, 1)])
    def test_generated_cupft_graphs_satisfy_both_models(self, f, non_core, seed):
        scenario = generate_bft_cupft_graph(f=f, non_core_size=non_core, seed=seed)
        assert satisfies_bft_cup(scenario.graph, f, scenario.faulty)
        assert satisfies_bft_cupft(scenario.graph, f, scenario.faulty)

    def test_cupft_report_exposes_core(self):
        scenario = generate_bft_cupft_graph(f=1, non_core_size=3, seed=9)
        report = bft_cupft_report(scenario.graph, 1, scenario.faulty)
        assert report.satisfied
        assert report.core == scenario.expected_safe_core
        assert report.core_size == 3
