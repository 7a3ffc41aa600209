"""Tests for the static (omniscient) oracle."""

import pytest

from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.predicates import KnowledgeView, f_gdi, k_gdi
from repro.graphs.requirements import StaticOracle


class TestStaticOracle:
    def test_correct_set(self, figures):
        scenario = figures["fig1b"]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.correct == scenario.graph.processes - scenario.faulty

    def test_unknown_faulty_process_rejected(self, figures):
        with pytest.raises(ValueError):
            StaticOracle(figures["fig1b"].graph, frozenset({99}))

    def test_safe_graph_excludes_faulty(self, figures):
        scenario = figures["fig1b"]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert 4 not in oracle.safe_graph.processes

    def test_sink_and_core_on_figures(self, figures):
        for scenario in figures.values():
            oracle = StaticOracle(scenario.graph, scenario.faulty)
            assert oracle.safe_sink == scenario.expected_safe_sink
            assert oracle.safe_core == scenario.expected_safe_core

    def test_safe_osr_k(self, figures):
        oracle = StaticOracle(figures["fig1b"].graph, figures["fig1b"].faulty)
        assert oracle.safe_osr_k == 2

    def test_expected_sink_excludes_poorly_known_byzantine(self):
        # Byzantine node 4 is known by only one sink member, so it is not
        # part of the set the online algorithms return.
        graph = KnowledgeGraph({1: [2, 3], 2: [1, 3], 3: [1, 2, 4], 4: [1]})
        oracle = StaticOracle(graph, frozenset({4}))
        assert oracle.safe_sink == {1, 2, 3}
        assert oracle.expected_sink == {1, 2, 3}

    def test_expected_core_includes_well_known_byzantine(self, figures):
        scenario = figures["fig4b"]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.expected_core == {1, 2, 3, 4}

    def test_core_connectivity(self, figures):
        scenario = figures["fig4b"]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.core_connectivity() == 2
        no_core = StaticOracle(figures["fig2c"].graph)
        assert no_core.core_connectivity() is None

    def test_predicate_helpers_on_full_graph(self, figures):
        view = KnowledgeView.full(figures["fig2c"].graph)
        assert f_gdi(view, {1, 2, 3, 4}) == 1
        assert k_gdi(view, {1, 2, 3, 4}) == 2
        assert f_gdi(view, {1, 2, 3}) is None

    def test_empty_fault_set_by_default(self, figures):
        oracle = StaticOracle(figures["fig2c"].graph)
        assert oracle.faulty == frozenset()
        assert oracle.correct == figures["fig2c"].graph.processes
