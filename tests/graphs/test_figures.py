"""Every paper-figure reconstruction must satisfy the properties the paper claims for it."""

import pytest

from repro.graphs.components import sink_components
from repro.graphs.figures import paper_figures
from repro.graphs.requirements import StaticOracle

FIGURE_NAMES = sorted(paper_figures())


@pytest.mark.parametrize("name", FIGURE_NAMES)
class TestFigureMetadata:
    def test_faulty_processes_exist(self, figures, name):
        scenario = figures[name]
        assert scenario.faulty <= scenario.graph.processes

    def test_fault_count_within_threshold(self, figures, name):
        scenario = figures[name]
        assert len(scenario.faulty) <= scenario.fault_threshold

    def test_expected_safe_sink_matches_oracle(self, figures, name):
        scenario = figures[name]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.safe_sink == scenario.expected_safe_sink

    def test_expected_safe_core_matches_oracle(self, figures, name):
        scenario = figures[name]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.safe_core == scenario.expected_safe_core

    def test_correct_set_is_complement_of_faulty(self, figures, name):
        scenario = figures[name]
        assert scenario.correct == scenario.graph.processes - scenario.faulty


class TestSpecificCaptionClaims:
    def test_fig1a_pd_of_process_1(self, figures):
        assert figures["fig1a"].graph.participant_detector(1) == {2, 3, 4}

    def test_fig1b_pd_of_process_1(self, figures):
        assert figures["fig1b"].graph.participant_detector(1) == {2, 3, 4}

    def test_fig1a_silent_4_disconnects_the_groups(self, figures):
        scenario = figures["fig1a"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        assert not safe.is_undirected_connected()

    def test_fig1b_byzantine_is_known_by_every_sink_member(self, figures):
        graph = figures["fig1b"].graph
        assert all(graph.has_edge(member, 4) for member in (1, 2, 3))

    def test_fig2c_is_the_union_of_systems_a_and_b(self, figures):
        ab = figures["fig2c"].graph
        a = figures["fig2a"].graph
        b = figures["fig2b"].graph
        for graph in (a, b):
            for source, target in graph.edges():
                assert ab.has_edge(source, target)

    def test_fig2c_bridge_is_the_only_cross_group_knowledge(self, figures):
        ab = figures["fig2c"].graph
        cross = [
            (s, t)
            for s, t in ab.edges()
            if (s in {1, 2, 3, 4}) != (t in {1, 2, 3, 4})
        ]
        assert set(cross) == {(4, 5), (5, 4)}

    def test_fig4b_adds_the_two_caption_edges_to_fig1a(self, figures):
        base = figures["fig1a"].graph
        extended = figures["fig4b"].graph
        new_edges = set(extended.edges()) - set(base.edges())
        assert new_edges == {(6, 3), (7, 2)}

    def test_fig4a_full_graph_sink_differs_from_core(self, figures):
        scenario = figures["fig4a"]
        sinks = sink_components(scenario.graph)
        assert len(sinks) == 1
        assert sinks[0] == {1, 2, 3, 4}
        assert scenario.expected_safe_core == {1, 2, 3}

    def test_fig3_graphs_share_the_same_topology(self, figures):
        assert figures["fig3a"].graph == figures["fig3b"].graph
        assert figures["fig3a"].faulty != figures["fig3b"].faulty

    def test_oracle_expected_sets_include_well_known_byzantine(self, figures):
        oracle = StaticOracle(figures["fig1b"].graph, figures["fig1b"].faulty)
        assert oracle.expected_sink == {1, 2, 3, 4}
        assert oracle.expected_core == {1, 2, 3, 4}
