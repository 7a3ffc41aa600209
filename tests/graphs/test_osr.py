"""Tests for the k-OSR participant detector check (Definition 1)."""

import random

import pytest

from repro.graphs.generators import generate_random_digraph
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.requirements import is_k_osr, max_osr_k, osr_report


class TestIsKOsr:
    def test_complete_graph_is_highly_osr(self):
        graph = KnowledgeGraph({i: [j for j in range(1, 5) if j != i] for i in range(1, 5)})
        assert is_k_osr(graph, 1)
        assert is_k_osr(graph, 2)
        assert is_k_osr(graph, 3)
        assert not is_k_osr(graph, 4)
        assert max_osr_k(graph) == 3

    def test_disconnected_graph_fails(self, two_sinks):
        assert not is_k_osr(two_sinks, 1)
        assert max_osr_k(two_sinks) == 0

    def test_two_sink_components_fail(self):
        graph = KnowledgeGraph({1: [2], 2: [1], 3: [4], 4: [3], 5: [1, 3]})
        report = osr_report(graph, 1)
        assert not report.satisfied
        assert report.sink_count == 2

    def test_chain_is_1_osr(self, chain):
        assert is_k_osr(chain, 1)
        assert not is_k_osr(chain, 2)
        assert max_osr_k(chain) == 1

    def test_single_node_sink_is_vacuously_connected(self):
        graph = KnowledgeGraph({1: [2], 2: [3], 3: []})
        assert is_k_osr(graph, 1)
        report = osr_report(graph, 1)
        assert report.sink == {3}

    def test_insufficient_paths_from_non_sink(self):
        # Non-sink node 4 has only one edge into the 2-connected sink.
        graph = KnowledgeGraph({1: [2, 3], 2: [1, 3], 3: [1, 2], 4: [1]})
        assert is_k_osr(graph, 1)
        assert not is_k_osr(graph, 2)
        report = osr_report(graph, 2)
        assert any("node-disjoint paths" in reason for reason in report.failures)

    def test_report_contains_sink_details(self, figures):
        scenario = figures["fig1b"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        report = osr_report(safe, 2)
        assert report.satisfied
        assert report.sink == {1, 2, 3}
        assert report.sink_connectivity == 2
        assert report.min_paths_to_sink >= 2


class TestIsKOsrAgreesWithMaxOsrK:
    """``is_k_osr(g, k) == (k <= max_osr_k(g))``: one definition read two ways."""

    def test_one_process_graph_is_1_osr_and_no_more(self):
        # Nothing binds k here (no pair in the sink, no process outside it);
        # DESIGN.md "Static analysis" fixes the convention.
        graph = KnowledgeGraph({1: []})
        assert max_osr_k(graph) == 1
        assert is_k_osr(graph, 1)
        report = osr_report(graph, 5)
        assert not report.satisfied
        assert report.failures == ("a one-process graph is 1-OSR only (asked for 5)",)

    def test_fixed_seed_random_digraphs(self):
        rng = random.Random(2310)
        sizes = []
        for _ in range(600):
            size = rng.randint(1, 7)
            graph = generate_random_digraph(
                size=size,
                edge_probability=rng.choice([0.2, 0.35, 0.5, 0.7, 0.9]),
                seed=rng.randrange(10**6),
            )
            largest = max_osr_k(graph)
            for k in range(1, size + 3):
                assert is_k_osr(graph, k) == (k <= largest), (graph.pd_map(), k, largest)
            sizes.append((size, largest))
        # The sweep reaches the one-process graph and graphs that are k-OSR for k > 1.
        assert any(size == 1 for size, _ in sizes)
        assert any(largest > 1 for _, largest in sizes)


class TestPaperFigures:
    def test_fig1a_safe_graph_is_not_2_osr(self, figures):
        scenario = figures["fig1a"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        assert not is_k_osr(safe, 2)

    def test_fig1b_safe_graph_is_2_osr(self, figures):
        scenario = figures["fig1b"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        assert is_k_osr(safe, 2)
        assert max_osr_k(safe) == 2

    def test_fig2c_full_graph_is_1_osr_only(self, figures):
        graph = figures["fig2c"].graph
        assert is_k_osr(graph, 1)
        assert not is_k_osr(graph, 2)
        assert max_osr_k(graph) == 1

    def test_fig3b_safe_graph_is_3_osr(self, figures):
        scenario = figures["fig3b"]
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        assert is_k_osr(safe, 3)
        assert max_osr_k(safe) == 4  # the K5 clique

    @pytest.mark.parametrize("name", ["fig2a", "fig2b"])
    def test_impossibility_systems_are_2_osr(self, figures, name):
        graph = figures[name].graph
        assert is_k_osr(graph, 2)
