"""Tests for the random graph generators."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import (
    generate_bft_cup_graph,
    generate_bft_cupft_graph,
    generate_random_digraph,
    generate_split_brain_graph,
)
from repro.graphs.requirements import StaticOracle, satisfies_bft_cup, satisfies_bft_cupft


class TestCupGenerator:
    def test_determinism(self):
        first = generate_bft_cup_graph(f=1, non_sink_size=4, seed=5)
        second = generate_bft_cup_graph(f=1, non_sink_size=4, seed=5)
        assert first.graph == second.graph
        assert first.faulty == second.faulty

    def test_different_seeds_differ(self):
        first = generate_bft_cup_graph(f=1, non_sink_size=6, seed=1)
        second = generate_bft_cup_graph(f=1, non_sink_size=6, seed=2)
        assert first.graph != second.graph

    def test_sink_of_safe_graph_matches_oracle(self):
        scenario = generate_bft_cup_graph(f=1, non_sink_size=4, seed=3)
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.safe_sink == scenario.expected_safe_sink

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_bft_cup_graph(f=-1)
        with pytest.raises(ValueError):
            generate_bft_cup_graph(f=1, sink_size=2)
        with pytest.raises(ValueError):
            generate_bft_cup_graph(f=1, byzantine_count=2)

    def test_no_byzantine_placement(self):
        scenario = generate_bft_cup_graph(f=1, byzantine_placement="none", seed=0)
        assert scenario.faulty == frozenset()

    @settings(max_examples=15, deadline=None)
    @given(f=st.integers(0, 2), non_sink=st.integers(0, 5), seed=st.integers(0, 50))
    def test_generated_graphs_satisfy_theorem_1(self, f, non_sink, seed):
        scenario = generate_bft_cup_graph(f=f, non_sink_size=non_sink, seed=seed)
        assert satisfies_bft_cup(scenario.graph, f, scenario.faulty)

    @pytest.mark.parametrize("placement", ["sink", "non_sink", "mixed"])
    def test_byzantine_placements(self, placement):
        scenario = generate_bft_cup_graph(
            f=2, non_sink_size=4, byzantine_placement=placement, seed=11
        )
        assert len(scenario.faulty) == 2
        assert satisfies_bft_cup(scenario.graph, 2, scenario.faulty)

    def test_larger_sink_than_minimum(self):
        scenario = generate_bft_cup_graph(f=1, sink_size=6, non_sink_size=3, seed=4)
        assert satisfies_bft_cup(scenario.graph, 1, scenario.faulty)
        assert len(scenario.expected_safe_sink) == 6


class TestCupftGenerator:
    @settings(max_examples=12, deadline=None)
    @given(f=st.integers(0, 2), non_core=st.integers(0, 5), seed=st.integers(0, 50))
    def test_generated_graphs_satisfy_cupft(self, f, non_core, seed):
        scenario = generate_bft_cupft_graph(f=f, non_core_size=non_core, seed=seed)
        assert satisfies_bft_cupft(scenario.graph, f, scenario.faulty)

    def test_core_is_pinned_to_minimum_size(self):
        with pytest.raises(ValueError):
            generate_bft_cupft_graph(f=1, core_size=5)

    def test_core_matches_oracle(self):
        scenario = generate_bft_cupft_graph(f=2, non_core_size=5, seed=8)
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        assert oracle.safe_core == scenario.expected_safe_core
        assert len(scenario.expected_safe_core) == 5


def _edge_digest(scenario) -> str:
    edges = sorted((repr(a), repr(b)) for a, b in scenario.graph.edges())
    return hashlib.sha256(repr(edges).encode()).hexdigest()[:16]


def _layered(family, *, f, layer_size, probability, seed):
    """A generated graph whose correct non-sink (non-core) layer has ``layer_size`` members."""
    if family == "cup":
        return generate_bft_cup_graph(
            f=f, non_sink_size=layer_size, extra_edge_probability=probability, seed=seed
        )
    return generate_bft_cupft_graph(
        f=f, non_core_size=layer_size, extra_edge_probability=probability, seed=seed
    )


def _layer(scenario) -> list:
    """The correct processes outside the sink, in generation (index) order."""
    return sorted(scenario.correct - scenario.expected_safe_sink)


class TestExtraEdgeSampling:
    """The optional forward edges inside the non-sink layer: one draw per pair."""

    def test_default_stream_is_byte_identical(self):
        # Pinned digests: the one rng draw per (member, earlier) pair must never
        # change for existing seeds, or every committed expectation drifts.
        cup = generate_bft_cup_graph(f=1, non_sink_size=6, seed=7)
        assert _edge_digest(cup) == "9166d0576253652d"
        cupft = generate_bft_cupft_graph(f=2, non_core_size=8, seed=11)
        assert _edge_digest(cupft) == "e61da059023aa4aa"

    @pytest.mark.parametrize("family", ["cup", "cupft"])
    def test_probability_one_links_every_earlier_member(self, family):
        scenario = _layered(family, f=1, layer_size=6, probability=1.0, seed=3)
        layer = _layer(scenario)
        assert len(layer) == 6
        for position, member in enumerate(layer):
            assert scenario.graph.successors(member) & set(layer) == set(layer[:position])

    @pytest.mark.parametrize("family", ["cup", "cupft"])
    def test_probability_zero_adds_no_layer_edges(self, family):
        scenario = _layered(family, f=2, layer_size=6, probability=0.0, seed=3)
        layer = _layer(scenario)
        for member in layer:
            # Only the f + 1 edges into the sink remain.
            assert scenario.graph.successors(member) <= scenario.expected_safe_sink
            assert scenario.graph.out_degree(member) == 3

    @pytest.mark.parametrize("family", ["cup", "cupft"])
    def test_layer_edges_point_only_to_earlier_members(self, family):
        # Index order keeps the layer acyclic, so it can never form a sink.
        for seed in range(10):
            scenario = _layered(family, f=1, layer_size=8, probability=0.5, seed=seed)
            layer = _layer(scenario)
            for member in layer:
                assert all(
                    target < member for target in scenario.graph.successors(member) & set(layer)
                )

    def test_layer_edge_hit_rate_matches_probability(self):
        scenario = _layered("cup", f=0, layer_size=300, probability=0.1, seed=42)
        layer = set(_layer(scenario))
        hits = sum(1 for a, b in scenario.graph.edges() if a in layer and b in layer)
        pairs = 300 * 299 // 2
        assert hits == pytest.approx(pairs * 0.1, rel=0.05)

    @settings(max_examples=12, deadline=None)
    @given(
        f=st.integers(0, 2),
        layer_size=st.integers(0, 6),
        probability=st.floats(0.0, 1.0),
        seed=st.integers(0, 50),
    )
    def test_any_probability_satisfies_theorem_1(self, f, layer_size, probability, seed):
        scenario = _layered("cup", f=f, layer_size=layer_size, probability=probability, seed=seed)
        assert satisfies_bft_cup(scenario.graph, f, scenario.faulty)

    @settings(max_examples=12, deadline=None)
    @given(
        f=st.integers(0, 2),
        layer_size=st.integers(0, 6),
        probability=st.floats(0.0, 1.0),
        seed=st.integers(0, 50),
    )
    def test_any_probability_satisfies_cupft(self, f, layer_size, probability, seed):
        scenario = _layered("cupft", f=f, layer_size=layer_size, probability=probability, seed=seed)
        assert satisfies_bft_cupft(scenario.graph, f, scenario.faulty)


class TestOtherGenerators:
    def test_split_brain_graph_has_no_core(self):
        scenario = generate_split_brain_graph(group_size=4)
        assert satisfies_bft_cup(scenario.graph, 0, set())
        assert not satisfies_bft_cupft(scenario.graph, 1, set())
        oracle = StaticOracle(scenario.graph)
        assert oracle.safe_core == frozenset()

    def test_split_brain_requires_two_processes_per_group(self):
        with pytest.raises(ValueError):
            generate_split_brain_graph(group_size=1)

    def test_random_digraph_size_and_determinism(self):
        first = generate_random_digraph(size=10, seed=2)
        second = generate_random_digraph(size=10, seed=2)
        assert len(first) == 10
        assert first == second

    def test_random_digraph_edge_probability_extremes(self):
        empty = generate_random_digraph(size=5, edge_probability=0.0, seed=1)
        full = generate_random_digraph(size=5, edge_probability=1.0, seed=1)
        assert empty.edge_count() == 0
        assert full.edge_count() == 20
