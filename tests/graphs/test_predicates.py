"""Tests for the isSinkGdi / isSink* predicates against the paper's own instances."""


from repro.graphs.figures import figure_1b, figure_2c, figure_3a, figure_4b
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.predicates import (
    KnowledgeView,
    derived_s2,
    f_gdi,
    is_sink_gdi,
    is_sink_star,
    k_gdi,
    sink_star_witness,
)


def view_of(graph: KnowledgeGraph, received, known=None) -> KnowledgeView:
    """Build a view with the true PDs of ``received`` and the given known set."""
    pds = {node: graph.participant_detector(node) for node in received}
    if known is None:
        known_set = set(received)
        for pd in pds.values():
            known_set |= pd
    else:
        known_set = set(known)
    return KnowledgeView(known=frozenset(known_set), pds=pds)


class TestKnowledgeView:
    def test_full_view(self):
        graph = figure_1b().graph
        view = KnowledgeView.full(graph)
        assert view.known == graph.processes
        assert view.received == graph.processes

    def test_initial_view_of_process(self):
        graph = figure_1b().graph
        view = KnowledgeView.of_process(graph, 1)
        assert view.known == {1, 2, 3, 4}
        assert view.received == {1}

    def test_induced_graph_uses_received_pds_only(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2])
        induced = view.induced_graph({1, 2, 3})
        assert induced.has_edge(1, 2)
        assert induced.has_edge(2, 1)
        assert not induced.has_edge(3, 1)  # 3's PD was not received

    def test_subview_restricts_both_sets(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2, 3])
        sub = view.subview({1, 2})
        assert sub.received == {1, 2}
        assert sub.known <= {1, 2}


class TestDerivedS2:
    def test_fig1b_worked_example(self):
        # Process 1's view in the worked example of Algorithm 2: it received
        # PD_3 and the PD claimed by Byzantine process 4 ({1,2,3}).
        graph = figure_1b().graph
        pds = {
            1: graph.participant_detector(1),
            3: graph.participant_detector(3),
            4: frozenset({1, 2, 3}),
        }
        view = KnowledgeView(known=frozenset({1, 2, 3, 4}), pds=pds)
        assert derived_s2(view, 1, frozenset({1, 3, 4})) == {2}

    def test_threshold_is_strict(self):
        graph = KnowledgeGraph({1: [3], 2: [3], 3: []})
        view = KnowledgeView.full(graph)
        assert derived_s2(view, 1, frozenset({1, 2})) == {3}
        assert derived_s2(view, 2, frozenset({1, 2})) == frozenset()


class TestIsSinkGdiPaperInstances:
    def test_fig1b_worked_example_is_a_sink(self):
        """Section III: isSinkGdi(1, {1,3,4}, {2}) holds in process 1's view."""
        graph = figure_1b().graph
        pds = {
            1: graph.participant_detector(1),
            3: graph.participant_detector(3),
            4: frozenset({1, 2, 3}),
        }
        view = KnowledgeView(known=frozenset({1, 2, 3, 4}), pds=pds)
        assert is_sink_gdi(view, 1, {1, 3, 4}, {2})

    def test_fig1b_worked_example_fails_under_strict_p3(self):
        """The literal P3 reading rejects the paper's own example (DESIGN.md, "P3")."""
        graph = figure_1b().graph
        pds = {
            1: graph.participant_detector(1),
            3: graph.participant_detector(3),
            4: frozenset({1, 2, 3}),
        }
        view = KnowledgeView(known=frozenset({1, 2, 3, 4}), pds=pds)
        assert not is_sink_gdi(view, 1, {1, 3, 4}, {2}, strict_p3=True)

    def test_observation_1_group_a(self):
        """Observation 1: isSinkGdi(1, {1,2,3}, {4}) holds in system AB."""
        graph = figure_2c().graph
        view = view_of(graph, [1, 2, 3])
        assert is_sink_gdi(view, 1, {1, 2, 3}, {4})

    def test_observation_1_group_b(self):
        """Observation 1: isSinkGdi(1, {6,7,8}, {5}) holds in system AB."""
        graph = figure_2c().graph
        view = view_of(graph, [6, 7, 8])
        assert is_sink_gdi(view, 1, {6, 7, 8}, {5})

    def test_fig3a_false_sink_instance(self):
        """Fig. 3a: isSinkGdi(2, {1,2,3,4,6}, {5,7}) holds with the wrong threshold."""
        graph = figure_3a().graph
        view = view_of(graph, [1, 2, 3, 4, 6])
        assert is_sink_gdi(view, 2, {1, 2, 3, 4, 6}, {5, 7})

    def test_fig3a_false_sink_rejected_with_true_threshold(self):
        """With the true threshold f=1, P5 (|S2| <= f) rejects the false sink."""
        graph = figure_3a().graph
        view = view_of(graph, [1, 2, 3, 4, 6])
        assert not is_sink_gdi(view, 1, {1, 2, 3, 4, 6}, {5, 7})

    def test_fig4b_added_edges_block_the_old_sink(self):
        """Fig. 4b: after adding 6->3 and 7->2, {5,6,7,8} cannot pose as a sink."""
        graph = figure_4b().graph
        view = view_of(graph, [6, 7, 8])
        s1 = frozenset({6, 7, 8})
        assert not any(
            is_sink_gdi(view, g, s1, derived_s2(view, g, s1)) for g in range(0, 3)
        )


class TestIsSinkGdiGeneral:
    def test_requires_pds_of_s1(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2])
        assert not is_sink_gdi(view, 1, {1, 2, 3}, set())

    def test_rejects_overlapping_sets(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2, 3])
        assert not is_sink_gdi(view, 1, {1, 2, 3}, {3})

    def test_rejects_empty_s1(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2, 3])
        assert not is_sink_gdi(view, 1, set(), {4})

    def test_rejects_negative_f(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2, 3])
        assert not is_sink_gdi(view, -1, {1, 2, 3}, set())

    def test_rejects_too_small_s1(self):
        graph = figure_1b().graph
        view = view_of(graph, [1, 2])
        assert not is_sink_gdi(view, 1, {1, 2}, set())

    def test_bound_s2_can_be_disabled(self):
        graph = figure_3a().graph
        view = view_of(graph, [1, 2, 3, 4, 6])
        s1 = frozenset({1, 2, 3, 4, 6})
        s2 = derived_s2(view, 1, s1)
        assert len(s2) > 1
        assert not is_sink_gdi(view, 1, s1, s2)
        assert is_sink_gdi(view, 1, s1, s2, bound_s2=False)

    def test_wrong_s2_fails_p4(self):
        graph = figure_2c().graph
        view = view_of(graph, [1, 2, 3])
        assert not is_sink_gdi(view, 1, {1, 2, 3}, set())
        assert not is_sink_gdi(view, 1, {1, 2, 3}, {4, 5})


class TestSinkStar:
    def test_fig2c_has_two_competing_sinks(self):
        view = KnowledgeView.full(figure_2c().graph)
        assert is_sink_star(view, {1, 2, 3, 4})
        assert is_sink_star(view, {5, 6, 7, 8})
        assert k_gdi(view, {1, 2, 3, 4}) == 2
        assert k_gdi(view, {5, 6, 7, 8}) == 2

    def test_fig2c_subsets_are_not_sinks(self):
        view = KnowledgeView.full(figure_2c().graph)
        assert not is_sink_star(view, {1, 2, 3})
        assert not is_sink_star(view, {1, 2})

    def test_f_gdi_of_safe_core(self):
        scenario = figure_4b()
        safe = scenario.graph.safe_subgraph(scenario.faulty)
        view = KnowledgeView.full(safe)
        assert f_gdi(view, {1, 2, 3}) == 1
        assert k_gdi(view, {1, 2, 3}) == 2

    def test_witness_reports_split(self):
        view = KnowledgeView.full(figure_2c().graph)
        witness = sink_star_witness(view, {1, 2, 3, 4})
        assert witness is not None
        assert witness.members == {1, 2, 3, 4}
        assert witness.s1 | witness.s2 == {1, 2, 3, 4}
        assert witness.connectivity == witness.f + 1

    def test_non_sink_set_has_no_witness(self):
        view = KnowledgeView.full(figure_1b().graph)
        assert sink_star_witness(view, {5, 6, 7, 8}) is None
        assert f_gdi(view, {5, 6, 7, 8}) is None
        assert k_gdi(view, {5, 6, 7, 8}) is None

    def test_empty_set_has_no_witness(self):
        view = KnowledgeView.full(figure_1b().graph)
        assert sink_star_witness(view, set()) is None
