"""Tests for the Sink (Algorithm 2) and Core (Algorithm 4) locators."""


from repro.core.discovery import DiscoveryState
from repro.core.locators import CoreLocator, SinkLocator
from repro.crypto.signatures import KeyRegistry
from repro.graphs.figures import figure_1b, figure_2c, figure_4b
from repro.graphs.search_memo import sink_search_memo


def discovery_for(graph, process_id, registry, absorbed=()):
    state = DiscoveryState(
        process_id=process_id,
        participant_detector=graph.participant_detector(process_id),
        key=registry.generate(process_id),
        registry=registry,
    )
    for other in absorbed:
        other_state = DiscoveryState(
            process_id=other,
            participant_detector=graph.participant_detector(other),
            key=registry.generate(other),
            registry=registry,
        )
        state.absorb(other_state.snapshot())
    return state


class TestSinkLocator:
    def test_locates_after_enough_pds(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2, 3])
        locator = SinkLocator(fault_threshold=1)
        witness = locator.locate(state)
        assert witness is not None
        assert locator.members() == {1, 2, 3, 4}
        assert locator.estimated_fault_threshold() == 1

    def test_does_not_locate_too_early(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2])
        locator = SinkLocator(fault_threshold=1)
        assert locator.locate(state) is None
        assert locator.members() is None

    def test_repeated_locate_on_an_unchanged_view_is_one_memo_hit(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        # Three received PDs (>= 2f+1) so the search actually runs, but the
        # view {1, 5, 6} admits no sink for f=1.
        state = discovery_for(graph, 1, registry, absorbed=[5, 6])
        locator = SinkLocator(fault_threshold=1)
        locator.locate(state)
        memo = sink_search_memo()
        before = (memo.hits, memo.misses)
        assert locator.locate(state) is None
        assert (memo.hits, memo.misses) == (before[0] + 1, before[1])
        assert (locator.searches, locator.skips) == (2, 0)

    def test_skips_search_below_2f_plus_1_records(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2])
        locator = SinkLocator(fault_threshold=1)
        # Two received PDs < 2f+1 = 3: no candidate S1 can satisfy P1, so
        # the locator skips without even consulting the memo.
        assert locator.locate(state) is None
        assert locator.searches == 0
        assert locator.skips == 1

    def test_result_is_cached_after_success(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2, 3])
        locator = SinkLocator(fault_threshold=1)
        first = locator.locate(state)
        second = locator.locate(state)
        assert first is second


class TestCoreLocator:
    def test_locates_core_without_fault_threshold(self):
        registry = KeyRegistry(seed=0)
        graph = figure_4b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2, 3])
        locator = CoreLocator()
        witness = locator.locate(state)
        assert witness is not None
        assert locator.members() == {1, 2, 3, 4}
        assert locator.estimated_fault_threshold() == 1

    def test_old_sink_group_never_identifies_a_core(self):
        registry = KeyRegistry(seed=0)
        graph = figure_4b().graph
        state = discovery_for(graph, 8, registry, absorbed=[5, 6, 7])
        locator = CoreLocator()
        assert locator.locate(state) is None

    def test_ambiguous_graph_allows_split_identification(self):
        # On the Fig. 2c graph the two groups identify different "cores":
        # this is the behaviour the impossibility proof exploits.
        registry = KeyRegistry(seed=0)
        graph = figure_2c().graph
        state_a = discovery_for(graph, 1, registry, absorbed=[2, 3, 4])
        state_b = discovery_for(graph, 8, registry, absorbed=[5, 6, 7])
        core_a = CoreLocator().locate(state_a)
        core_b = CoreLocator().locate(state_b)
        assert core_a is not None and core_b is not None
        assert core_a.members != core_b.members


def memo_lookups(locate, kind):
    """``(hits, misses)`` of ``kind`` in the process-local memo during ``locate()``."""
    from repro.graphs.search_memo import sink_search_memo

    memo = sink_search_memo()
    hits, misses = memo.hits_by_kind[kind], memo.misses_by_kind[kind]
    result = locate()
    return result, (memo.hits_by_kind[kind] - hits, memo.misses_by_kind[kind] - misses)


class TestSinkSearchMemo:
    def test_converged_views_share_one_search(self):
        from repro.graphs.search_memo import sink_search_memo

        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        # Two different observers whose views absorbed the same records
        # reach the same view content, so the second locator answers from
        # the process-local memo without re-running the search.
        state_one = discovery_for(graph, 1, registry, absorbed=[2, 3])
        state_two = discovery_for(graph, 2, registry, absorbed=[1, 3])
        state_two.absorb(state_one.snapshot())
        state_one.absorb(state_two.snapshot())
        assert state_one.view_key() == state_two.view_key()

        first = SinkLocator(fault_threshold=1)
        second = SinkLocator(fault_threshold=1)
        witness_one, first_lookups = memo_lookups(lambda: first.locate(state_one), "sink")
        witness_two, second_lookups = memo_lookups(lambda: second.locate(state_two), "sink")
        assert witness_one is not None
        assert witness_two is witness_one  # the memoised object itself
        assert (first_lookups, second_lookups) == ((0, 1), (1, 0))
        stats = sink_search_memo().stats()
        assert stats["hits"] >= 1

    def test_negative_results_are_memoised_too(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[5, 6])
        first = SinkLocator(fault_threshold=1)
        second = SinkLocator(fault_threshold=1)
        assert memo_lookups(lambda: first.locate(state), "sink") == (None, (0, 1))
        assert memo_lookups(lambda: second.locate(state), "sink") == (None, (1, 0))

    def test_memo_keys_differ_per_fault_threshold_and_kind(self):
        registry = KeyRegistry(seed=0)
        graph = figure_1b().graph
        state = discovery_for(graph, 1, registry, absorbed=[2, 3])
        sink = SinkLocator(fault_threshold=1)
        stricter = SinkLocator(fault_threshold=2)
        core = CoreLocator()
        # Distinct keys: no locator is answered by another's entry.
        hits = [
            memo_lookups(lambda: sink.locate(state), "sink")[1][0],
            memo_lookups(lambda: stricter.locate(state), "sink")[1][0],
            memo_lookups(lambda: core.locate(state), "core")[1][0],
        ]
        assert hits == [0, 0, 0]

    def test_eviction_keeps_the_memo_bounded(self):
        from repro.graphs.search_memo import SINK_SEARCH_MEMO_ENTRIES, SinkSearchMemo

        memo = SinkSearchMemo()
        for index in range(SINK_SEARCH_MEMO_ENTRIES + 1):
            memo.store(("a", index), index)
        assert memo.stats()["entries"] == SINK_SEARCH_MEMO_ENTRIES
        assert memo.stats()["evictions"] == 1
        assert memo.lookup(("a", 0)) is SinkSearchMemo._MISS  # FIFO evicted
        assert memo.lookup(("a", 1)) == 1
        assert memo.lookup(("a", SINK_SEARCH_MEMO_ENTRIES)) == SINK_SEARCH_MEMO_ENTRIES

    def test_clear_resets_every_counter(self):
        from repro.graphs.search_memo import SINK_SEARCH_MEMO_ENTRIES, SinkSearchMemo

        memo = SinkSearchMemo()
        for index in range(SINK_SEARCH_MEMO_ENTRIES + 1):
            memo.store(("a", index), index)
        memo.lookup(("a", 0))
        memo.lookup(("a", 1))
        memo.clear()
        assert memo.stats() == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hits_by_kind": {},
            "misses_by_kind": {},
        }


class TestIncrementalMatchesFromScratch:
    """Property-style check: the incremental locators agree with a from-scratch
    search of the current view after *every* absorb, over random absorb orders.

    This pins the soundness argument of the whole incremental layer (delta
    gating, the 2f+1 precheck, witness pinning and the content-keyed memo):
    none of the shortcuts may ever produce a result the pure search on the
    same view would not.
    """

    def _absorb_orders(self, graph, observer, rng_seeds):
        import random

        others = sorted((p for p in graph.processes if p != observer), key=repr)
        for seed in rng_seeds:
            order = list(others)
            random.Random(seed).shuffle(order)
            yield order

    def _run_case(self, graph, observer, make_locator, scratch_search, rng_seeds=(0, 1, 2, 3, 4)):
        from repro.graphs.sink_search import SearchOptions

        options = SearchOptions()
        registry = KeyRegistry(seed=0)
        for order in self._absorb_orders(graph, observer, rng_seeds):
            state = discovery_for(graph, observer, registry)
            locator = make_locator()
            pinned = None
            for other in order:
                other_state = discovery_for(graph, other, registry)
                state.absorb(other_state.snapshot())
                incremental = locator.locate(state)
                scratch = scratch_search(state.view(), options)
                if pinned is None:
                    if incremental is None:
                        assert scratch is None, (
                            f"locator missed a witness after absorbing {other!r}"
                        )
                    else:
                        pinned = incremental
                if pinned is not None:
                    assert incremental is not None and scratch is not None
                    assert incremental.members == scratch.members
                    assert incremental.connectivity == scratch.connectivity

    def test_sink_locator_on_figure_1b(self):
        from repro.graphs.sink_search import find_sink_with_fault_threshold

        self._run_case(
            figure_1b().graph,
            observer=1,
            make_locator=lambda: SinkLocator(fault_threshold=1),
            scratch_search=lambda view, options: find_sink_with_fault_threshold(view, 1, options),
        )

    def test_sink_locator_on_generated_graph(self):
        from repro.graphs.generators import generate_bft_cup_graph
        from repro.graphs.sink_search import find_sink_with_fault_threshold

        scenario = generate_bft_cup_graph(f=1, non_sink_size=6, seed=3)
        self._run_case(
            scenario.graph,
            observer=1,
            make_locator=lambda: SinkLocator(fault_threshold=1),
            scratch_search=lambda view, options: find_sink_with_fault_threshold(view, 1, options),
        )

    def test_core_locator_on_figure_4b(self):
        from repro.graphs.sink_search import find_core_candidate

        self._run_case(
            figure_4b().graph,
            observer=1,
            make_locator=CoreLocator,
            scratch_search=lambda view, options: find_core_candidate(view, options),
        )

    def test_core_locator_on_generated_graph(self):
        from repro.graphs.generators import generate_bft_cupft_graph
        from repro.graphs.sink_search import find_core_candidate

        scenario = generate_bft_cupft_graph(f=1, non_core_size=5, seed=4)
        self._run_case(
            scenario.graph,
            observer=1,
            make_locator=CoreLocator,
            scratch_search=lambda view, options: find_core_candidate(view, options),
        )
