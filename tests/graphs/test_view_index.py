"""The bitmask kernel against a definition-level reference written with sets only.

The reference below states P1-P5, the candidate enumeration and the core rule
straight from the docstrings of :mod:`repro.graphs.predicates` and
:mod:`repro.graphs.sink_search` (it is the set-based search the kernel
replaced), so agreement on random views -- including Byzantine-shaped ones --
pins both the results and the "first S1 with maximal g wins" order.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.components import sink_components, strongly_connected_components
from repro.graphs.connectivity import is_k_strongly_connected
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.predicates import (
    KnowledgeView,
    SinkWitness,
    derived_s2,
    is_sink_gdi,
    sink_star_witness,
)
from repro.graphs.sink_search import (
    SearchOptions,
    find_all_sinks,
    find_core_candidate,
    find_sink_with_fault_threshold,
)
from repro.graphs.view_index import ViewIndex, above, bits, count_planes

# ----------------------------------------------------------------------
# the reference: sets only
# ----------------------------------------------------------------------


def ref_derived_s2(view, g, s1):
    return frozenset(
        node
        for node in view.known - s1
        if sum(1 for member in s1 if node in view.pds.get(member, ())) > g
    )


def ref_induced_graph(view, nodes):
    keep = set(nodes)
    graph = KnowledgeGraph()
    for node in keep:
        graph.add_process(node)
    for node in keep:
        for target in view.pds.get(node, ()):
            if target in keep:
                graph.add_edge(node, target)
    return graph


def ref_is_sink(view, g, s1, s2, options):
    if g < 0 or not s1 or s1 & s2 or not s1 <= view.pds.keys() or not s2 <= view.known:
        return False
    if len(s1) < 2 * g + 1:  # P1
        return False
    if s2 != ref_derived_s2(view, g, s1):  # P4
        return False
    if options.bound_s2 and len(s2) > g:  # P5
        return False
    beyond = view.known - s1 - (frozenset() if options.strict_p3 else s2)
    if sum(1 for member in s1 if view.pds[member] & beyond) > g:  # P3
        return False
    return is_k_strongly_connected(ref_induced_graph(view, s1), g + 1)  # P2


def ref_candidates(view, options):
    seen = set()
    received_graph = ref_induced_graph(view, frozenset(view.pds))
    components = strongly_connected_components(received_graph)
    sinks = sink_components(received_graph)
    ordered = sorted(sinks, key=len, reverse=True) + sorted(components, key=len, reverse=True)
    for component in sorted(sinks, key=len, reverse=True):
        members = sorted(component, key=repr)
        for removed_size in range(1, min(len(members) - 1, 3) + 1):
            ordered += [component - frozenset(r) for r in combinations(members, removed_size)]
    received = sorted(view.pds, key=repr)
    if len(received) <= options.exhaustive_limit:
        for size in range(len(received), 0, -1):
            ordered += [frozenset(subset) for subset in combinations(received, size)]
    for candidate in ordered:
        if candidate and candidate not in seen:
            seen.add(candidate)
            yield candidate


def ref_find_sink(view, f, options):
    for s1 in ref_candidates(view, options):
        s2 = ref_derived_s2(view, f, s1)
        if ref_is_sink(view, f, s1, s2, options):
            return SinkWitness(members=s1 | s2, s1=s1, s2=s2, f=f)
    return None


def ref_find_all_sinks(view, options, minimum_f=0):
    witnesses = {}
    for s1 in ref_candidates(view, options):
        for g in range((len(s1) - 1) // 2, minimum_f - 1, -1):
            s2 = ref_derived_s2(view, g, s1)
            if not ref_is_sink(view, g, s1, s2, options):
                continue
            existing = witnesses.get(s1 | s2)
            if existing is None or g > existing.f:
                witnesses[s1 | s2] = SinkWitness(members=s1 | s2, s1=s1, s2=s2, f=g)
    return sorted(witnesses.values(), key=lambda w: (-w.f, -len(w.members), sorted(map(repr, w.members))))


def ref_sink_star(view, members, options, minimum_f=0):
    missing = frozenset(node for node in members if node not in view.pds)
    for g in range((len(members) - 1) // 2, minimum_f - 1, -1):
        max_s2 = len(members) - (2 * g + 1)
        if options.bound_s2:
            max_s2 = min(max_s2, g)
        optional = sorted(members - missing, key=repr)
        for extra_size in range(max_s2 - len(missing) + 1):
            for extra in combinations(optional, extra_size):
                s2 = missing | frozenset(extra)
                if ref_is_sink(view, g, members - s2, s2, options):
                    return SinkWitness(members=members, s1=members - s2, s2=s2, f=g)
    return None


def ref_find_core(view, options):
    witnesses = ref_find_all_sinks(view, options)
    best = [w for w in witnesses if w.f == witnesses[0].f]  # empty stays empty
    if len(best) != 1:
        return None
    core = best[0]
    subview = view.subview(core.members)
    ordered = sorted(core.members, key=repr)
    for size in range(len(ordered) - 1, max(1, 2 * core.connectivity - 1) - 1, -1):
        for subset in combinations(ordered, size):
            if ref_sink_star(subview, frozenset(subset), options, minimum_f=core.f) is not None:
                return None
    return core


# ----------------------------------------------------------------------
# random views, Byzantine-shaped ones included
# ----------------------------------------------------------------------

#: ``10`` and ``11`` sort before ``2`` by ``repr``; ``99`` is never known.
POOL = (0, 1, 2, 3, 4, 5, 10, 11)


@st.composite
def views(draw):
    universe = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=7, unique=True))
    known = frozenset(draw(st.lists(st.sampled_from(universe), unique=True)))
    received = draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    # PD targets may be the owner itself, outside ``known`` and outside the view.
    targets = st.frozensets(st.sampled_from([*universe, 99]))
    dense = draw(st.booleans())
    pds = {
        node: frozenset(universe) - {node} if dense and draw(st.booleans()) else draw(targets)
        for node in received
    }
    return KnowledgeView(known=known, pds=pds)


options_strategy = st.builds(SearchOptions, strict_p3=st.booleans(), bound_s2=st.booleans())


@given(view=views(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_derived_s2_matches_the_definition_at_every_g(view, data):
    s1 = frozenset(data.draw(st.lists(st.sampled_from([*POOL, 99]), unique=True)))
    for g in range(-1, 5):
        assert derived_s2(view, g, s1) == ref_derived_s2(view, g, s1)


@given(view=views(), options=options_strategy, data=st.data())
@settings(max_examples=150, deadline=None)
def test_is_sink_gdi_matches_the_definition(view, options, data):
    s1 = frozenset(data.draw(st.lists(st.sampled_from([*POOL, 99]), min_size=1, unique=True)))
    g = data.draw(st.integers(min_value=-1, max_value=3))
    forced = ref_derived_s2(view, g, s1)
    for s2 in (forced, frozenset(data.draw(st.lists(st.sampled_from([*POOL, 99]), unique=True)))):
        kernel = is_sink_gdi(view, g, s1, s2, strict_p3=options.strict_p3, bound_s2=options.bound_s2)
        assert kernel == ref_is_sink(view, g, s1, s2, options)


@given(view=views(), options=options_strategy, minimum_f=st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_searches_return_the_reference_witnesses_in_order(view, options, minimum_f):
    assert find_all_sinks(view, options, minimum_f) == ref_find_all_sinks(view, options, minimum_f)
    assert find_sink_with_fault_threshold(view, minimum_f, options) == ref_find_sink(view, minimum_f, options)
    core = find_core_candidate(view, options)
    assert (None if core is None else core.witness) == ref_find_core(view, options)


@given(view=views(), options=options_strategy, data=st.data())
@settings(max_examples=150, deadline=None)
def test_sink_star_witness_matches_the_definition(view, options, data):
    members = frozenset(data.draw(st.lists(st.sampled_from(POOL), min_size=1, unique=True)))
    minimum_f = data.draw(st.integers(min_value=0, max_value=2))
    kernel = sink_star_witness(
        view, members, strict_p3=options.strict_p3, bound_s2=options.bound_s2, minimum_f=minimum_f
    )
    expected = None
    if members <= view.known | view.pds.keys():
        expected = ref_sink_star(view, members, options, minimum_f)
    assert kernel == expected


def test_heuristic_search_agrees_above_the_exhaustive_limit():
    # A K5 core, a Byzantine member claiming everything, and a tail: with
    # exhaustive_limit=0 only the SCC-seeded candidates are tried.
    pds = {node: frozenset(range(5)) - {node} for node in range(5)}
    pds[4] = frozenset(range(8)) - {4}
    pds[5] = frozenset({0, 1, 6})
    pds[6] = frozenset({5, 2})
    view = KnowledgeView(known=frozenset(range(8)), pds=pds)
    options = SearchOptions(exhaustive_limit=0)
    assert find_all_sinks(view, options) == ref_find_all_sinks(view, options)
    assert find_all_sinks(view, options)


def test_equal_sized_sinks_keep_the_order_of_the_set_based_search():
    # Two disjoint 3-cliques, both sinks for f = 1: which one is found first
    # depends on Tarjan's root order, and ``repr`` order (10 first) differs
    # from the reference's (2 first).
    cliques = ({2, 3, 4}, {10, 11, 5})
    pds = {node: frozenset(clique - {node}) for clique in cliques for node in clique}
    view = KnowledgeView(known=frozenset(pds), pds=pds)
    options = SearchOptions(exhaustive_limit=0)
    found = find_sink_with_fault_threshold(view, 1, options)
    assert found is not None and found == ref_find_sink(view, 1, options)
    assert find_all_sinks(view, options) == ref_find_all_sinks(view, options)


# ----------------------------------------------------------------------
# vertical counters
# ----------------------------------------------------------------------


def _rows_with_counts(counts):
    """Rows such that position ``p`` is contained in exactly ``counts[p]`` of them."""
    return [
        sum(1 << position for position, count in enumerate(counts) if count > row)
        for row in range(max(counts, default=0))
    ]


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 6, 7, 8, 9, 15, 16, 100])
def test_above_at_plane_boundaries(g):
    counts = [0, 1, 2, 3, 4, 5, 7, 8, 9]  # 2**k - 1, 2**k and their neighbours; max 9 needs 4 planes
    planes = count_planes(_rows_with_counts(counts))
    assert len(planes) == 4
    expected = sum(1 << position for position, count in enumerate(counts) if count > g)
    assert above(planes, g) == expected


def test_counters_of_nothing():
    assert count_planes([]) == []
    assert count_planes([0, 0]) == []
    assert above([], 0) == 0
    assert above([], 5) == 0


@given(rows=st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=20), g=st.integers(0, 40))
def test_counters_match_a_plain_count(rows, g):
    expected = sum(1 << p for p in range(12) if sum(row >> p & 1 for row in rows) > g)
    assert above(count_planes(rows), g) == expected


def test_index_orders_bits_by_repr_and_drops_what_no_predicate_reads():
    index = ViewIndex(frozenset({2, 10}), {2: frozenset({2, 10, 99}), 11: frozenset({2})})
    assert index.ids == [10, 11, 2]
    assert [index.nodes(bit) for bit in bits(index.known)] == [{10}, {2}]
    assert index.nodes(index.received) == {2, 11}
    # 2's PD: the self-loop and the process outside the view are gone.
    assert index.nodes(index.pd[2]) == {10}
    assert index.mask([2, 99]) == index.bit_of[2]
