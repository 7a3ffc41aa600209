"""The bitmask kernel against a definition-level reference written with sets only.

The reference below states P1-P5, the candidate enumeration and the core rule
straight from the docstrings of :mod:`repro.graphs.predicates` and
:mod:`repro.graphs.sink_search` (it is the set-based search the kernel
replaced), so agreement on random views -- including Byzantine-shaped ones --
pins both the results and the "first S1 with maximal g wins" order.
"""

import os
import random
from itertools import combinations, pairwise

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
from repro.graphs import view_index
from repro.graphs.view_index import ViewIndex, above, add_row, bits, count_planes

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
# deterministic sweep: 150 hypothesis examples demonstrably miss a wrong prune
# ----------------------------------------------------------------------

ALL_OPTIONS = [
    SearchOptions(strict_p3=strict, bound_s2=bound) for strict in (False, True) for bound in (True, False)
]


def random_view(rng):
    """At most six processes, sparse or dense, PDs naming unknown, unreceived and out-of-view ones."""
    universe = rng.sample(POOL, rng.randint(2, 6))
    keep = rng.choice([0.5, 0.9, 1.0])
    known = frozenset(node for node in universe if rng.random() < keep)
    received = [node for node in universe if rng.random() < keep] or universe[:1]
    density = rng.choice([0.2, 0.5, 0.8, 1.0])
    return KnowledgeView(
        known=known,
        pds={node: frozenset(t for t in [*universe, 99] if rng.random() < density) for node in received},
    )


def layered_view(rng):
    """Two or three near-cliques in a row whose other edges only run forward: several SCCs.

    ``random_view`` draws uniform-density digraphs, which are almost always one
    SCC.  Half the time one record claims everybody (``lying_pd``): drawn from
    the first layer it bridges the cliques one way, from a later one it merges
    them.  Up to seven processes, some unknown, some without a received PD.
    """
    universe = rng.sample(POOL, rng.randint(4, 7))
    cuts = sorted(rng.sample(range(1, len(universe)), rng.randint(1, 2)))
    layers = [universe[a:b] for a, b in pairwise([0, *cuts, len(universe)])]
    forward = rng.choice([0.2, 0.6, 1.0])
    pds = {}
    for depth, layer in enumerate(layers):
        later = [node for layer_after in layers[depth + 1 :] for node in layer_after]
        for node in layer:
            inside = [t for t in layer if t != node and rng.random() < 0.9]
            pds[node] = frozenset(inside + [t for t in [*later, 99] if rng.random() < forward])
    if rng.random() < 0.5:
        pds[rng.choice(universe)] = frozenset([*universe, 99])
    for node in universe[1:]:
        if rng.random() < 0.1:
            del pds[node]
    return KnowledgeView(known=frozenset(node for node in universe if rng.random() < 0.9), pds=pds)


def ref_components(view):
    return strongly_connected_components(ref_induced_graph(view, frozenset(view.pds)))


def sweep_views(uniform, layered):
    """The first ``uniform`` views of one fixed-seed sequence, then the first ``layered`` of another."""
    rng = random.Random(16)
    yield from (random_view(rng) for _ in range(uniform))
    rng = random.Random(21)
    yield from (layered_view(rng) for _ in range(layered))


#: Tier-1 runs a prefix of both sequences (~6 s); the whole of them (~45 s) is its own CI step.
SWEEP_SIZE = (2000, 400) if os.environ.get("REPRO_FULL_SWEEP") else (300, 60)


@pytest.fixture
def remembered_max_flow(monkeypatch):
    """Remember the reference's max-flow by graph content.

    It is pure, and the reference meets the same small induced graphs again
    and again across options, subsets and views.
    """
    connected = {}
    max_flow = is_k_strongly_connected

    def remembered(graph, k):
        key = (frozenset(graph.pd_map().items()), k)
        if key not in connected:
            connected[key] = max_flow(graph, k)
        return connected[key]

    monkeypatch.setitem(globals(), "is_k_strongly_connected", remembered)


def test_fixed_seed_sweep_matches_the_reference(remembered_max_flow):
    for view in sweep_views(*SWEEP_SIZE):
        members = sorted(view.known | view.pds.keys(), key=repr)
        subsets = [frozenset(c) for size in range(1, len(members) + 1) for c in combinations(members, size)]
        for options in ALL_OPTIONS:
            flags = {"strict_p3": options.strict_p3, "bound_s2": options.bound_s2}
            core = find_core_candidate(view, options)
            assert (None if core is None else core.witness) == ref_find_core(view, options), (view, options)
            for minimum_f in (0, 1):
                case = (view, options, minimum_f)
                expected = ref_find_all_sinks(view, options, minimum_f)
                assert find_all_sinks(view, options, minimum_f) == expected, case
                assert find_sink_with_fault_threshold(view, minimum_f, options) == ref_find_sink(
                    view, minimum_f, options
                ), case
                for subset in subsets:
                    kernel = sink_star_witness(view, subset, minimum_f=minimum_f, **flags)
                    assert kernel == ref_sink_star(view, subset, options, minimum_f), (case, subset)


def test_no_reference_hit_meets_two_components(remembered_max_flow):
    # What confines the enumeration to one SCC (DESIGN.md, "Graph core":
    # Enumeration), checked on the definition, not on the kernel: with P5 or
    # without, at g = 0 too, an S1 of several processes that is a hit for
    # some g lies inside one SCC of the received-PD graph.
    spanning = hits = 0
    for view in sweep_views(300, 300):
        components = ref_components(view)
        received = sorted(view.pds, key=repr)
        for size in range(2, len(received) + 1):
            for s1 in map(frozenset, combinations(received, size)):
                inside_one = any(s1 <= component for component in components)
                spanning += not inside_one
                for options in ALL_OPTIONS:
                    for g in range((size - 1) // 2 + 1):
                        if ref_is_sink(view, g, s1, ref_derived_s2(view, g, s1), options):
                            hits += 1
                            assert inside_one, (view, options, g, s1)
    assert spanning > 5000 and hits > 5000  # the views do put the claim to the test


# ----------------------------------------------------------------------
# the prefix-tree enumeration
# ----------------------------------------------------------------------


def count_splits(monkeypatch):
    """Spy on the one evaluation of P1-P5: the ``(S1, top, lowest)`` of every call."""
    calls = []
    evaluate = ViewIndex._splits

    def spy(self, s1, rows, planes, top, lowest, *flags):
        calls.append((s1, top, lowest))
        return evaluate(self, s1, rows, planes, top, lowest, *flags)

    monkeypatch.setattr(ViewIndex, "_splits", spy)
    return calls


def sccs(index):
    """The SCC masks of the received-PD graph, as ``_sink_hits`` hands them to the walk."""
    return index.components(index.nodes(index.received))[0]


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=repr)
def test_subset_splits_is_combinations_plus_sink_splits(options):
    # ``expected`` asks sink_splits about every subset of ``received``: the
    # walk, which only builds those inside one SCC, must lose no hit and keep
    # the order.  The layered views have two or three SCCs of several members.
    flags = {"strict_p3": options.strict_p3, "bound_s2": options.bound_s2}
    rng = random.Random(7)
    for make_view in [random_view] * 150 + [layered_view] * 100:
        index = make_view(rng).index()
        received = list(bits(index.received))
        subsets = [sum(c) for size in range(len(received), 0, -1) for c in combinations(received, size)]
        skip = set(rng.sample(subsets, len(subsets) // 3))
        for highest, lowest in ((len(index.ids), 0), (1, 1), (2, -1)):
            expected = [
                (s1, g, s2)
                for s1 in subsets
                if s1 not in skip
                for g, s2 in index.sink_splits(s1, highest, lowest, **flags)
            ]
            assert list(index.subset_splits(sccs(index), highest, lowest, skip=skip, **flags)) == expected


def test_a_search_for_one_f_evaluates_no_other_g(monkeypatch):
    calls = count_splits(monkeypatch)
    pds = {node: frozenset(range(7)) - {node} for node in range(7)}
    index = ViewIndex(frozenset(range(7)), pds)
    hits = list(index.subset_splits(sccs(index), 2, 2, strict_p3=False, bound_s2=True, skip=set()))
    assert {g for _, g, _ in hits} == {2}
    # P1 at g = 2 needs five members: 1 + 7 + 21 subsets, none asked about another g.
    assert len(calls) == 29 and {(top, lowest) for _, top, lowest in calls} == {(2, 2)}


def test_the_walk_builds_no_subset_that_meets_two_components(monkeypatch):
    # Nine processes in an acyclic layer (each names the later ones) that all
    # name a complete 3-core: ten SCCs among twelve received PDs.  Of the 4,095
    # subsets only the 7 inside the core and the 9 other singletons are leaves,
    # and only the prefixes of the core's subsets are folded.
    core = frozenset({9, 10, 11})
    pds = {node: frozenset(range(node + 1, 12)) for node in range(9)}
    pds.update({node: core - {node} for node in core})
    view = KnowledgeView(known=frozenset(range(12)), pds=pds)
    index = view.index()
    inside = index.mask(core)
    folds = []
    monkeypatch.setattr(view_index, "add_row", lambda planes, row: folds.append(row) or add_row(planes, row))
    calls = count_splits(monkeypatch)
    list(index.subset_splits(sccs(index), 12, 0, strict_p3=False, bound_s2=False, skip=set()))
    walked = [s1 for s1, _, _ in calls]
    pairs = [sum(pair) for pair in combinations(bits(inside), 2)]
    assert walked == [inside, *pairs, *bits(index.received)]
    assert len(folds) == 3 + 5 + 12  # size 3: one path; size 2: two roots, three leaves; then the singletons
    # Through the search every one of the sixteen is a seed: phase 3 evaluates nothing.
    del calls[:]
    assert find_all_sinks(view, SearchOptions(bound_s2=False))[0].members == core
    assert sorted(s1 for s1, _, _ in calls) == sorted(walked)


def test_add_row_adds_one_to_the_counts_of_its_row_and_copies():
    def counts(planes):
        return [sum((plane >> position & 1) << k for k, plane in enumerate(planes)) for position in range(12)]

    rng = random.Random(3)
    for _ in range(200):
        rows = [rng.getrandbits(12) for _ in range(rng.randint(0, 9))]
        planes = count_planes(rows)
        before = list(planes)
        row = rng.choice([0, rng.getrandbits(12)])
        grown = add_row(planes, row)
        assert counts(grown) == [count + (row >> p & 1) for p, count in enumerate(counts(planes))]
        assert grown == count_planes([*rows, row])
        assert planes == before and grown is not planes  # siblings in the prefix tree share it


def test_find_sink_stops_walking_at_the_first_hit(monkeypatch):
    # A 4-clique on a ring 1 -> 5 -> 6 -> 7 -> 0 -> 1: one SCC of eight, and
    # shaking off three members never isolates the clique, so every seed fails
    # and the sink for f = 1 is the 36th 4-subset the walk reaches.
    clique = {1, 2, 3, 4}
    pds = {node: frozenset(clique - {node}) for node in clique}
    pds[1] |= {5}
    pds.update({5: frozenset({6}), 6: frozenset({7}), 7: frozenset({0}), 0: frozenset({1})})
    view = KnowledgeView(known=frozenset(range(8)), pds=pds)
    calls = count_splits(monkeypatch)
    found = find_sink_with_fault_threshold(view, 1)
    assert found is not None and found.s1 == clique and not found.s2
    seeds = 1 + 8 + 28 + 56  # the SCC less up to three members: every subset of 5+ is a seed
    walked = [s1 for s1, _, _ in calls[seeds:]]
    assert len(walked) == 36 and all(s1.bit_count() == 4 for s1 in walked)
    assert walked[-1] == view.index().mask(clique)  # nothing after the hit


def test_find_sink_stops_at_the_first_hit_in_a_component_that_is_not_a_sink(monkeypatch):
    # Two competing cliques.  {1, 2, 3, 4} sits on a ring 1 -> 5 -> 6 -> 0 -> 1
    # (an SCC of seven) and process 1 also claims the whole other clique
    # {7, 8, 9}, which does not answer: a one-way bridge, so {7, 8, 9} is the
    # sink SCC.  Each of its members names a stranger of its own, so P3 fails
    # it for f = 1, and the SCC of seven fails too: both seeds miss.  The walk
    # never builds a subset of eight or more, nor one that crosses the bridge;
    # the sink is the 21st 4-subset of the seven.
    clique = {1, 2, 3, 4}
    pds = {node: frozenset(clique - {node}) for node in clique}
    pds[1] |= {5, 7, 8, 9}
    pds.update({5: frozenset({6}), 6: frozenset({0}), 0: frozenset({1})})
    pds.update({node: frozenset({7, 8, 9, 100 + node} - {node}) for node in (7, 8, 9)})
    view = KnowledgeView(known=frozenset(pds) | {107, 108, 109}, pds=pds)
    seven = view.index().mask(range(7))
    calls = count_splits(monkeypatch)
    found = find_sink_with_fault_threshold(view, 1)
    assert found is not None and found.s1 == clique and not found.s2
    assert found == ref_find_sink(view, 1, SearchOptions())
    walked = [s1 for s1, _, _ in calls[2:]]  # after the two SCCs; P1 rules out the smaller seeds unasked
    assert [s1.bit_count() for s1 in walked] == [6] * 7 + [5] * 21 + [4] * 21
    assert all(s1 & ~seven == 0 for s1 in walked)
    assert walked[-1] == view.index().mask(clique)  # nothing after the hit


def test_twelve_members_that_all_fail_the_pre_check_evaluate_no_leaf(monkeypatch):
    # Every received PD names six known processes without a received PD: P1
    # caps g at 5, so no member is in ``few`` and the pre-check, which allows
    # S1 at most g such members, rejects every subset at its first prefix.
    strangers = frozenset(range(100, 106))
    pds = {node: frozenset(range(12)) - {node} | strangers for node in range(12)}
    view = KnowledgeView(known=frozenset(range(12)) | strangers, pds=pds)
    calls = count_splits(monkeypatch)
    assert find_all_sinks(view) == []
    assert find_sink_with_fault_threshold(view, 1) is None
    assert calls == []


def test_repeated_ids_fold_into_a_mask_with_or():
    # A PD handed over as a list with a repeat: sum() of the bits carried
    # into process 4's bit and the sink {1, 2, 3} was lost.
    view = KnowledgeView(known={1, 2, 3, 4}, pds={1: [2, 3, 2], 2: [1, 3], 3: [1, 2]})
    assert view.index().nodes(view.index().pd[0]) == {2, 3}
    assert frozenset({1, 2, 3}) in {witness.members for witness in find_all_sinks(view)}
    assert derived_s2(view, 0, [1, 1, 2]) == {3}
    assert view.index().mask([1, 1, 99, 1]) == view.index().bit_of[1]


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
