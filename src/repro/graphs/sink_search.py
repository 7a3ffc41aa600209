"""Searching for sinks (and the core) inside a knowledge view.

The predicates in :mod:`repro.graphs.predicates` *check* whether a given set
of processes is a sink.  The online Sink and Core algorithms, the static
oracle and the extended-OSR checker additionally need to *find* candidate
sets.  Exhaustive enumeration of all subsets is exponential, so the search
below combines:

* **SCC seeding** -- the natural candidates are the sink strongly connected
  components of the graph induced by the received PDs (the proof of
  Theorem 3 constructs ``S1`` from exactly such a component), optionally
  with up to ``f`` members removed (Byzantine processes may advertise PDs
  that merge them into, or out of, the component);
* **bounded exhaustive enumeration** -- for small views (the paper's figures
  have 7-9 processes) every subset that lies inside one SCC is tried (P2
  rules out the others), which both guarantees completeness in tests and
  serves as a reference implementation for the heuristic search.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, combinations, islice

from repro.graphs.knowledge_graph import ProcessId
from repro.graphs.predicates import KnowledgeView, SinkWitness
from repro.graphs.search_memo import SinkSearchMemo, sink_search_memo
from repro.graphs.view_index import ViewIndex, bits

#: Views with at most this many received processes are searched exhaustively.
DEFAULT_EXHAUSTIVE_LIMIT = 12

#: Safety valve for the combinatorial parts of the heuristic search.
DEFAULT_MAX_SUBSETS = 50_000


@dataclass(frozen=True, slots=True)
class SearchOptions:
    """Tuning knobs shared by every sink-search entry point."""

    strict_p3: bool = False
    bound_s2: bool = True
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    max_subsets: int = DEFAULT_MAX_SUBSETS


#: The options of every search whose caller passes none (the protocol's).
_DEFAULT_OPTIONS = SearchOptions()


def _sink_hits(
    view: KnowledgeView, options: SearchOptions, highest: int, lowest: int
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(S1, g, S2)`` with ``isSinkGdi(g, S1, S2)``, as masks, in candidate order.

    Candidate ``S1`` sets, most promising first and each tried once, are the
    sink SCCs of the received-PD graph, then every SCC, then the sink SCCs
    with small subsets removed (to shake off Byzantine processes whose
    claimed PDs merged them into the component) and -- for small views --
    every subset of a single SCC: P2 makes an ``S1`` of several processes
    strongly connected, so no other subset of the received processes can be
    a hit.  Per candidate, ``g`` falls from ``highest`` to ``lowest``.
    """
    index = view.index()
    # Tarjan's root order is the one the set-based search had (iteration
    # order of this set).  It only decides the order of equal-sized
    # components below, never which ones exist.
    components, sinks = index.components(set(view.received))

    # 1. Sink SCCs of the received graph, then (in ``seeded``) every SCC.
    largest_first = sorted(sinks, key=int.bit_count, reverse=True)

    # 2. Sink SCCs with up to a few members removed.  A Byzantine process can
    #    claim a PD that merges it with the genuine sink component; removing
    #    it restores a candidate whose connectivity is computable.
    removals = (
        component - sum(removed)
        for component in largest_first
        for size in range(1, min(component.bit_count() - 1, 3) + 1)
        for removed in combinations(list(bits(component)), size)
    )
    seeded = chain(
        largest_first,
        sorted(components, key=int.bit_count, reverse=True),
        islice(removals, max(options.max_subsets - 1, 0)),
    )
    flags = {"strict_p3": options.strict_p3, "bound_s2": options.bound_s2}
    seen: set[int] = set()
    for s1 in seeded:
        if s1 not in seen:
            seen.add(s1)
            for g, s2 in index.sink_splits(s1, highest, lowest, **flags):
                yield s1, g, s2

    # 3. Bounded exhaustive enumeration for small views (reference search):
    #    every subset of one SCC the seeds did not cover.  A subset meeting
    #    two SCCs is not strongly connected, so P2 fails it at every g.
    if index.received.bit_count() <= options.exhaustive_limit:
        yield from index.subset_splits(components, highest, lowest, skip=seen, **flags)


def _witness(index: ViewIndex, g: int, s1: int, s2: int) -> SinkWitness:
    return SinkWitness(members=index.nodes(s1 | s2), s1=index.nodes(s1), s2=index.nodes(s2), f=g)


def find_sink_with_fault_threshold(
    view: KnowledgeView,
    f: int,
    options: SearchOptions | None = None,
) -> SinkWitness | None:
    """Line 3 of Algorithm 2: find ``S1, S2`` with ``isSinkGdi(f, S1, S2)``.

    Returns a witness (whose ``members`` are ``S1 ∪ S2``, i.e. the sink the
    algorithm returns) or ``None`` when the current view does not yet allow
    the sink to be identified.
    """
    for s1, g, s2 in _sink_hits(view, options or _DEFAULT_OPTIONS, f, f):
        return _witness(view.index(), g, s1, s2)
    return None


def find_all_sinks(
    view: KnowledgeView,
    options: SearchOptions | None = None,
    minimum_f: int = 0,
) -> list[SinkWitness]:
    """Return every distinct sink* set discoverable from the view.

    For each candidate ``S1`` and each fault value ``g`` (from large to
    small), the derived ``S2`` is computed and the predicate checked; each
    distinct member set is reported once, with the witness realising its
    maximum ``g`` (i.e. ``f_Gdi``) -- the first such ``S1`` in candidate
    order.
    """
    index = view.index()
    best: dict[int, tuple[int, int, int]] = {}
    # every g that P1 allows, down to minimum_f
    for s1, g, s2 in _sink_hits(view, options or _DEFAULT_OPTIONS, len(index.ids), minimum_f):
        existing = best.get(s1 | s2)
        if existing is None or g > existing[0]:
            best[s1 | s2] = (g, s1, s2)
    witnesses = [_witness(index, *split) for split in best.values()]
    return sorted(witnesses, key=lambda w: (-w.f, -len(w.members), sorted(map(repr, w.members))))


def strongest_sinks(
    view: KnowledgeView,
    options: SearchOptions | None = None,
) -> list[SinkWitness]:
    """Return the sinks with maximal connectivity among all discoverable sinks."""
    witnesses = find_all_sinks(view, options)
    if not witnesses:
        return []
    best = witnesses[0].f
    return [witness for witness in witnesses if witness.f == best]


def has_stronger_subsink(
    view: KnowledgeView,
    members: Iterable[ProcessId],
    connectivity: int,
    options: SearchOptions | None = None,
) -> bool:
    """Theorem 8(b): is there ``V ⊂ members`` with ``isSink*(V)`` and ``k_Gdi(V) >= connectivity``?

    Only proper subsets are considered.  A subset with connectivity
    ``connectivity`` needs at least ``2*connectivity - 1`` processes, so the
    enumeration is restricted to subsets whose size lies in
    ``[2*connectivity - 1, |members| - 1]``.
    """
    options = options or _DEFAULT_OPTIONS
    member_set = frozenset(members)
    index = view.subview(member_set).index()
    unknown = member_set - index.bit_of.keys()
    if unknown:
        raise KeyError(f"processes outside the view: {sorted(map(repr, unknown))}")
    inside = index.mask(member_set)
    # The scan is a pure function of the view restricted to the member set
    # (every predicate below only reads that part), the connectivity and the
    # options.  The core locator re-runs this scan on every view change until
    # the core is found, and typically only the PDs *outside* the tentative
    # core changed -- making this the single most profitable memoisation
    # point of the core path.
    memo = sink_search_memo()
    key = ("subsink", connectivity, options, *index.content(inside))
    cached = memo.lookup(key)
    if cached is not SinkSearchMemo._MISS:
        return bool(cached)
    ordered = list(bits(inside))
    subsets = (
        sum(subset)
        for size in range(len(ordered) - 1, max(1, 2 * connectivity - 1) - 1, -1)
        for subset in combinations(ordered, size)
    )
    # Any witness found has f >= connectivity - 1, i.e. is strong enough.
    result = any(
        index.sink_star(subset, connectivity - 1, strict_p3=options.strict_p3, bound_s2=options.bound_s2)
        for subset in islice(subsets, max(options.max_subsets, 0))
    )
    memo.store(key, result)
    return result


@dataclass(frozen=True, slots=True)
class CoreWitness:
    """A core identification: the sink witness plus the connectivity used."""

    witness: SinkWitness

    @property
    def members(self) -> frozenset[ProcessId]:
        return self.witness.members

    @property
    def connectivity(self) -> int:
        return self.witness.connectivity

    @property
    def estimated_f(self) -> int:
        """The fault-threshold estimate ``f_Gdi`` derived from the core."""
        return self.witness.f


def find_core_candidate(
    view: KnowledgeView,
    options: SearchOptions | None = None,
) -> CoreWitness | None:
    """Line 2 of Algorithm 4 (as clarified in DESIGN.md, "Core rule").

    Returns a core witness when the current view contains a sink ``S`` such
    that (a) ``S`` has the strictly maximal connectivity among every sink
    discoverable from the view and (b) no proper subset of ``S`` is a sink
    with connectivity ``>= k_Gdi(S)``.  Returns ``None`` otherwise (the
    caller keeps discovering).
    """
    options = options or _DEFAULT_OPTIONS
    best = strongest_sinks(view, options)
    if len(best) != 1:
        # No sink at all, or a tie: the core (which must be strictly the
        # strongest, Property C1) cannot be identified yet.
        return None
    witness = best[0]
    if has_stronger_subsink(view, witness.members, witness.connectivity, options):
        return None
    return CoreWitness(witness=witness)


__all__ = [
    "SearchOptions",
    "CoreWitness",
    "find_sink_with_fault_threshold",
    "find_all_sinks",
    "strongest_sinks",
    "has_stronger_subsink",
    "find_core_candidate",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_MAX_SUBSETS",
]
