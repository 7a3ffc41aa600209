"""Dense-index bitmask form of a knowledge view: the kernel under the predicates.

Every process of a view (``known ∪ received``) gets one bit, assigned in
``repr`` order, so walking a mask from its lowest bit visits processes in the
order the set-based code used to ``sorted(..., key=repr)``.  A set of
processes is a Python ``int``; ``pd[b]`` is the (claimed) participant
detector of the process at bit ``b`` (0 when its PD was not received).

The predicates P1-P5 of :mod:`repro.graphs.predicates` are evaluated here,
once, by :meth:`ViewIndex._splits`: for one candidate through
:meth:`ViewIndex.sink_splits`, for every subset of each SCC of a small view
through :meth:`ViewIndex.subset_splits`.  The in-neighbour counts of a candidate
``S1`` do not depend on the fault value ``g``, so they are folded once into
bit-sliced ("vertical") counters -- per candidate, or per shared prefix of
the enumeration -- and every ``S2(g)`` is read off those counters (see
DESIGN.md, "Graph core").
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Set
from functools import reduce
from itertools import combinations
from operator import or_

from repro.graphs.connectivity import is_k_strongly_connected
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.graphs.search_memo import SinkSearchMemo, sink_search_memo


def add_row(planes: list[int], carry: int) -> list[int]:
    """``planes`` with one more row folded in (a ripple-carry add), as a new list.

    The argument is left as it was: prefixes of the enumeration share theirs.
    """
    grown = []
    for plane in planes:
        grown.append(plane ^ carry)
        carry &= plane
    if carry:
        grown.append(carry)
    return grown


def count_planes(rows: Iterable[int]) -> list[int]:
    """Fold masks into vertical counters.

    Bit ``b`` of ``planes[k]`` is bit ``k`` of the number of ``rows`` that
    contain ``b``.
    """
    return reduce(add_row, rows, [])


def above(planes: list[int], g: int) -> int:
    """Mask of the positions whose count in ``planes`` exceeds ``g`` (``g >= 0``)."""
    if g >> len(planes):
        return 0  # no counter can hold a value above 2**len(planes) - 1
    greater = 0
    equal = -1  # positions whose high bits so far equal those of g
    for k in range(len(planes) - 1, -1, -1):
        if g >> k & 1:
            equal &= planes[k]
        else:
            greater |= equal & planes[k]
            equal &= ~planes[k]
    return greater


def bits(mask: int) -> Iterator[int]:
    """The single-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class ViewIndex:
    """A knowledge view as masks: ``known``, ``received`` and one PD mask per bit."""

    __slots__ = ("ids", "bit_of", "known", "received", "pd", "_few")

    def __init__(self, known: Iterable[ProcessId], pds: Mapping[ProcessId, Iterable[ProcessId]]) -> None:
        self.ids: list[ProcessId] = sorted({*known, *pds}, key=repr)
        self.bit_of: dict[ProcessId, int] = {node: 1 << b for b, node in enumerate(self.ids)}
        self.known = self.mask(known)
        self.received = self.mask(pds)
        # No predicate reads a PD target outside the view (it is neither
        # received nor known) or a self-loop: mask() and ``& ~bit`` drop them.
        self.pd = [0] * len(self.ids)
        for node, targets in pds.items():
            bit = self.bit_of[node]
            self.pd[bit.bit_length() - 1] = self.mask(targets) & ~bit
        self._few: dict[int, int] = {}

    def mask(self, nodes: Iterable[ProcessId]) -> int:
        """Mask of ``nodes`` (repeats allowed); processes outside the view are dropped."""
        bit_of = self.bit_of
        return reduce(or_, (bit_of[node] for node in nodes if node in bit_of), 0)

    def nodes(self, mask: int) -> frozenset[ProcessId]:
        ids = self.ids
        return frozenset(ids[bit.bit_length() - 1] for bit in bits(mask))

    def content(self, members: int) -> tuple[object, ...]:
        """Position-independent content of the view restricted to ``members``.

        Member ids in bit order, then ``known``, ``received`` and each
        member's PD re-indexed to positions inside ``members``: equal for
        two views exactly when they agree on ``members``, whatever else they
        contain, so it keys the memo entries that only read that part.
        """
        local = {bit: 1 << position for position, bit in enumerate(bits(members))}
        rows = [self.pd[bit.bit_length() - 1] & members for bit in local]
        return (
            tuple(self.ids[bit.bit_length() - 1] for bit in local),
            sum(local[bit] for bit in bits(self.known & members)),
            sum(local[bit] for bit in bits(self.received & members)),
            tuple(sum(local[bit] for bit in bits(row)) for row in rows),
        )

    def induced_graph(self, members: int) -> KnowledgeGraph:
        """The graph induced by ``members`` using the received PDs."""
        positions = [bit.bit_length() - 1 for bit in bits(members)]
        return KnowledgeGraph({self.ids[b]: self.nodes(self.pd[b] & members) for b in positions})

    def components(self, roots: Iterable[ProcessId]) -> tuple[list[int], list[int]]:
        """``(components, sinks)`` of the received-PD graph, as masks.

        Iterative Tarjan over bit positions, visiting ``roots`` in the given
        order and successors lowest bit first; ``sinks`` keeps the relative
        order of ``components``.
        """
        succ = [row & self.received for row in self.pd]
        order = [-1] * len(succ)
        low = [0] * len(succ)
        stack: list[int] = []
        on_stack = 0
        counter = 0
        components: list[int] = []
        sinks: list[int] = []
        for root in roots:
            start = self.bit_of[root].bit_length() - 1
            if order[start] >= 0:
                continue
            work = [(start, succ[start])]
            while work:
                node, rest = work.pop()
                if order[node] < 0:
                    order[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack |= 1 << node
                descended = False
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    target = bit.bit_length() - 1
                    if order[target] < 0:
                        work.append((node, rest))
                        work.append((target, succ[target]))
                        descended = True
                        break
                    if on_stack & bit:
                        low[node] = min(low[node], order[target])
                if descended:
                    continue
                if low[node] == order[node]:
                    component = reach = 0
                    while True:
                        member = stack.pop()
                        component |= 1 << member
                        reach |= succ[member]
                        if member == node:
                            break
                    on_stack &= ~component
                    components.append(component)
                    if not reach & ~component:
                        sinks.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components, sinks

    def derived_s2(self, s1: int, g: int) -> int:
        """P4: the known processes outside ``s1`` with more than ``g >= 0`` in-neighbours in it."""
        rows = [self.pd[bit.bit_length() - 1] for bit in bits(s1)]
        return above(count_planes(rows), g) & self.known & ~s1

    def sink_splits(
        self, s1: int, highest: int, lowest: int, *, strict_p3: bool, bound_s2: bool
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(g, S2(g))`` for each ``g`` with ``isSinkGdi(g, S1, S2(g))``.

        ``g`` runs from ``highest`` (or the largest value P1 allows) down to
        ``lowest`` (or 0); ``s1`` is a non-empty subset of ``received``.
        """
        size = s1.bit_count()
        top = min(highest, (size - 1) // 2)  # P1: |S1| >= 2g + 1
        lowest = max(lowest, 0)
        if top < lowest:
            return
        # P3 and P5 leave at least |S1| - g members naming at most g known
        # processes outside S1, and one without a received PD is outside
        # every S1.  Monotone in g, so failing at the top g rules out the rest
        # before any counting (DESIGN.md, "Graph core").
        if bound_s2 and (s1 & ~self._few_unreceived(top)).bit_count() > top:
            return
        rows = [self.pd[bit.bit_length() - 1] for bit in bits(s1)]
        yield from self._splits(s1, rows, count_planes(rows), top, lowest, strict_p3, bound_s2)

    def subset_splits(
        self,
        components: Iterable[int],
        highest: int,
        lowest: int,
        *,
        strict_p3: bool,
        bound_s2: bool,
        skip: Set[int],
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(S1, g, S2(g))`` as :meth:`sink_splits` would for every ``S1`` inside one of ``components``.

        ``components`` are the SCCs of the received-PD graph
        (:meth:`components`).  P2 makes an ``S1`` of several members strongly
        connected, so one that meets two of them yields nothing and is never
        built (DESIGN.md, "Graph core": Enumeration).  The subsets that are
        left -- every single process is one -- come largest first and, within
        a size, in the order ``combinations`` emits the subsets of
        ``received``; those in ``skip`` are left out.  Each size class is
        walked depth-first as a prefix tree: the first member of a prefix
        fixes the component the later ones are drawn from, the counters of a
        prefix are folded once for every subset extending it, and a prefix
        goes with its whole subtree when its component has too few members
        left to reach the size or no extension can pass the
        :meth:`sink_splits` pre-check.
        """
        lowest = max(lowest, 0)
        members = list(bits(self.received))
        pds = [self.pd[bit.bit_length() - 1] for bit in members]
        scc = {bit: component for component in components for bit in bits(component)}
        home = [scc[bit] for bit in members]  # home[j]: the component of member j
        # ahead[j]: the members of j's component after j
        ahead = [(home[j] & -bit).bit_count() - 1 for j, bit in enumerate(members)]
        for size in range(max(map(int.bit_count, home), default=0), 0, -1):
            top = min(highest, (size - 1) // 2)  # P1
            if top < lowest:
                continue
            # The pre-check allows S1 at most ``top`` members outside ``few``:
            # such a member costs 1, the others are free.
            few = self._few_unreceived(top) if bound_s2 else -1
            cost = [0 if bit & few else 1 for bit in members]
            free = [0] * len(members)  # free[j]: the free members after j
            for j in range(len(members) - 1, 0, -1):
                free[j - 1] = free[j] + 1 - cost[j]
            rows = [0] * size  # the PD masks along the current path
            # One frame per prefix still to extend: the next member to try,
            # then S1, what was spent on it, its counters and the component
            # it draws from (any, until it has a first member).
            stack: list[tuple[int, int, int, list[int], int]] = [(0, 0, 0, [], -1)]
            while stack:
                first, s1, spent, planes, scope = stack.pop()
                depth = len(stack)
                need = size - depth - 1  # members still to choose below this one
                for j in range(first, len(members) - need):
                    if not members[j] & scope or ahead[j] < need:
                        continue  # another component, or one too small to supply ``need`` more
                    total = spent + cost[j]
                    if total > top or free[j] + top - total < need:
                        continue  # over the allowance, or bound to be before ``size`` members are chosen
                    rows[depth] = pds[j]
                    child = s1 | members[j]
                    grown = add_row(planes, pds[j])
                    if need:
                        stack += (j + 1, s1, spent, planes, scope), (j + 1, child, total, grown, home[j])
                        break  # down into the child; its later siblings wait on the stack
                    if child not in skip:
                        for g, s2 in self._splits(child, rows, grown, top, lowest, strict_p3, bound_s2):
                            yield child, g, s2

    def _splits(
        self,
        s1: int,
        rows: list[int],
        planes: list[int],
        top: int,
        lowest: int,
        strict_p3: bool,
        bound_s2: bool,
    ) -> Iterator[tuple[int, int]]:
        """The one place P1-P5 (:func:`repro.graphs.predicates.is_sink_gdi`) are evaluated.

        ``rows`` are the PD masks of the members of ``s1`` and ``planes`` their
        fold; ``top`` is the largest ``g`` P1 allows.  One fold serves P4
        (counts outside S1) and the in-degree half of the P2 pre-check (counts
        inside S1): both ask "count > g".
        """
        several = len(rows) > 1  # a single process is k-connected for every k
        outside = self.known & ~s1
        for g in range(top, lowest - 1, -1):
            high = above(planes, g)
            s2 = high & outside  # P4 holds by construction
            if bound_s2 and s2.bit_count() > g:  # P5
                break  # |S2(g)| only grows as g falls: every smaller g fails too
            if several and high & s1 != s1:  # P2 needs in-degree >= g + 1 inside S1
                continue
            beyond = outside if strict_p3 else outside & ~s2
            if sum(1 for row in rows if row & beyond) > g:  # P3
                continue
            # P2: out-degrees first, then the max-flow check.
            if several and (
                min((row & s1).bit_count() for row in rows) <= g or not self._is_k_connected(s1, g + 1)
            ):
                continue
            yield g, s2

    def is_sink(self, g: int, s1: int, s2: int, *, strict_p3: bool, bound_s2: bool) -> bool:
        """``isSinkGdi(g, S1, S2)`` for an explicit ``S2`` (P4: it must be the derived one)."""
        splits = self.sink_splits(s1, g, g, strict_p3=strict_p3, bound_s2=bound_s2)
        return any(derived == s2 for _, derived in splits)

    def _few_unreceived(self, limit: int) -> int:
        """The received processes whose PD names at most ``limit`` known processes without a received PD."""
        few = self._few.get(limit)
        if few is None:
            unreceived = self.known & ~self.received
            few = self._few[limit] = sum(
                bit
                for bit in bits(self.received)
                if (self.pd[bit.bit_length() - 1] & unreceived).bit_count() <= limit
            )
        return few

    def _is_k_connected(self, s1: int, k: int) -> bool:
        """P2 proper (max-flow based), memoised on the content of ``s1``."""
        key = ("conn", k, *self.content(s1))
        memo = sink_search_memo()
        cached = memo.lookup(key)
        if cached is not SinkSearchMemo._MISS:
            return bool(cached)
        result = is_k_strongly_connected(self.induced_graph(s1), k)
        memo.store(key, result)
        return result

    def sink_star(
        self, members: int, minimum_f: int, *, strict_p3: bool, bound_s2: bool
    ) -> tuple[int, int, int] | None:
        """First ``(g, S1, S2)`` with ``S1 ∪ S2 = members`` and ``isSinkGdi(g, S1, S2)``.

        ``g`` runs from ``⌊(|members| - 1) / 2⌋`` down to ``minimum_f``; for
        each, ``S2`` is every member without a received PD plus the smallest
        (then ``repr``-first) choice of further members that works.
        """
        missing = members & ~self.received
        optional = list(bits(members & self.received))
        size = members.bit_count()
        # S1 only holds received members, and every member needs more than g
        # in-neighbours in it: inside S1 by P2 (g >= 1 makes |S1| >= 3; a
        # single process passes with none, so g = 0 is exempt), in S2 by P4.
        planes = count_planes(self.pd[bit.bit_length() - 1] for bit in optional)
        for g in range((size - 1) // 2, max(minimum_f, 0) - 1, -1):
            if g and above(planes, g) & members != members:
                continue
            max_s2 = size - (2 * g + 1)
            if bound_s2:
                max_s2 = min(max_s2, g)
            for extra_size in range(max_s2 - missing.bit_count() + 1):
                for extra in combinations(optional, extra_size):
                    s2 = missing | sum(extra)
                    s1 = members ^ s2
                    if self.is_sink(g, s1, s2, strict_p3=strict_p3, bound_s2=bound_s2):
                        return g, s1, s2
        return None


__all__ = ["ViewIndex", "above", "add_row", "bits", "count_planes"]
