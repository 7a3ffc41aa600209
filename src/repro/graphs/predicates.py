"""The sink-identification predicates of the paper.

This module implements, as pure graph predicates:

* ``isSinkGdi(f, S1, S2)`` -- Algorithm 2, line 1 / Theorem 3 (properties
  P1-P4) of the paper: given a fault threshold ``f``, a set ``S1`` whose
  participant detectors are available and a set ``S2`` whose participant
  detectors are not, decide whether ``S1 ∪ S2`` is a sink.
* ``isSink*Gdi(S)`` -- Section V: a set ``S`` is a sink *without a known
  fault threshold* when some ``g >= 0`` and some split ``S = S1 ∪ S2``
  satisfy ``isSinkGdi(g, S1, S2)``.
* ``f_Gdi(S)`` and ``k_Gdi(S)`` -- the maximum such ``g`` and the resulting
  connectivity ``f_Gdi(S) + 1``.

The predicates operate on a *knowledge view*: a mapping from process id to
the (claimed) participant detector of that process, together with the set of
processes currently known.  The same code is therefore used both by the
static oracle (where the view is the full knowledge connectivity graph) and
by the online Sink / Core algorithms (where the view is what a process has
received so far).

The evaluation itself lives in :mod:`repro.graphs.view_index` (one bitmask
kernel for P1-P5); this module is the set-level API over it.

Interpretation of properties P3 and P5
--------------------------------------
See DESIGN.md ("P3" and "P5"): P3 is implemented as "at most ``f`` members
of ``S1`` have an outgoing edge to ``known \\ (S1 ∪ S2)``"; the literal
reading ("... to ``known \\ S1``") is available through ``strict_p3=True``.
Additionally ``|S2| <= f`` is enforced (called *P5* in this code base); the
bound can be disabled with ``bound_s2=False``.  Both switches exist for the
ablation benchmark.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.graphs.view_index import ViewIndex


@dataclass(frozen=True, slots=True)
class KnowledgeView:
    """A (possibly partial) view of the knowledge connectivity graph.

    Attributes
    ----------
    known:
        The set of processes the observer knows to exist (``S_known`` in
        Algorithm 1).
    pds:
        Mapping from process id to that process's (claimed) participant
        detector, for every process whose PD the observer has *received*
        (``S_received``).  For Byzantine processes the claimed PD may be
        arbitrary; for correct processes it is their true PD (signatures
        prevent forgery).
    received:
        Processes whose participant detector is available in this view
        (the keys of ``pds``), computed once.
    """

    known: frozenset[ProcessId]
    pds: Mapping[ProcessId, frozenset[ProcessId]]
    received: frozenset[ProcessId] = field(init=False, compare=False, repr=False)
    _index: ViewIndex | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "received", frozenset(self.pds))

    def index(self) -> ViewIndex:
        """The bitmask form of this view, built on first use."""
        index = self._index
        if index is None:
            index = ViewIndex(self.known, self.pds)
            object.__setattr__(self, "_index", index)
        return index

    def subview(self, nodes: Iterable[ProcessId]) -> "KnowledgeView":
        """Restrict the view to ``nodes`` (used when searching inside a sink)."""
        keep = frozenset(nodes)
        return KnowledgeView(
            known=self.known & keep,
            pds={node: pd for node, pd in self.pds.items() if node in keep},
        )

    def induced_graph(self, nodes: Iterable[ProcessId]) -> KnowledgeGraph:
        """Build the graph induced by the processes of the view among ``nodes``, using the received PDs."""
        index = self.index()
        return index.induced_graph(index.mask(frozenset(nodes)))

    @classmethod
    def full(cls, graph: KnowledgeGraph) -> "KnowledgeView":
        """The omniscient view of a whole knowledge connectivity graph."""
        return cls(known=frozenset(graph.processes), pds=graph.pd_map())

    @classmethod
    def of_process(cls, graph: KnowledgeGraph, process: ProcessId) -> "KnowledgeView":
        """The initial view of ``process``: itself, its PD, and its own PD entry."""
        pd = graph.participant_detector(process)
        return cls(
            known=frozenset(pd | {process}),
            pds={process: pd},
        )


def derived_s2(
    view: KnowledgeView,
    f: int,
    s1: frozenset[ProcessId],
) -> frozenset[ProcessId]:
    """Return the set forced by property P4.

    ``S2`` contains every known process outside ``S1`` that has more than
    ``f`` in-neighbours in ``S1`` (according to the received PDs).
    """
    if f < 0:
        return view.known - s1  # zero in-neighbours already exceed f
    index = view.index()
    return index.nodes(index.derived_s2(index.mask(s1), f))


def is_sink_gdi(
    view: KnowledgeView,
    f: int,
    s1: Iterable[ProcessId],
    s2: Iterable[ProcessId],
    *,
    strict_p3: bool = False,
    bound_s2: bool = True,
) -> bool:
    """Evaluate the predicate ``isSinkGdi(f, S1, S2)`` on a knowledge view.

    The four properties of Theorem 3 are checked:

    * P1: ``|S1| >= 2f + 1``.
    * P2: the subgraph induced by ``S1`` (using the received PDs) is
      ``(f+1)``-strongly connected.
    * P3: at most ``f`` members of ``S1`` have an outgoing edge to
      ``known \\ (S1 ∪ S2)`` (or ``known \\ S1`` when ``strict_p3``).
    * P4: ``S2`` equals exactly the set of known processes outside ``S1``
      with more than ``f`` in-neighbours in ``S1``.
    * P5 (interpretation, see module docstring): ``|S2| <= f`` unless
      ``bound_s2=False``.

    Additionally, the PDs of every member of ``S1`` must be available in the
    view (``S1 ⊆ S_received``): without them the connectivity of ``S1``
    cannot be computed, mirroring line 3 of Algorithm 2.

    The evaluation itself is :meth:`ViewIndex.sink_splits`, which derives
    ``S2`` from ``S1`` (P4) and checks the rest; the derived set is then
    compared with the given one.
    """
    s1_set = frozenset(s1)
    s2_set = frozenset(s2)
    if not s1_set or not s1_set <= view.received or not s2_set <= view.known:
        return False
    index = view.index()
    return index.is_sink(f, index.mask(s1_set), index.mask(s2_set), strict_p3=strict_p3, bound_s2=bound_s2)


@dataclass(frozen=True, slots=True)
class SinkWitness:
    """A successful evaluation of ``isSinkGdi`` for some split of a set.

    ``members`` is ``S1 ∪ S2``; ``f`` is the fault threshold used;
    ``connectivity`` is ``k_Gdi = f + 1``.
    """

    members: frozenset[ProcessId]
    s1: frozenset[ProcessId]
    s2: frozenset[ProcessId]
    f: int

    @property
    def connectivity(self) -> int:
        return self.f + 1


def sink_star_witness(
    view: KnowledgeView,
    members: Iterable[ProcessId],
    *,
    strict_p3: bool = False,
    bound_s2: bool = True,
    minimum_f: int = 0,
) -> SinkWitness | None:
    """Return a witness for ``isSink*Gdi(members)`` with the maximum ``f``.

    The search follows the definition in Section V: it looks for a natural
    number ``g`` and a split ``members = S1 ∪ S2`` with
    ``isSinkGdi(g, S1, S2)``.  ``g`` is explored from its largest possible
    value (``⌊(|members| - 1) / 2⌋``) downwards so the first hit realises
    ``f_Gdi(members)``.

    For a fixed ``g``, ``S2`` can contain at most ``|members| - (2g + 1)``
    processes (and at most ``g`` when P5 is enforced), and any process whose
    PD is missing from the view must be in ``S2``; the split search
    enumerates the remaining choices of ``S2`` among the members, which
    keeps the search tractable for the sink sizes used in the paper and in
    our workloads.
    """
    member_set = frozenset(members)
    index = view.index()
    if not member_set or not member_set <= index.bit_of.keys():
        return None  # a process outside the view is neither received nor known
    found = index.sink_star(index.mask(member_set), minimum_f, strict_p3=strict_p3, bound_s2=bound_s2)
    if found is None:
        return None
    g, s1, s2 = found
    return SinkWitness(members=member_set, s1=index.nodes(s1), s2=index.nodes(s2), f=g)


def is_sink_star(
    view: KnowledgeView,
    members: Iterable[ProcessId],
    *,
    strict_p3: bool = False,
    bound_s2: bool = True,
) -> bool:
    """``isSink*Gdi(members)``: is some split of ``members`` a sink for some ``g``?"""
    return sink_star_witness(view, members, strict_p3=strict_p3, bound_s2=bound_s2) is not None


def f_gdi(
    view: KnowledgeView,
    members: Iterable[ProcessId],
    *,
    strict_p3: bool = False,
    bound_s2: bool = True,
) -> int | None:
    """``f_Gdi(members)``: the maximum ``g`` for which the set is a sink, or ``None``."""
    witness = sink_star_witness(view, members, strict_p3=strict_p3, bound_s2=bound_s2)
    return None if witness is None else witness.f


def k_gdi(
    view: KnowledgeView,
    members: Iterable[ProcessId],
    *,
    strict_p3: bool = False,
    bound_s2: bool = True,
) -> int | None:
    """``k_Gdi(members) = f_Gdi(members) + 1``, or ``None`` when not a sink."""
    max_f = f_gdi(view, members, strict_p3=strict_p3, bound_s2=bound_s2)
    return None if max_f is None else max_f + 1


__all__ = [
    "KnowledgeView",
    "SinkWitness",
    "derived_s2",
    "is_sink_gdi",
    "sink_star_witness",
    "is_sink_star",
    "f_gdi",
    "k_gdi",
]
