"""Static analysis of a whole knowledge connectivity graph.

Everything the paper asks of a graph *as a whole* is decided here, once:

* **Definition 1**, the ``k``-One Sink Reducibility (k-OSR) PD class
  (:func:`osr_report`, :func:`is_k_osr`, :func:`max_osr_k`).  ``Gdi`` is
  k-OSR when its undirected counterpart is connected, the DAG obtained by
  contracting strongly connected components has exactly one sink component,
  that sink is k-strongly connected, and there are at least ``k``
  node-disjoint paths from every process outside the sink to every process
  inside it.
* **Definition 2**, the *extended* k-OSR PD class (:func:`find_core`,
  :func:`extended_osr_report`, :func:`is_extended_k_osr`).  ``Gdi`` is
  extended k-OSR when it is k-OSR and contains a distinguished sink, the
  **core**, such that (C1) every other set of processes that is a sink in
  the ``isSink*Gdi`` sense of Section V has strictly smaller connectivity
  than the core, and (C2) from every process outside the core there are at
  least ``k_Gdi(core)`` node-disjoint paths to every core member.  Checking
  C1 exactly requires enumerating the sinks of the graph;
  :mod:`repro.graphs.sink_search` does so exhaustively for small graphs (the
  regime of the paper's figures and of our test workloads) and through its
  heuristic candidate search for larger ones, in which case the result is a
  sound approximation: a ``True`` answer may rely on the candidate search
  having surfaced every competitive sink.
* **Theorem 1 and Section V**, the model requirements
  (:func:`bft_cup_report`, :func:`bft_cupft_report`, ``satisfies_*``).  A
  graph satisfies the requirements of the BFT-CUP model for a fault
  threshold ``f`` and a set of faulty processes ``Π_F`` when its safe
  subgraph ``Gsafe = Gdi[Π_C]`` is ``(f+1)``-OSR and has a sink component
  of at least ``2f + 1`` processes; of the **BFT-CUPFT** model when
  ``Gsafe`` is *extended* ``(f+1)``-OSR and its core has at least
  ``2f + 1`` processes.
* :class:`StaticOracle`, the omniscient answers the online protocols are
  expected to converge to.  The test suite validates the distributed
  algorithms against it, and the workload builders place faults with the
  rule it shares with them (:func:`known_by_more_than`).

DESIGN.md ("Static analysis") states the one-process convention and how
:func:`find_core` relates to the online ``find_core_candidate``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from repro.graphs.components import sink_components
from repro.graphs.connectivity import fewest_disjoint_paths, vertex_connectivity
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.graphs.predicates import KnowledgeView, SinkWitness
from repro.graphs.sink_search import SearchOptions, find_all_sinks, strongest_sinks


def _fewest_paths_into(
    graph: KnowledgeGraph, inside: frozenset[ProcessId], *, need: int, cutoff: int
) -> tuple[int | None, tuple[ProcessId, ProcessId] | None]:
    """:func:`fewest_disjoint_paths` from every process outside ``inside`` to every member."""
    outside = sorted(graph.processes - inside, key=repr)
    return fewest_disjoint_paths(graph, outside, sorted(inside, key=repr), need=need, cutoff=cutoff)


# -- Definition 1: k-OSR -------------------------------------------------
@dataclass(frozen=True)
class OsrReport:
    """Detailed outcome of a k-OSR check (useful in tests and diagnostics)."""

    k: int
    undirected_connected: bool
    sink_count: int
    sink: frozenset[ProcessId]
    sink_connectivity: int
    min_paths_to_sink: int | None
    satisfied: bool
    failures: tuple[str, ...] = ()


def osr_report(graph: KnowledgeGraph, k: int) -> OsrReport:
    """Check Definition 1 and return a detailed report."""
    failures: list[str] = []
    undirected_connected = graph.is_undirected_connected()
    if not undirected_connected:
        failures.append("undirected counterpart is not connected")

    sinks = sink_components(graph)
    sink: frozenset[ProcessId] = frozenset()
    sink_connectivity = 0
    min_paths: int | None = None
    if len(sinks) != 1:
        failures.append(f"condensation has {len(sinks)} sink components (expected exactly 1)")
    else:
        sink = sinks[0]
        # A single-process sink is vacuously k-strongly connected for every k
        # (there is no pair of distinct processes to connect), which leaves
        # the paths into it to bind k -- and nothing at all in the one-process
        # graph, which by convention is 1-OSR and no more (see max_osr_k).
        if len(sink) > 1:
            sink_connectivity = vertex_connectivity(graph, sink)
            if sink_connectivity < k:
                failures.append(
                    f"sink connectivity is {sink_connectivity}, below the required {k}"
                )
        elif len(graph) == 1 and k > 1:
            failures.append(f"a one-process graph is 1-OSR only (asked for {k})")
        min_paths, shortfall = _fewest_paths_into(graph, sink, need=k, cutoff=max(k, 1))
        if shortfall is not None:
            failures.append(
                f"only {min_paths} node-disjoint paths from non-sink {shortfall[0]!r} "
                f"to sink member {shortfall[1]!r} (need {k})"
            )
    return OsrReport(
        k=k,
        undirected_connected=undirected_connected,
        sink_count=len(sinks),
        sink=sink,
        sink_connectivity=sink_connectivity,
        min_paths_to_sink=min_paths,
        satisfied=not failures,
        failures=tuple(failures),
    )


def is_k_osr(graph: KnowledgeGraph, k: int) -> bool:
    """Return ``True`` when ``graph`` belongs to the k-OSR PD class."""
    return osr_report(graph, k).satisfied


def max_osr_k(graph: KnowledgeGraph) -> int:
    """Return the largest ``k`` for which the graph is k-OSR (0 when none).

    The binding quantities are the sink connectivity and the minimum number
    of node-disjoint paths from non-sink processes to sink processes, so the
    maximum is computed directly instead of by repeated checks.
    """
    sinks = sink_components(graph)
    if len(sinks) != 1 or not graph.is_undirected_connected():
        return 0
    sink = sinks[0]
    # A one-process sink is vacuously k-strongly connected, so only the paths
    # into it bind k: fewer than |Π| of them can be node-disjoint, and in the
    # one-process graph, where nothing binds k, |Π| is the convention's 1.
    bound = vertex_connectivity(graph, sink) if len(sink) > 1 else len(graph)
    fewest, _ = _fewest_paths_into(graph, sink, need=1, cutoff=bound)
    return bound if fewest is None else min(bound, fewest)


# -- Definition 2: extended k-OSR and the core ---------------------------
@dataclass(frozen=True)
class ExtendedOsrReport:
    """Detailed outcome of an extended k-OSR check."""

    k: int
    osr_satisfied: bool
    core: frozenset[ProcessId]
    core_connectivity: int
    competing_sinks: tuple[frozenset[ProcessId], ...]
    min_paths_to_core: int | None
    satisfied: bool
    failures: tuple[str, ...] = ()


def enumerate_sinks(graph: KnowledgeGraph, options: SearchOptions | None = None) -> list[SinkWitness]:
    """Enumerate the sink* sets of ``graph`` under full knowledge.

    The omniscient view (all processes known, all PDs available) is used, so
    this corresponds to the sinks as defined in Section V for the graph
    itself.
    """
    return find_all_sinks(KnowledgeView.full(graph), options)


def find_core(graph: KnowledgeGraph, options: SearchOptions | None = None) -> SinkWitness | None:
    """Return the core of ``graph`` (the unique strongest sink), or ``None``.

    ``None`` is returned when the graph has no sink at all or when the
    maximum connectivity is attained by more than one sink (Property C1
    violated, so no core exists).
    """
    strongest = strongest_sinks(KnowledgeView.full(graph), options)
    return strongest[0] if len(strongest) == 1 else None


def extended_osr_report(
    graph: KnowledgeGraph, k: int, options: SearchOptions | None = None
) -> ExtendedOsrReport:
    """Check Definition 2 and return a detailed report."""
    base = osr_report(graph, k)
    failures = [f"k-OSR: {reason}" for reason in base.failures]

    strongest = strongest_sinks(KnowledgeView.full(graph), options)
    core: frozenset[ProcessId] = frozenset()
    core_connectivity = 0
    min_paths: int | None = None
    if not strongest:
        failures.append("no sink* set exists in the graph")
    else:
        core = strongest[0].members
        core_connectivity = strongest[0].connectivity
        if len(strongest) != 1:
            failures.append(
                "Property C1 violated: "
                f"{len(strongest)} sinks share the maximum connectivity {core_connectivity}"
            )
        if core_connectivity < k:
            failures.append(
                f"core connectivity {core_connectivity} is below k = {k} "
                "(the graph is k-OSR, so a sink with connectivity >= k must exist)"
            )
        # Property C2: >= k_Gdi(core) node-disjoint paths from non-core
        # processes to every core member.
        min_paths, shortfall = _fewest_paths_into(
            graph, core, need=core_connectivity, cutoff=core_connectivity
        )
        if shortfall is not None:
            failures.append(
                "Property C2 violated: "
                f"only {min_paths} node-disjoint paths from {shortfall[0]!r} "
                f"to core member {shortfall[1]!r} (need {core_connectivity})"
            )
    return ExtendedOsrReport(
        k=k,
        osr_satisfied=base.satisfied,
        core=core,
        core_connectivity=core_connectivity,
        competing_sinks=tuple(witness.members for witness in strongest[1:]),
        min_paths_to_core=min_paths,
        satisfied=not failures,
        failures=tuple(failures),
    )


def is_extended_k_osr(graph: KnowledgeGraph, k: int, options: SearchOptions | None = None) -> bool:
    """Return ``True`` when ``graph`` belongs to the extended k-OSR PD class."""
    return extended_osr_report(graph, k, options).satisfied


# -- Theorem 1 (BFT-CUP) and Section V (BFT-CUPFT) -----------------------
@dataclass(frozen=True)
class BftCupReport:
    """Outcome of the Theorem 1 check."""

    f: int
    faulty: frozenset[ProcessId]
    osr: OsrReport
    sink: frozenset[ProcessId]
    sink_size: int
    satisfied: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class BftCupftReport:
    """Outcome of the BFT-CUPFT requirement check (Section V)."""

    f: int
    faulty: frozenset[ProcessId]
    extended_osr: ExtendedOsrReport
    core: frozenset[ProcessId]
    core_size: int
    satisfied: bool
    failures: tuple[str, ...] = ()


def _model_failures(
    f: int,
    faulty: frozenset[ProcessId],
    pd_class: str,
    reasons: tuple[str, ...],
    part: str,
    members: frozenset[ProcessId],
) -> tuple[str, ...]:
    """What either model asks: ``|Π_F| <= f``, ``Gsafe`` in its PD class, ``2f + 1`` in the sink or core.

    ``reasons`` are the failures of the PD-class check of ``Gsafe`` and
    ``members`` the sink or core (``part``) that check found.
    """
    failures: list[str] = []
    if f < 0:
        failures.append("the fault threshold must be non-negative")
    if len(faulty) > f:
        failures.append(f"{len(faulty)} faulty processes exceed the fault threshold f = {f}")
    failures.extend(f"Gsafe is not {pd_class}: {reason}" for reason in reasons)
    if len(members) < 2 * f + 1:
        failures.append(
            f"the {part} of Gsafe has {len(members)} processes, fewer than 2f+1 = {2 * f + 1}"
        )
    return tuple(failures)


def bft_cup_report(graph: KnowledgeGraph, f: int, faulty: Iterable[ProcessId] = ()) -> BftCupReport:
    """Check whether ``graph`` satisfies the BFT-CUP requirements (Theorem 1)."""
    faulty_set = frozenset(faulty)
    report = osr_report(graph.safe_subgraph(faulty_set), f + 1)
    failures = _model_failures(f, faulty_set, "(f+1)-OSR", report.failures, "sink", report.sink)
    return BftCupReport(
        f=f,
        faulty=faulty_set,
        osr=report,
        sink=report.sink,
        sink_size=len(report.sink),
        satisfied=not failures,
        failures=failures,
    )


def satisfies_bft_cup(graph: KnowledgeGraph, f: int, faulty: Iterable[ProcessId] = ()) -> bool:
    """Return ``True`` when ``graph`` satisfies the requirements of Theorem 1."""
    return bft_cup_report(graph, f, faulty).satisfied


def bft_cupft_report(
    graph: KnowledgeGraph,
    f: int,
    faulty: Iterable[ProcessId] = (),
    options: SearchOptions | None = None,
) -> BftCupftReport:
    """Check whether ``graph`` satisfies the BFT-CUPFT requirements (Section V)."""
    faulty_set = frozenset(faulty)
    report = extended_osr_report(graph.safe_subgraph(faulty_set), f + 1, options)
    failures = _model_failures(f, faulty_set, "extended (f+1)-OSR", report.failures, "core", report.core)
    return BftCupftReport(
        f=f,
        faulty=faulty_set,
        extended_osr=report,
        core=report.core,
        core_size=len(report.core),
        satisfied=not failures,
        failures=failures,
    )


def satisfies_bft_cupft(
    graph: KnowledgeGraph,
    f: int,
    faulty: Iterable[ProcessId] = (),
    options: SearchOptions | None = None,
) -> bool:
    """Return ``True`` when ``graph`` satisfies the BFT-CUPFT requirements."""
    return bft_cupft_report(graph, f, faulty, options).satisfied


# -- The static (omniscient) oracle ---------------------------------------
def known_by_more_than(
    graph: KnowledgeGraph, members: Iterable[ProcessId], candidates: Iterable[ProcessId], f: int
) -> frozenset[ProcessId]:
    """The ``candidates`` that more than ``f`` of ``members`` initially know.

    This is P4 read on the whole graph: the condition under which the online
    algorithms place a Byzantine process in the sink or core they return
    (through ``S2``), so it is what the oracle adds to the safe sink/core and
    what "attached to the core" means when the workload builders place
    faults.
    """
    inside = frozenset(members)
    return frozenset(
        candidate for candidate in candidates if len(graph.predecessors(candidate) & inside) > f
    )


@dataclass
class StaticOracle:
    """Omniscient analysis of a knowledge connectivity graph.

    The oracle computes, from the full graph, the quantities the online
    protocols compute from partial views: the sink members, the core and the
    fault-threshold estimate.  Every property is computed on first use and
    kept for the lifetime of the instance.

    Parameters
    ----------
    graph:
        The full knowledge connectivity graph ``Gdi``.
    faulty:
        The set of faulty processes ``Π_F`` (may be empty).  Quantities with
        a ``safe_`` prefix are computed on ``Gsafe = Gdi[Π_C]``.
    options:
        Search options forwarded to the sink/core searches.
    """

    graph: KnowledgeGraph
    faulty: frozenset[ProcessId] = frozenset()
    options: SearchOptions | None = None

    def __post_init__(self) -> None:
        self.faulty = frozenset(self.faulty)
        unknown = self.faulty - self.graph.processes
        if unknown:
            raise ValueError(f"faulty processes not in the graph: {sorted(map(repr, unknown))}")

    @cached_property
    def correct(self) -> frozenset[ProcessId]:
        """The correct processes ``Π_C``."""
        return frozenset(self.graph.processes - self.faulty)

    @cached_property
    def safe_graph(self) -> KnowledgeGraph:
        """``Gsafe``: the subgraph induced by the correct processes."""
        return self.graph.subgraph(self.correct)

    @cached_property
    def safe_view(self) -> KnowledgeView:
        """The omniscient knowledge view of ``Gsafe``."""
        return KnowledgeView.full(self.safe_graph)

    # Sink facts (BFT-CUP).
    @cached_property
    def safe_sink(self) -> frozenset[ProcessId]:
        """The members of the (unique) sink of ``Gsafe`` (empty when not unique)."""
        sinks = sink_components(self.safe_graph)
        return sinks[0] if len(sinks) == 1 else frozenset()

    @cached_property
    def expected_sink(self) -> frozenset[ProcessId]:
        """The set the online Sink/Core algorithms are expected to return.

        Theorem 4's uniqueness argument implicitly treats Byzantine processes
        that are known by more than ``f`` correct sink members as sink
        members; the expected answer is therefore the safe sink plus every
        faulty process with more than ``f`` in-neighbours among the safe
        sink, where ``f`` is the number of faulty processes tolerated by the
        graph's connectivity (``max_osr_k(Gsafe) - 1``).
        """
        safe_sink = self.safe_sink
        if not safe_sink:
            return frozenset()
        f = max(self.safe_osr_k - 1, 0)
        return safe_sink | known_by_more_than(self.graph, safe_sink, self.faulty, f)

    @cached_property
    def safe_osr_k(self) -> int:
        """The largest ``k`` for which ``Gsafe`` is k-OSR."""
        return max_osr_k(self.safe_graph)

    # Core facts (BFT-CUPFT).
    @cached_property
    def safe_core_witness(self) -> SinkWitness | None:
        """The core of ``Gsafe`` (the unique strongest sink), if any."""
        return find_core(self.safe_graph, self.options)

    @cached_property
    def safe_core(self) -> frozenset[ProcessId]:
        """Members of the core of ``Gsafe`` (empty when no core exists)."""
        witness = self.safe_core_witness
        return frozenset() if witness is None else witness.members

    @cached_property
    def expected_core(self) -> frozenset[ProcessId]:
        """The set the online Core algorithm is expected to return.

        Analogous to :attr:`expected_sink`: the safe core plus Byzantine
        processes with more than ``f_Gdi(core)`` in-neighbours in it.
        """
        witness = self.safe_core_witness
        if witness is None:
            return frozenset()
        core = witness.members
        return core | known_by_more_than(self.graph, core, self.faulty, witness.f)

    def core_connectivity(self) -> int | None:
        """``k_Gdi`` of the safe core, or ``None`` when no core exists."""
        witness = self.safe_core_witness
        return None if witness is None else witness.connectivity
