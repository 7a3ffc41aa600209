"""Reconstructions of the knowledge connectivity graphs in the paper's figures.

The paper only publishes the figures as drawings, not as edge lists, so the
graphs below are *reconstructions*: each one is built to satisfy every
property the text and captions state about the corresponding figure
(membership in the k-OSR / extended k-OSR classes, the identity of the sink
and the core, which processes are Byzantine, and the specific
``isSinkGdi`` instances the running text evaluates on them).  The test
module ``tests/graphs/test_figures.py`` asserts all of those properties, so
any deviation from the paper's claims would be caught there.

Every builder returns a :class:`FigureScenario` bundling the graph, the
fault assignment, the fault threshold and the expected sink/core, ready to
be fed to the workload builders and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId


@dataclass(frozen=True)
class FigureScenario:
    """A fully specified scenario reconstructed from one of the paper's figures."""

    name: str
    description: str
    graph: KnowledgeGraph
    faulty: frozenset[ProcessId]
    fault_threshold: int
    expected_safe_sink: frozenset[ProcessId]
    expected_safe_core: frozenset[ProcessId]
    satisfies_bft_cup: bool
    satisfies_bft_cupft: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def correct(self) -> frozenset[ProcessId]:
        """The correct processes of the scenario."""
        return frozenset(self.graph.processes - self.faulty)


def _complete(graph: KnowledgeGraph, members: list[int]) -> None:
    """Add all directed edges among ``members`` (a complete sub-digraph)."""
    for source in members:
        for target in members:
            if source != target:
                graph.add_edge(source, target)


def _mutual(graph: KnowledgeGraph, first: int, second: int) -> None:
    """Add both directed edges between ``first`` and ``second``."""
    graph.add_edge(first, second)
    graph.add_edge(second, first)


# ----------------------------------------------------------------------
# Figure 1 -- the motivating examples
# ----------------------------------------------------------------------
def figure_1a() -> FigureScenario:
    """Fig. 1a: a graph that does *not* satisfy the BFT-CUP requirements.

    Two groups, ``{1, 2, 3, 4}`` (a clique) and ``{5, 6, 7, 8}`` (a mutual
    ring), connected only through the Byzantine process 4 (edges 4 <-> 5).
    ``PD_1 = {2, 3, 4}`` as in the caption.  If process 4 stays silent the
    two groups can never learn about each other, so consensus is impossible
    even though only one of eight processes is Byzantine.
    """
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3, 4])
    for first, second in [(5, 6), (6, 8), (8, 7), (7, 5)]:
        _mutual(graph, first, second)
    _mutual(graph, 4, 5)
    return FigureScenario(
        name="fig1a",
        description="Knowledge connectivity graph that violates the BFT-CUP requirements "
        "(removing Byzantine process 4 disconnects {1,2,3} from {5,6,7,8}).",
        graph=graph,
        faulty=frozenset({4}),
        fault_threshold=1,
        expected_safe_sink=frozenset(),
        expected_safe_core=frozenset(),
        satisfies_bft_cup=False,
        satisfies_bft_cupft=False,
        notes=(
            "Gsafe has two disconnected components, so it is not (f+1)-OSR.",
        ),
    )


def figure_1b() -> FigureScenario:
    """Fig. 1b: a graph that satisfies the BFT-CUP requirements for ``f = 1``.

    The sink of ``Gsafe`` is the triangle ``{1, 2, 3}``; process 4 is
    Byzantine and known by all three sink members (so it belongs to the
    returned sink through set ``S2``); processes 5-8 are non-sink members
    with two node-disjoint paths to every sink member.  ``PD_1 = {2,3,4}``
    and ``PD_3 = {1,2,4}``, matching the worked example of Algorithm 2.
    """
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3])
    for member in (1, 2, 3):
        graph.add_edge(member, 4)
        graph.add_edge(4, member)
    graph.add_edges([(5, 1), (5, 2), (6, 2), (6, 3), (7, 5), (7, 6), (8, 5), (8, 6)])
    return FigureScenario(
        name="fig1b",
        description="Knowledge connectivity graph satisfying the BFT-CUP requirements for f=1 "
        "(sink of Gsafe = {1,2,3}, Byzantine process 4 known by every sink member).",
        graph=graph,
        faulty=frozenset({4}),
        fault_threshold=1,
        expected_safe_sink=frozenset({1, 2, 3}),
        expected_safe_core=frozenset({1, 2, 3}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
        notes=(
            "The online Sink algorithm is expected to return {1,2,3,4} "
            "(the safe sink plus the Byzantine process known by more than f sink members).",
        ),
    )


# ----------------------------------------------------------------------
# Figure 2 -- the impossibility construction (Theorem 7)
# ----------------------------------------------------------------------
def figure_2a() -> FigureScenario:
    """Fig. 2a, system A: the clique ``{1,2,3,4}`` where only process 4 is faulty."""
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3, 4])
    return FigureScenario(
        name="fig2a",
        description="System A of the impossibility construction: a 2-OSR clique on {1,2,3,4} "
        "in which only process 4 is faulty.",
        graph=graph,
        faulty=frozenset({4}),
        fault_threshold=1,
        expected_safe_sink=frozenset({1, 2, 3}),
        expected_safe_core=frozenset({1, 2, 3}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
    )


def figure_2b() -> FigureScenario:
    """Fig. 2b, system B: the clique ``{5,6,7,8}`` where only process 5 is faulty."""
    graph = KnowledgeGraph()
    _complete(graph, [5, 6, 7, 8])
    return FigureScenario(
        name="fig2b",
        description="System B of the impossibility construction: a 2-OSR clique on {5,6,7,8} "
        "in which only process 5 is faulty.",
        graph=graph,
        faulty=frozenset({5}),
        fault_threshold=1,
        expected_safe_sink=frozenset({6, 7, 8}),
        expected_safe_core=frozenset({6, 7, 8}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
    )


def figure_2c() -> FigureScenario:
    """Fig. 2c, system AB: the union of systems A and B bridged by ``4 <-> 5``.

    All eight processes are correct.  The graph is 1-OSR (the whole graph is
    a single strongly connected component whose connectivity is 1 because of
    the bridge), and it satisfies the BFT-CUP requirements for ``f = 0``.
    Crucially, both ``{1,2,3,4}`` and ``{5,6,7,8}`` satisfy ``isSink*`` with
    connectivity 2, so no core exists and the graph is not extended k-OSR --
    this is exactly the ambiguity Theorem 7 exploits.
    """
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3, 4])
    _complete(graph, [5, 6, 7, 8])
    _mutual(graph, 4, 5)
    return FigureScenario(
        name="fig2c",
        description="System AB of the impossibility construction: systems A and B joined by "
        "the bridge 4<->5; all processes are correct; the graph is 1-OSR.",
        graph=graph,
        faulty=frozenset(),
        fault_threshold=0,
        expected_safe_sink=frozenset(range(1, 9)),
        expected_safe_core=frozenset(),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=False,
        notes=(
            "Both {1,2,3,4} and {5,6,7,8} are sinks with connectivity 2 (Observation 1), "
            "so Property C1 fails and no core exists.",
        ),
    )


# ----------------------------------------------------------------------
# Figure 3 -- false sinks when the fault threshold is unknown
# ----------------------------------------------------------------------
def figure_3a() -> FigureScenario:
    """Fig. 3a, system A: a BFT-CUP graph where ``{1,2,3,4,6}`` can pose as a sink.

    Reconstruction: ``{1,2,3,4,6}`` is a clique; processes 1-4 additionally
    know 5 and 7; process 5 knows 6 and 2; process 7 knows 6 and 3.  Only
    process 1 is faulty and ``f = 1``.  The instance evaluated in the text,
    ``isSinkGdi(2, {1,2,3,4,6}, {5,7}) = true``, holds on this graph: with
    the wrong fault threshold ``g = 2`` the clique plus the two silent
    processes looks exactly like a sink, which is what Observation 1 warns
    about.
    """
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3, 4, 6])
    for source in (1, 2, 3, 4):
        graph.add_edge(source, 5)
        graph.add_edge(source, 7)
    graph.add_edges([(5, 6), (5, 2), (7, 6), (7, 3)])
    return FigureScenario(
        name="fig3a",
        description="System A of Fig. 3: a graph satisfying the BFT-CUP requirements for f=1 "
        "(only process 1 faulty) in which the non-sink-looking set {1,2,3,4,6} satisfies "
        "isSinkGdi with the wrong threshold g=2 and S2={5,7}.",
        graph=graph,
        faulty=frozenset({1}),
        fault_threshold=1,
        expected_safe_sink=frozenset({2, 3, 4, 5, 6, 7}),
        expected_safe_core=frozenset({2, 3, 4, 5, 6, 7}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
        notes=(
            "isSinkGdi(2, {1,2,3,4,6}, {5,7}) = true on this graph (Observation 1): with the "
            "wrong fault threshold g=2, the clique plus the silent processes 5 and 7 passes the "
            "sink test even though the actual sink of Gsafe is {2,...,7} with connectivity 2.",
            "On the full graph, the set {1,...,7} is a sink of connectivity 3 because the "
            "Byzantine process 1 participates in the clique; the Core algorithm therefore "
            "returns {1,...,7}, which is still safe (6 correct vs 1 Byzantine member).",
        ),
    )


def figure_3b() -> FigureScenario:
    """Fig. 3b, system B: the indistinguishability partner of Fig. 3a.

    Same participant detectors for processes 1, 2, 3, 4 and 6, but processes
    5 and 7 are the faulty ones and the intended fault threshold is 2.  The
    safe subgraph is the clique ``{1,2,3,4,6}``, which is 3-OSR, so the
    system satisfies the BFT-CUP requirements for ``f = 2``.  Processes in
    ``{2,3,4,6}`` cannot distinguish this system (5 and 7 slow) from
    Fig. 3a (5 and 7 silent because they are presumed Byzantine).
    """
    graph = figure_3a().graph.copy()
    return FigureScenario(
        name="fig3b",
        description="System B of Fig. 3: the same knowledge connectivity graph with processes 5 "
        "and 7 faulty and fault threshold 2; its safe subgraph is the 3-OSR clique {1,2,3,4,6}.",
        graph=graph,
        faulty=frozenset({5, 7}),
        fault_threshold=2,
        expected_safe_sink=frozenset({1, 2, 3, 4, 6}),
        expected_safe_core=frozenset({1, 2, 3, 4, 6}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
    )


# ----------------------------------------------------------------------
# Figure 4 -- graphs satisfying the BFT-CUPFT requirements
# ----------------------------------------------------------------------
def figure_4a() -> FigureScenario:
    """Fig. 4a: an extended 2-OSR graph whose sink component differs from its core.

    Reconstruction: the core of ``Gsafe`` is the triangle ``{1,2,3}``; the
    Byzantine process 4 is known by (and knows) every core member, so the
    sink component of the *full* knowledge connectivity graph is
    ``{1,2,3,4}``, which differs from the core -- that is the
    "sink component differs from the core component" phenomenon of the
    caption, and it is also the set the online algorithms return (the safe
    core plus the well-known Byzantine process).  Processes 5-8 are
    non-core members arranged in two layers, each with two node-disjoint
    paths to every core member.

    Note (DESIGN.md, "Fig. 4a caption"): the alternative reading of the
    caption -- a core strictly inside the sink component of ``Gsafe`` -- requires a
    core of connectivity at least ``f + 2`` and admits two fault
    assignments, both satisfying the BFT-CUPFT requirements, that are
    indistinguishable to some correct process yet have different cores; no
    local termination rule can disambiguate them, so the reconstruction
    deliberately uses the full-graph reading.
    """
    graph = KnowledgeGraph()
    _complete(graph, [1, 2, 3])
    for member in (1, 2, 3):
        graph.add_edge(member, 4)
        graph.add_edge(4, member)
    graph.add_edges([(5, 1), (5, 2), (6, 2), (6, 3), (7, 5), (7, 6), (8, 7), (8, 5)])
    return FigureScenario(
        name="fig4a",
        description="Extended 2-OSR graph in which the sink component of the full graph "
        "({1,2,3,4}) differs from the core of Gsafe ({1,2,3}); process 4 is Byzantine and f=1.",
        graph=graph,
        faulty=frozenset({4}),
        fault_threshold=1,
        expected_safe_sink=frozenset({1, 2, 3}),
        expected_safe_core=frozenset({1, 2, 3}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
        notes=(
            "The online algorithms are expected to return {1,2,3,4}: the safe core plus the "
            "Byzantine process known by more than f core members.",
        ),
    )


def figure_4b() -> FigureScenario:
    """Fig. 4b: an extended 2-OSR graph whose sink component equals its core.

    Reconstruction following the caption's narrative: starting from the
    Fig. 1a topology, the extra edges ``6 -> 3`` and ``7 -> 2`` are added so
    the processes in ``{5,6,7,8}`` discover the other group and can no
    longer identify themselves as a sink.  Process 4 is Byzantine and
    ``f = 1``; the sink component and the core of ``Gsafe`` are both the
    triangle ``{1,2,3}``.
    """
    graph = figure_1a().graph.copy()
    graph.add_edge(6, 3)
    graph.add_edge(7, 2)
    return FigureScenario(
        name="fig4b",
        description="Extended 2-OSR graph obtained from Fig. 1a by adding the edges 6->3 and "
        "7->2; the sink component and the core of Gsafe coincide ({1,2,3}); process 4 is "
        "Byzantine and f=1.",
        graph=graph,
        faulty=frozenset({4}),
        fault_threshold=1,
        expected_safe_sink=frozenset({1, 2, 3}),
        expected_safe_core=frozenset({1, 2, 3}),
        satisfies_bft_cup=True,
        satisfies_bft_cupft=True,
        notes=(
            "The paper's captions attribute the 'core differs from sink' example to Fig. 4a and "
            "the edge-addition narrative to Fig. 4a as well; our reconstruction keeps both "
            "phenomena but realises the edge-addition narrative in this figure.",
        ),
    )


def paper_figures() -> dict[str, FigureScenario]:
    """Return every figure reconstruction keyed by its short name."""
    scenarios = [
        figure_1a(),
        figure_1b(),
        figure_2a(),
        figure_2b(),
        figure_2c(),
        figure_3a(),
        figure_3b(),
        figure_4a(),
        figure_4b(),
    ]
    return {scenario.name: scenario for scenario in scenarios}


__all__ = [
    "FigureScenario",
    "figure_1a",
    "figure_1b",
    "figure_2a",
    "figure_2b",
    "figure_2c",
    "figure_3a",
    "figure_3b",
    "figure_4a",
    "figure_4b",
    "paper_figures",
]
