"""Random generators for knowledge connectivity graph families.

The generators construct graphs *by design* to satisfy (or violate) the
BFT-CUP / BFT-CUPFT requirements, so they can be used as workloads at sizes
where exhaustive verification would be too slow.  For small sizes the test
suite cross-checks the generated graphs against the exact checkers.

All generators are deterministic given a ``random.Random`` seed, which keeps
simulations and benchmarks reproducible.
"""

from __future__ import annotations

import random
from typing import Literal

from repro.graphs.figures import GraphScenario
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId

FaultPlacement = Literal["sink", "non_sink", "mixed", "none"]

def _extra_layer_edges(
    graph: KnowledgeGraph,
    rng: random.Random,
    members: list[ProcessId],
    position: int,
    probability: float,
) -> None:
    """Add the optional acyclic forward edges for ``members[position]``.

    One rng draw per (member, earlier) pair: quadratic in the layer size, but
    those draws are part of the graph family, so every seed reproduces its
    graph byte-identically.
    """
    member = members[position]
    for earlier in members[:position]:
        if rng.random() < probability:
            graph.add_edge(member, earlier)


def _circulant_edges(members: list[ProcessId], degree: int) -> list[tuple[ProcessId, ProcessId]]:
    """Directed circulant: each member points to the next ``degree`` members.

    A circulant digraph with out-degree ``degree`` is ``degree``-strongly
    connected, which gives precise control over the sink's connectivity.
    """
    edges = []
    count = len(members)
    for position, member in enumerate(members):
        for offset in range(1, degree + 1):
            edges.append((member, members[(position + offset) % count]))
    return edges


def _complete_edges(members: list[ProcessId]) -> list[tuple[ProcessId, ProcessId]]:
    return [(a, b) for a in members for b in members if a != b]


def generate_bft_cup_graph(
    *,
    f: int,
    sink_size: int | None = None,
    non_sink_size: int = 4,
    byzantine_placement: FaultPlacement = "sink",
    byzantine_count: int | None = None,
    extra_edge_probability: float = 0.1,
    seed: int = 0,
) -> GraphScenario:
    """Generate a graph satisfying the BFT-CUP requirements (Theorem 1).

    Construction:

    * the correct sink is a circulant on ``sink_size`` processes with out-degree ``f + 1``, hence
      ``(f+1)``-strongly connected;
    * every correct non-sink process points to ``f + 1`` distinct sink
      members chosen at random (plus optional extra edges towards other
      non-sink processes with smaller index, keeping the non-sink part
      acyclic), which yields at least ``f + 1`` node-disjoint paths to every
      sink member by the fan lemma;
    * Byzantine processes are attached according to ``byzantine_placement``:
      ``"sink"`` processes are known by at least ``f + 1`` sink members (so
      the online algorithms include them in the returned sink via ``S2``),
      ``"non_sink"`` processes only know/are known like non-sink members,
      and ``"mixed"`` alternates.
    """
    rng = random.Random(seed)
    if f < 0:
        raise ValueError("f must be non-negative")
    sink_size = sink_size if sink_size is not None else 2 * f + 1
    if sink_size < 2 * f + 1:
        raise ValueError("the sink must contain at least 2f + 1 correct processes")
    byzantine_count = f if byzantine_count is None else byzantine_count
    if byzantine_count > f:
        raise ValueError("cannot place more than f Byzantine processes")
    if byzantine_placement == "none":
        byzantine_count = 0

    sink_members: list[int] = list(range(1, sink_size + 1))
    non_sink_members: list[int] = list(range(sink_size + 1, sink_size + non_sink_size + 1))
    byzantine_members: list[int] = list(
        range(sink_size + non_sink_size + 1, sink_size + non_sink_size + byzantine_count + 1)
    )

    graph = KnowledgeGraph()
    for node in sink_members + non_sink_members + byzantine_members:
        graph.add_process(node)

    if sink_size <= f + 1:
        graph.add_edges(_complete_edges(sink_members))
    else:
        graph.add_edges(_circulant_edges(sink_members, f + 1))

    # Correct non-sink processes: f+1 direct edges into the sink, optional
    # forward edges among non-sink processes (kept acyclic by index order).
    for position, member in enumerate(non_sink_members):
        targets = rng.sample(sink_members, min(f + 1, len(sink_members)))
        for target in targets:
            graph.add_edge(member, target)
        # With probability 0 no extra edge can appear, so the draws are
        # skipped entirely.
        if extra_edge_probability > 0.0:
            _extra_layer_edges(graph, rng, non_sink_members, position, extra_edge_probability)

    # Byzantine processes.
    placements: list[str] = []
    for index in range(byzantine_count):
        if byzantine_placement == "mixed":
            placements.append("sink" if index % 2 == 0 else "non_sink")
        else:
            placements.append(byzantine_placement)
    for member, placement in zip(byzantine_members, placements, strict=True):
        if placement == "sink":
            # Known by every correct sink member and pointing back, as in
            # Fig. 1b.  Attaching it with only f+1 knowers (the minimum of
            # Scenario I) is not enough: a correct process whose witness set
            # S1 misses some of those knowers would not place the Byzantine
            # process in S2, so different correct processes could return
            # sink sets differing in their Byzantine members (DESIGN.md,
            # "Byzantine sink members in generated graphs").
            for knower in sink_members:
                graph.add_edge(knower, member)
            for target in rng.sample(sink_members, min(f + 1, len(sink_members))):
                graph.add_edge(member, target)
        else:
            for target in rng.sample(sink_members, min(f + 1, len(sink_members))):
                graph.add_edge(member, target)
            if non_sink_members and rng.random() < 0.5:
                graph.add_edge(rng.choice(non_sink_members), member)

    faulty = frozenset(byzantine_members)
    return GraphScenario(
        name=f"bft_cup(f={f},sink={sink_size},non_sink={non_sink_size},seed={seed})",
        graph=graph,
        faulty=faulty,
        fault_threshold=f,
        expected_safe_sink=frozenset(sink_members),
        expected_safe_core=frozenset(sink_members) if sink_size == 2 * f + 1 else frozenset(),
    )


def generate_bft_cupft_graph(
    *,
    f: int,
    core_size: int | None = None,
    non_core_size: int = 4,
    byzantine_placement: FaultPlacement = "sink",
    byzantine_count: int | None = None,
    extra_edge_probability: float = 0.1,
    seed: int = 0,
) -> GraphScenario:
    """Generate a graph satisfying the BFT-CUPFT requirements (Section V).

    Construction: the correct core is a *complete* digraph on
    ``core_size = 2f + 1`` processes, so its connectivity ``k_Gdi`` equals
    ``f + 1`` and no proper subset can reach that connectivity (a set needs
    at least ``2f + 1`` members for ``f_Gdi = f``).  Correct non-core
    processes form an acyclic layer pointing to at least ``f + 1`` distinct
    core members each, so (a) they cannot form competing sinks (every subset
    containing one of them has a member with no in-edges inside the subset)
    and (b) Property C2 holds through the fan lemma.  Byzantine processes
    are attached as in :func:`generate_bft_cup_graph`.
    """
    rng = random.Random(seed)
    if f < 0:
        raise ValueError("f must be non-negative")
    core_size = core_size if core_size is not None else 2 * f + 1
    if core_size != 2 * f + 1:
        raise ValueError(
            "this generator pins the core size to 2f + 1 so the core is provably the unique "
            "strongest sink; use generate_bft_cup_graph for larger sinks"
        )
    byzantine_count = f if byzantine_count is None else byzantine_count
    if byzantine_count > f:
        raise ValueError("cannot place more than f Byzantine processes")
    if byzantine_placement == "none":
        byzantine_count = 0

    core_members: list[int] = list(range(1, core_size + 1))
    non_core_members: list[int] = list(range(core_size + 1, core_size + non_core_size + 1))
    byzantine_members: list[int] = list(
        range(core_size + non_core_size + 1, core_size + non_core_size + byzantine_count + 1)
    )

    graph = KnowledgeGraph()
    for node in core_members + non_core_members + byzantine_members:
        graph.add_process(node)
    graph.add_edges(_complete_edges(core_members))

    for position, member in enumerate(non_core_members):
        targets = rng.sample(core_members, min(f + 1, len(core_members)))
        for target in targets:
            graph.add_edge(member, target)
        # As in generate_bft_cup_graph, zero probability skips the draws.
        if extra_edge_probability > 0.0:
            _extra_layer_edges(graph, rng, non_core_members, position, extra_edge_probability)

    placements: list[str] = []
    for index in range(byzantine_count):
        if byzantine_placement == "mixed":
            placements.append("sink" if index % 2 == 0 else "non_sink")
        else:
            placements.append("sink" if byzantine_placement == "sink" else "non_sink")
    for member, placement in zip(byzantine_members, placements, strict=True):
        if placement == "sink":
            # Known by every correct core member (see the comment in
            # generate_bft_cup_graph for why f+1 knowers are not enough).
            for knower in core_members:
                graph.add_edge(knower, member)
            for target in rng.sample(core_members, min(f + 1, len(core_members))):
                graph.add_edge(member, target)
        else:
            for target in rng.sample(core_members, min(f + 1, len(core_members))):
                graph.add_edge(member, target)

    faulty = frozenset(byzantine_members)
    return GraphScenario(
        name=f"bft_cupft(f={f},core={core_size},non_core={non_core_size},seed={seed})",
        graph=graph,
        faulty=faulty,
        fault_threshold=f,
        expected_safe_sink=frozenset(core_members),
        expected_safe_core=frozenset(core_members),
    )


def generate_split_brain_graph(*, group_size: int = 4) -> GraphScenario:
    """Generate a Fig. 2c-style graph: two cliques joined by a single bridge.

    The graph satisfies the BFT-CUP requirements only for ``f = 0`` and is
    *not* extended k-OSR for any useful ``k``: both cliques are sinks of the
    same connectivity, so no core exists.  Used by the impossibility
    experiments.
    """
    if group_size < 2:
        raise ValueError("each group needs at least two processes")
    group_a = list(range(1, group_size + 1))
    group_b = list(range(group_size + 1, 2 * group_size + 1))
    graph = KnowledgeGraph()
    graph.add_edges(_complete_edges(group_a))
    graph.add_edges(_complete_edges(group_b))
    graph.add_edge(group_a[-1], group_b[0])
    graph.add_edge(group_b[0], group_a[-1])
    return GraphScenario(
        name=f"split_brain(group={group_size})",
        graph=graph,
        faulty=frozenset(),
        fault_threshold=0,
        expected_safe_sink=frozenset(group_a + group_b),
        expected_safe_core=frozenset(),
    )


def generate_random_digraph(
    *,
    size: int,
    edge_probability: float = 0.3,
    seed: int = 0,
) -> KnowledgeGraph:
    """Generate an Erdos-Renyi style random digraph (no structural guarantees).

    Used by property-based tests to cross-check the graph algorithms against
    networkx, and as a source of graphs that usually violate the model
    requirements.
    """
    rng = random.Random(seed)
    graph = KnowledgeGraph()
    nodes = list(range(1, size + 1))
    for node in nodes:
        graph.add_process(node)
    for source in nodes:
        for target in nodes:
            if source != target and rng.random() < edge_probability:
                graph.add_edge(source, target)
    return graph


__all__ = [
    "FaultPlacement",
    "generate_bft_cup_graph",
    "generate_bft_cupft_graph",
    "generate_split_brain_graph",
    "generate_random_digraph",
]
