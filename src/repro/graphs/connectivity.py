"""Node-disjoint paths and vertex (strong) connectivity.

Definition 1 of the paper requires the sink component to be *k-strongly
connected*: every process must reach every other process through at least
``k`` node-disjoint paths.  By Menger's theorem the maximum number of
internally node-disjoint ``s -> t`` paths equals the maximum flow in the
*node-split* network where every vertex other than ``s`` and ``t`` has
capacity one.

The flow computation below is a from-scratch Dinic implementation over that
node-split construction.  ``tests/graphs/test_connectivity.py`` cross-checks
it against ``networkx`` on random digraphs (including with hypothesis).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable
from itertools import combinations

from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId

_INF = 10**9


class _FlowNetwork:
    """Minimal adjacency-list max-flow network with Dinic's algorithm."""

    def __init__(self) -> None:
        self._graph: list[list[int]] = []
        # Edge arrays: to[e], cap[e]; reverse edge is e ^ 1.
        self._to: list[int] = []
        self._cap: list[int] = []

    def add_node(self) -> int:
        self._graph.append([])
        return len(self._graph) - 1

    def add_edge(self, source: int, target: int, capacity: int) -> None:
        self._graph[source].append(len(self._to))
        self._to.append(target)
        self._cap.append(capacity)
        self._graph[target].append(len(self._to))
        self._to.append(source)
        self._cap.append(0)

    def max_flow(self, source: int, sink: int, limit: int = _INF) -> int:
        flow = 0
        while flow < limit:
            level = self._bfs_levels(source, sink)
            if level is None:
                break
            iterators = [0] * len(self._graph)
            while flow < limit:
                pushed = self._dfs_push(source, sink, limit - flow, level, iterators)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        level = [-1] * len(self._graph)
        level[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge in self._graph[node]:
                target = self._to[edge]
                if self._cap[edge] > 0 and level[target] < 0:
                    level[target] = level[node] + 1
                    queue.append(target)
        return level if level[sink] >= 0 else None

    def _dfs_push(
        self,
        node: int,
        sink: int,
        limit: int,
        level: list[int],
        iterators: list[int],
    ) -> int:
        if node == sink or limit == 0:
            return limit if node == sink else 0
        while iterators[node] < len(self._graph[node]):
            edge = self._graph[node][iterators[node]]
            target = self._to[edge]
            if self._cap[edge] > 0 and level[target] == level[node] + 1:
                pushed = self._dfs_push(target, sink, min(limit, self._cap[edge]), level, iterators)
                if pushed > 0:
                    self._cap[edge] -= pushed
                    self._cap[edge ^ 1] += pushed
                    return pushed
            iterators[node] += 1
        return 0


def node_disjoint_path_count(
    graph: KnowledgeGraph,
    source: ProcessId,
    target: ProcessId,
    cutoff: int | None = None,
) -> int:
    """Return the maximum number of internally node-disjoint ``source -> target`` paths.

    A direct edge ``source -> target`` counts as one path.  ``cutoff`` stops
    the flow computation once that many paths have been found, which speeds
    up ``is_k_strongly_connected`` checks.
    """
    if source == target:
        raise ValueError("source and target must differ")
    if source not in graph or target not in graph:
        raise KeyError("source and target must be processes of the graph")

    network = _FlowNetwork()
    node_in: dict[ProcessId, int] = {}
    node_out: dict[ProcessId, int] = {}
    for node in graph:
        node_in[node] = network.add_node()
        node_out[node] = network.add_node()
        capacity = _INF if node in (source, target) else 1
        network.add_edge(node_in[node], node_out[node], capacity)
    # Edge capacity 1: node-disjoint paths never reuse an edge, and a unit
    # capacity keeps the direct ``source -> target`` edge counting as exactly
    # one path (both endpoints have unbounded node capacity).
    for edge_source, edge_target in graph.edges():
        network.add_edge(node_out[edge_source], node_in[edge_target], 1)
    limit = _INF if cutoff is None else cutoff
    return network.max_flow(node_out[source], node_in[target], limit=limit)


def is_k_strongly_connected(
    graph: KnowledgeGraph,
    k: int,
    nodes: Iterable[ProcessId] | None = None,
) -> bool:
    """Return ``True`` when every ordered pair has at least ``k`` node-disjoint paths.

    With ``nodes`` given, the check is performed on the induced subgraph
    ``graph[nodes]``.
    """
    if k <= 0:
        return True
    target_graph = graph if nodes is None else graph.subgraph(nodes)
    members = list(target_graph.processes)
    if len(members) <= 1:
        return True
    # A node with out-degree (or in-degree) below k immediately fails.
    for node in members:
        if target_graph.out_degree(node) < k or target_graph.in_degree(node) < k:
            return False
    for first, second in combinations(members, 2):
        if node_disjoint_path_count(target_graph, first, second, cutoff=k) < k:
            return False
        if node_disjoint_path_count(target_graph, second, first, cutoff=k) < k:
            return False
    return True


def vertex_connectivity(
    graph: KnowledgeGraph,
    nodes: Iterable[ProcessId] | None = None,
) -> int:
    """Return the strong connectivity ``κ`` of ``graph`` (or of ``graph[nodes]``).

    ``κ`` is the maximum ``k`` for which the graph is k-strongly connected.
    For a graph with at most one vertex the function returns ``0``; for the
    complete digraph on ``n`` vertices it returns ``n - 1``.
    """
    target_graph = graph if nodes is None else graph.subgraph(nodes)
    members = list(target_graph.processes)
    if len(members) <= 1:
        return 0
    minimum = _INF
    for first, second in combinations(members, 2):
        forward = node_disjoint_path_count(target_graph, first, second, cutoff=minimum)
        minimum = min(minimum, forward)
        if minimum == 0:
            return 0
        backward = node_disjoint_path_count(target_graph, second, first, cutoff=minimum)
        minimum = min(minimum, backward)
        if minimum == 0:
            return 0
    return minimum


def fewest_disjoint_paths(
    graph: KnowledgeGraph,
    sources: Iterable[ProcessId],
    targets: Collection[ProcessId],
    *,
    need: int,
    cutoff: int | None,
) -> tuple[int | None, tuple[ProcessId, ProcessId] | None]:
    """Count node-disjoint paths from every source to every (other) target, in the order given.

    Returns ``(fewest, shortfall)``: the fewest paths over the pairs walked
    (each count stops at ``cutoff``; ``None`` when there is no pair) and the
    first ``(source, target)`` pair with fewer than ``need`` paths, at which
    the walk stops -- so on a shortfall ``fewest`` is that pair's count.
    This is the one walk behind Definition 1's paths into the sink, Property
    C2's paths into the core and :func:`node_disjoint_paths_between_sets`.
    """
    fewest: int | None = None
    for source in sources:
        for target in targets:
            if target == source:
                continue
            paths = node_disjoint_path_count(graph, source, target, cutoff=cutoff)
            fewest = paths if fewest is None else min(fewest, paths)
            if paths < need:
                return fewest, (source, target)
    return fewest, None


def node_disjoint_paths_between_sets(
    graph: KnowledgeGraph,
    source: ProcessId,
    targets: Iterable[ProcessId],
    cutoff: int | None = None,
) -> int:
    """Return the minimum, over ``targets``, of node-disjoint path counts from ``source``.

    Definition 1 requires at least ``k`` node-disjoint paths from every
    non-sink process to *every* sink process, so the binding quantity is the
    minimum over sink processes.  The walk stops at the first target below
    ``cutoff`` (at the first unreachable one without a cutoff).
    """
    need = 1 if cutoff is None else cutoff
    fewest, _ = fewest_disjoint_paths(graph, [source], list(targets), need=need, cutoff=cutoff)
    return fewest or 0
