"""Build your own knowledge connectivity graph and check it before deploying.

This example shows the graph-analysis half of the library: constructing a
:class:`~repro.graphs.KnowledgeGraph` by hand, checking which model
requirements it satisfies (and getting actionable failure reasons when it
does not), repairing it, and finally running the protocol on it.

Run with::

    python examples/custom_topology.py
"""

from repro.adversary.spec import FaultSpec
from repro.analysis import RunConfig, run_consensus
from repro.core import ProtocolConfig
from repro.graphs import (
    KnowledgeGraph,
    bft_cup_report,
    bft_cupft_report,
    StaticOracle,
)


def build_draft_topology() -> KnowledgeGraph:
    """A first attempt: a ring of five data centres plus four edge sites."""
    graph = KnowledgeGraph()
    ring = [1, 2, 3, 4, 5]
    for index, node in enumerate(ring):
        graph.add_edge(node, ring[(index + 1) % len(ring)])          # next
    for edge_site, contacts in {6: [1], 7: [2], 8: [3], 9: [4]}.items():
        for contact in contacts:
            graph.add_edge(edge_site, contact)
    return graph


def repair_topology(graph: KnowledgeGraph) -> KnowledgeGraph:
    """Add the knowledge the checker says is missing."""
    repaired = graph.copy()
    ring = [1, 2, 3, 4, 5]
    for index, node in enumerate(ring):
        repaired.add_edge(node, ring[(index + 2) % len(ring)])       # skip-one chord
        repaired.add_edge(node, ring[(index - 1) % len(ring)])       # backwards link
    for edge_site, contact in {6: 2, 7: 3, 8: 4, 9: 1}.items():
        repaired.add_edge(edge_site, contact)                        # second entry point
    return repaired


def main() -> None:
    faulty = frozenset({5})
    fault_threshold = 1

    draft = build_draft_topology()
    report = bft_cup_report(draft, fault_threshold, faulty)
    print("Draft topology (ring + single-homed edge sites)")
    print(f"  satisfies BFT-CUP requirements: {report.satisfied}")
    for reason in report.failures:
        print(f"    - {reason}")
    print()

    repaired = repair_topology(draft)
    cup = bft_cup_report(repaired, fault_threshold, faulty)
    cupft = bft_cupft_report(repaired, fault_threshold, faulty)
    oracle = StaticOracle(repaired, faulty)
    print("Repaired topology (chorded ring + dual-homed edge sites)")
    print(f"  satisfies BFT-CUP requirements:    {cup.satisfied}")
    print(f"  satisfies BFT-CUPFT requirements:  {cupft.satisfied}")
    print(f"  sink of Gsafe: {sorted(oracle.safe_sink)}   core of Gsafe: {sorted(oracle.safe_core)}")
    print()

    config = RunConfig(
        graph=repaired,
        protocol=ProtocolConfig.bft_cupft(),
        faulty={5: FaultSpec("silent")},
        proposals={pid: f"config-v{pid}" for pid in repaired.processes},
    )
    result = run_consensus(config)
    print("Protocol run on the repaired topology (process 5 Byzantine-silent, f unknown):")
    print(f"  identified core(s): {sorted({tuple(sorted(m)) for m in result.identified.values()})}")
    print(f"  decided value(s):   {set(result.decisions.values())}")
    print(f"  consensus solved:   {result.consensus_solved}")


if __name__ == "__main__":
    main()
