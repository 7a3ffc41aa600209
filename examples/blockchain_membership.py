"""A hybrid-blockchain membership scenario (the paper's motivating setting).

A consortium blockchain is bootstrapped by validators that join knowing only
the peers that invited them; nobody is configured with the total number of
validators or with the fault threshold.  The initial knowledge forms an
extended k-OSR knowledge connectivity graph (generated here), so the
validators can run the BFT-CUPFT protocol: they discover the core, the core
runs the inner BFT consensus on the genesis block, and every other validator
learns the decided block from the core.

The example also shows what happens when the same deployment is attempted on
a knowledge graph that only satisfies the plain BFT-CUP requirements: two
groups of validators can each believe they are the core and fork the chain
(the Theorem 7 scenario).

Run with::

    python examples/blockchain_membership.py
"""

from repro.analysis import RunConfig, run_consensus
from repro.analysis.tables import render_table
from repro.core import ProtocolConfig
from repro.graphs.generators import generate_bft_cupft_graph, generate_split_brain_graph
from repro.adversary.spec import FaultSpec
from repro.sim.synchrony import PartialSynchronyModel


def healthy_deployment() -> None:
    print("=== 1. Bootstrapping on an extended k-OSR knowledge graph (BFT-CUPFT) ===\n")
    scenario = generate_bft_cupft_graph(
        f=2, non_core_size=10, byzantine_placement="sink", seed=42
    )
    proposals = {pid: f"genesis-candidate-{pid}" for pid in scenario.graph.processes}
    faulty = {pid: FaultSpec("wrong_value", poison_value="forged-genesis") for pid in scenario.faulty}
    config = RunConfig(
        graph=scenario.graph,
        protocol=ProtocolConfig.bft_cupft(),
        faulty=faulty,
        proposals=proposals,
        synchrony=PartialSynchronyModel(gst=30.0, delta=1.0),
        seed=7,
    )
    result = run_consensus(config)

    core_estimates = {tuple(sorted(members)) for members in result.identified.values()}
    print(f"validators: {len(scenario.graph.processes)} "
          f"(correct {len(scenario.correct)}, Byzantine {len(scenario.faulty)})")
    print(f"core identified by every correct validator: {core_estimates}")
    print(f"genesis block agreed: {set(result.decisions.values())}")
    print(f"agreement={result.agreement}  termination={result.termination}  "
          f"messages={result.messages_sent}  latency={result.latency():.1f}\n")


def forked_deployment() -> None:
    print("=== 2. The same deployment on a graph without a core (fork!) ===\n")
    scenario = generate_split_brain_graph(group_size=4)
    group_a = {pid for pid in scenario.graph.processes if pid <= 4}
    proposals = {
        pid: ("block-A" if pid in group_a else "block-B") for pid in scenario.graph.processes
    }
    # The two data centres hosting the groups are partitioned until long
    # after bootstrap (admissible under partial synchrony: GST simply has
    # not happened yet for the cross-group links), while traffic inside
    # each data centre is fast.
    class PartitionedBootstrap(PartialSynchronyModel):
        def delay(self, *, now, sender, receiver, sender_correct, receiver_correct, rng):
            if (sender in group_a) != (receiver in group_a):
                return 1_000.0
            return super().delay(
                now=now, sender=sender, receiver=receiver,
                sender_correct=sender_correct, receiver_correct=receiver_correct, rng=rng,
            )

    config = RunConfig(
        graph=scenario.graph,
        protocol=ProtocolConfig.bft_cupft(),
        proposals=proposals,
        synchrony=PartitionedBootstrap(gst=30.0, delta=1.0),
        seed=7,
        horizon=600.0,
    )
    result = run_consensus(config)

    rows = []
    for process in sorted(result.correct):
        rows.append(
            [
                process,
                sorted(result.identified.get(process, frozenset())),
                result.decisions.get(process, "-"),
            ]
        )
    print(render_table(["validator", "believed core", "decided block"], rows))
    print(f"\nagreement violated: {not result.agreement} "
          f"(distinct blocks decided: {sorted(set(map(str, result.decisions.values())))})")
    print("This is exactly the Theorem 7 scenario: the knowledge graph satisfies the BFT-CUP "
          "requirements but has no unique core, so with an unknown fault threshold the two "
          "groups fork.\n")


def main() -> None:
    healthy_deployment()
    forked_deployment()


if __name__ == "__main__":
    main()
