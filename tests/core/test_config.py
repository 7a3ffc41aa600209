"""Tests for the protocol configuration validation."""

import dataclasses

import pytest

from repro.analysis.harness import RunConfig, build_protocol_nodes
from repro.core.config import ProtocolConfig, ProtocolMode, QuorumRule
from repro.crypto.signatures import KeyRegistry
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.synchrony import PartialSynchronyModel
from repro.sim.tracing import SimulationTrace


def run_replicas(protocol):
    """Run five mutually-known processes to decision; return their replicas.

    With ``f = 1`` the whole group is the sink, and the two quorum rules
    differ on it: the paper's ``⌈(5 + 1 + 1) / 2⌉ = 4`` against the classic
    ``2f + 1 = 3``.
    """
    members = range(1, 6)
    graph = KnowledgeGraph({p: [q for q in members if q != p] for p in members})
    simulator = Simulator(max_time=5_000.0)
    trace = SimulationTrace()
    network = Network(simulator, PartialSynchronyModel(), trace=trace, seed=0, faulty=frozenset())
    config = RunConfig(graph=graph, protocol=protocol)
    nodes = build_protocol_nodes(config, SimRuntime(simulator, network), KeyRegistry(seed=0))
    for pid, node in nodes.items():
        node.propose(f"value-of-{pid}")
    simulator.run(until=lambda: all(node.decided for node in nodes.values()))
    assert all(node.decided for node in nodes.values())
    return [node.replica for node in nodes.values()]


class TestProtocolConfig:
    def test_bft_cup_requires_fault_threshold(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mode=ProtocolMode.BFT_CUP, fault_threshold=None)

    def test_bft_cupft_forbids_fault_threshold(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mode=ProtocolMode.BFT_CUPFT, fault_threshold=1)

    def test_negative_fault_threshold_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mode=ProtocolMode.BFT_CUP, fault_threshold=-1)

    def test_convenience_constructors(self):
        cup = ProtocolConfig.bft_cup(2)
        assert cup.mode is ProtocolMode.BFT_CUP
        assert cup.fault_threshold == 2
        cupft = ProtocolConfig.bft_cupft()
        assert cupft.mode is ProtocolMode.BFT_CUPFT
        assert cupft.fault_threshold is None

    def test_quorum_rule_is_forwarded_to_pbft(self):
        config = ProtocolConfig.bft_cup(1, quorum_rule=QuorumRule.CLASSIC)
        replicas = run_replicas(config)
        assert {(replica.quorum_rule, replica._quorum) for replica in replicas} == {("classic", 3)}

    def test_replaced_config_does_not_change_the_original_quorum(self):
        # The quorum rule has one home: building ``paper`` from ``classic``
        # must leave ``classic``'s own replicas on the classic quorum.
        classic = ProtocolConfig.bft_cup(1, quorum_rule=QuorumRule.CLASSIC)
        paper = dataclasses.replace(classic, quorum_rule=QuorumRule.PAPER)
        assert {replica._quorum for replica in run_replicas(classic)} == {3}
        assert {replica._quorum for replica in run_replicas(paper)} == {4}
        assert classic.quorum_rule is QuorumRule.CLASSIC

    @pytest.mark.parametrize("value,rule", [("classic", QuorumRule.CLASSIC), ("paper", QuorumRule.PAPER)])
    def test_quorum_rule_value_is_coerced(self, value, rule):
        assert ProtocolConfig.bft_cup(1, quorum_rule=value).quorum_rule is rule

    def test_unknown_quorum_rule_fails_when_built(self):
        with pytest.raises(ValueError, match="'paper', 'classic'"):
            ProtocolConfig.bft_cupft(quorum_rule="majority")

    def test_defaults(self):
        config = ProtocolConfig.bft_cupft()
        assert config.quorum_rule is QuorumRule.PAPER
        assert [field.name for field in dataclasses.fields(ProtocolConfig)] == [
            "mode",
            "fault_threshold",
            "quorum_rule",
        ]
