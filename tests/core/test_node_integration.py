"""End-to-end protocol runs on the paper's figures (integration tests).

Each test simulates a full execution -- Discovery, Sink/Core location, inner
consensus, decided-value dissemination -- and asserts the consensus
properties plus the identity of the returned sink/core.
"""

import pytest

from repro.analysis import run_consensus
from repro.core import ProtocolMode
from repro.graphs.requirements import StaticOracle
from repro.runtime.sim import SimRuntime
from repro.workloads import graph_run_config

BEHAVIOURS = ["silent", "crash", "lying_pd", "wrong_value", "equivocating_leader"]


class TestBftCupOnFig1b:
    @pytest.mark.parametrize("behaviour", BEHAVIOURS)
    def test_consensus_solved_under_every_behaviour(self, figures, behaviour):
        config = graph_run_config(
            figures["fig1b"], mode=ProtocolMode.BFT_CUP, behaviour=behaviour
        )
        result = run_consensus(config)
        assert result.consensus_solved, result.summary()

    def test_every_correct_process_returns_the_expected_sink(self, figures):
        scenario = figures["fig1b"]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        result = run_consensus(
            graph_run_config(scenario, mode=ProtocolMode.BFT_CUP, behaviour="silent")
        )
        assert set(result.identified) == set(result.correct)
        assert set(result.identified.values()) == {oracle.expected_sink}

    def test_decided_value_was_proposed_by_a_sink_member(self, figures):
        scenario = figures["fig1b"]
        proposals = {pid: f"v{pid}" for pid in scenario.graph.processes}
        result = run_consensus(
            graph_run_config(
                scenario, mode=ProtocolMode.BFT_CUP, behaviour="silent", proposals=proposals
            )
        )
        decided = set(result.decisions.values())
        assert len(decided) == 1
        assert decided <= {f"v{pid}" for pid in (1, 2, 3, 4)}

    def test_non_sink_members_decide_after_sink_members(self, figures):
        scenario = figures["fig1b"]
        result = run_consensus(
            graph_run_config(scenario, mode=ProtocolMode.BFT_CUP, behaviour="silent")
        )
        sink_times = [result.decision_times[p] for p in (1, 2, 3)]
        non_sink_times = [result.decision_times[p] for p in (5, 6, 7, 8)]
        assert min(non_sink_times) >= min(sink_times)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_different_schedules(self, figures, seed):
        config = graph_run_config(
            figures["fig1b"], mode=ProtocolMode.BFT_CUP, behaviour="silent", seed=seed
        )
        result = run_consensus(config)
        assert result.consensus_solved


class TestBftCupftOnFig4:
    @pytest.mark.parametrize("name", ["fig4a", "fig4b"])
    @pytest.mark.parametrize("behaviour", BEHAVIOURS)
    def test_consensus_without_fault_threshold(self, figures, name, behaviour):
        config = graph_run_config(
            figures[name], mode=ProtocolMode.BFT_CUPFT, behaviour=behaviour
        )
        result = run_consensus(config)
        assert result.consensus_solved, (name, behaviour, result.summary())

    @pytest.mark.parametrize("name", ["fig4a", "fig4b"])
    def test_core_identification_agreement(self, figures, name):
        scenario = figures[name]
        oracle = StaticOracle(scenario.graph, scenario.faulty)
        result = run_consensus(
            graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT, behaviour="silent")
        )
        assert set(result.identified.values()) == {oracle.expected_core}

    def test_fault_threshold_estimate_matches_core_connectivity(self, figures):
        scenario = figures["fig4b"]
        result = run_consensus(
            graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT, behaviour="silent")
        )
        estimates = {e for e in result.estimated_fault_thresholds.values() if e is not None}
        assert estimates == {1}

    def test_fig3b_with_two_byzantine_processes(self, figures):
        result = run_consensus(
            graph_run_config(figures["fig3b"], mode=ProtocolMode.BFT_CUPFT, behaviour="silent")
        )
        assert result.consensus_solved
        assert set(result.identified.values()) == {frozenset(range(1, 8))}


class TestNegativeScenarios:
    def test_fig1a_silent_byzantine_splits_the_system(self, figures):
        """Fig. 1a: the graph violates the requirements, and the protocol splits."""
        result = run_consensus(
            graph_run_config(figures["fig1a"], mode=ProtocolMode.BFT_CUP, behaviour="silent")
        )
        assert not result.properties.identification_agreement
        assert not result.agreement

    def test_fig2c_without_fault_threshold_violates_agreement(self, figures):
        """Theorem 7's ambiguity on the full Fig. 2c graph under a partition-like schedule."""
        from repro.analysis.impossibility import run_impossibility_experiment

        outcome = run_impossibility_experiment()
        assert outcome.demonstrates_theorem

    def test_bft_cup_mode_with_known_f_still_splits_on_fig1a(self, figures):
        # Knowing f does not help when the knowledge connectivity graph does
        # not satisfy the Theorem 1 requirements.
        result = run_consensus(
            graph_run_config(figures["fig1a"], mode=ProtocolMode.BFT_CUP, behaviour="silent", seed=5)
        )
        assert not result.agreement


class TestProtocolDetails:
    def test_integrity_every_process_decides_once(self, figures):
        result = run_consensus(
            graph_run_config(figures["fig1b"], mode=ProtocolMode.BFT_CUP, behaviour="silent")
        )
        assert result.properties.integrity
        # the trace records exactly one decision per correct process
        assert set(result.trace.decisions) >= set(result.correct)

    def test_propose_twice_raises(self, figures):
        from repro.analysis.harness import RunConfig, build_protocol_nodes
        from repro.crypto.signatures import KeyRegistry
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.synchrony import PartialSynchronyModel
        from repro.sim.tracing import SimulationTrace
        from repro.core.config import ProtocolConfig

        scenario = figures["fig1b"]
        config = RunConfig(graph=scenario.graph, protocol=ProtocolConfig.bft_cup(1))
        simulator = Simulator()
        trace = SimulationTrace()
        network = Network(simulator, PartialSynchronyModel(), trace=trace, seed=0)
        runtime = SimRuntime(simulator, network)
        nodes = build_protocol_nodes(config, runtime, KeyRegistry(seed=0))
        nodes[1].propose("v")
        with pytest.raises(RuntimeError):
            nodes[1].propose("v")

    def test_message_counts_are_recorded(self, figures):
        result = run_consensus(
            graph_run_config(figures["fig1b"], mode=ProtocolMode.BFT_CUP, behaviour="silent")
        )
        assert result.messages_sent > 0
        assert result.trace.sent_by_kind["GetPds"] > 0
        assert result.trace.sent_by_kind["SetPds"] > 0


class TestTimerLifecycle:
    """Regression tests for the dead-periodic-timer fix.

    Discovery timers used to keep firing (as no-op events) after
    identification stopped discovery, and decided
    non-members kept processing query ticks, so a decided run's event queue
    never drained before the horizon.
    """

    def _world(self, figures, horizon=20_000.0):
        from repro.adversary.spec import FaultSpec
        from repro.analysis.harness import RunConfig, build_protocol_nodes
        from repro.core.config import ProtocolConfig
        from repro.crypto.signatures import KeyRegistry
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.synchrony import PartialSynchronyModel
        from repro.sim.tracing import SimulationTrace

        scenario = figures["fig4b"]
        config = RunConfig(
            graph=scenario.graph,
            protocol=ProtocolConfig.bft_cupft(),
            faulty={4: FaultSpec("silent")},
            horizon=horizon,
        )
        simulator = Simulator(max_time=horizon)
        trace = SimulationTrace()
        network = Network(
            simulator, PartialSynchronyModel(), trace=trace, seed=0, faulty=frozenset({4})
        )
        runtime = SimRuntime(simulator, network)
        nodes = build_protocol_nodes(config, runtime, KeyRegistry(seed=0))
        correct = sorted(scenario.graph.processes - {4})
        for pid, node in nodes.items():
            node.propose(f"value-of-{pid}")
        return simulator, nodes, correct

    def test_decided_long_horizon_run_drains_instead_of_ticking_to_horizon(self, figures):
        simulator, nodes, correct = self._world(figures)
        simulator.run(until=lambda: all(nodes[p].decided for p in correct))
        assert all(nodes[p].decided for p in correct)
        at_decision = simulator.processed_events
        simulator.run()  # keep going: only genuinely pending work may remain
        extra = simulator.processed_events - at_decision
        # Seed behaviour on this exact run: 35_909 no-op timer events between
        # the last decision and the 20k-virtual-time horizon (36_481 total).
        # With timers cancelled at identification/decision the queue drains
        # almost immediately after the last decision.
        assert extra < 100, extra
        assert simulator.processed_events < 1_000
        assert simulator.pending_events() == 0
        assert simulator.now < 1_000.0

    def test_discovery_timer_dies_on_identification(self, figures):
        simulator, nodes, correct = self._world(figures)
        simulator.run(until=lambda: all(nodes[p].identified_members is not None for p in correct))
        for pid in correct:
            assert nodes[pid]._discovery_timer is None
            assert not nodes[pid]._discovery_active

    def test_query_timer_dies_on_decision(self, figures):
        simulator, nodes, correct = self._world(figures)
        simulator.run(until=lambda: all(nodes[p].decided for p in correct))
        for pid in correct:
            assert nodes[pid]._query_timer is None

    def test_pbft_view_timers_die_on_decision(self, figures):
        """Post-decision event-count regression for the PBFT one-shot timers.

        PR 3 cancelled the discovery and query periodic timers, leaving the
        PBFT view-change one-shots to fire and no-op until the horizon (3
        stray events on this run).  With the replica cancelling its view
        timers on decide, a fully decided run leaves *zero* post-decision
        events: the queue is empty the moment the last correct process
        decides.
        """
        simulator, nodes, correct = self._world(figures)
        simulator.run(until=lambda: all(nodes[p].decided for p in correct))
        at_decision = simulator.processed_events
        for pid in correct:
            replica = nodes[pid].replica
            if replica is not None:
                assert replica._view_timers == []
        simulator.run()  # drain whatever is left
        assert simulator.processed_events - at_decision == 0
        assert simulator.pending_events() == 0


class TestDecidedValueVoting:
    """Regression tests for the Byzantine double-vote hole (Algorithm 3, line 7)."""

    def _node(self, members=frozenset({10, 11, 12})):
        from repro.core.config import ProtocolConfig
        from repro.core.node import ConsensusNode
        from repro.crypto.signatures import KeyRegistry
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.synchrony import PartialSynchronyModel
        from repro.sim.tracing import SimulationTrace

        simulator = Simulator()
        trace = SimulationTrace()
        network = Network(simulator, PartialSynchronyModel(), trace=trace, seed=0)
        registry = KeyRegistry(seed=0)
        node = ConsensusNode(
            process_id=99,
            participant_detector=frozenset({99}),
            runtime=SimRuntime(simulator, network),
            registry=registry,
            key=registry.generate(99),
            config=ProtocolConfig.bft_cupft(),
        )
        node._proposed = True
        node.identified_members = members
        return node

    def test_none_reply_counts_as_the_members_only_vote(self):
        from repro.core.messages import DecidedValue

        node = self._node()
        node._handle_decided_value(10, DecidedValue(value=None))
        # The double-vote hole: the None reply used not to be recorded, so
        # the same member could vote again with a different value.
        node._handle_decided_value(10, DecidedValue(value="evil"))
        assert node._decided_value_votes == {10: None}
        node._handle_decided_value(11, DecidedValue(value="good"))
        node._handle_decided_value(12, DecidedValue(value="good"))
        assert node.decided and node.value == "good"

    def test_member_cannot_change_its_vote(self):
        from repro.core.messages import DecidedValue

        node = self._node()
        node._handle_decided_value(10, DecidedValue(value="evil"))
        node._handle_decided_value(10, DecidedValue(value="evil"))
        assert not node.decided  # one member, one vote: no majority of 3 yet
        node._handle_decided_value(10, DecidedValue(value="good"))
        assert node._decided_value_votes == {10: "evil"}

    def test_non_member_votes_are_ignored(self):
        from repro.core.messages import DecidedValue

        node = self._node(members=frozenset({10, 11}))
        node._handle_decided_value(77, DecidedValue(value="evil"))
        assert node._decided_value_votes == {}

    def test_literal_none_decision_does_not_wedge_the_node(self):
        from repro.core.messages import DecidedValue

        node = self._node(members=frozenset({10, 11}))
        node._query_timer = node.every(10.0, node._query_round)
        node._handle_decided_value(10, DecidedValue(value=None))
        node._handle_decided_value(11, DecidedValue(value=None))
        # A Byzantine majority pushing a literal None decision must still
        # mark the node decided (and kill the query loop), not leave it
        # re-querying forever because ``value is not None`` stays false.
        assert node.decided
        assert node.value is None
        assert node._query_timer is None
