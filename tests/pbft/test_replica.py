"""Tests for the single-shot PBFT-style replica (the inner consensus)."""

import pytest

from repro.crypto.aggregate import AggregateTag, aggregate_signatures
from repro.crypto.signatures import KeyRegistry
from repro.pbft.messages import GroupKey, PreparedCertificate, PrePrepare
from repro.pbft.replica import (
    PbftConfig,
    SingleShotPbft,
    _prepare_payload,
    preprepare_payload,
)
from repro.sim.engine import Simulator


class Harness:
    """Runs a group of replicas over an in-memory instant network."""

    def __init__(
        self, members, fault_threshold, byzantine=frozenset(), quorum_rule="paper", aggregate=False
    ):
        self.simulator = Simulator(max_time=100_000.0)
        self.registry = KeyRegistry(seed=0)
        self.members = list(members)
        self.byzantine = set(byzantine)
        self.decisions = {}
        group = GroupKey(members=frozenset(members))
        self.replicas = {}
        for member in members:
            if member in self.byzantine:
                continue
            self.replicas[member] = SingleShotPbft(
                process_id=member,
                group=group,
                fault_threshold=fault_threshold,
                proposal=f"value-{member}",
                key=self.registry.generate(member),
                registry=self.registry,
                send=lambda receiver, payload, sender=member: self.deliver(sender, receiver, payload),
                schedule=lambda delay, callback: self.simulator.schedule(delay, callback),
                on_decide=lambda value, member=member: self.decisions.setdefault(member, value),
                config=PbftConfig(
                    base_timeout=10.0, quorum_rule=quorum_rule, aggregate_certificates=aggregate
                ),
            )
        self.group = group

    def deliver(self, sender, receiver, payload):
        replica = self.replicas.get(receiver)
        if replica is None:
            return
        # Deliver with a small delay through the simulator so ordering is
        # deterministic but asynchronous-ish.
        self.simulator.schedule(0.1, lambda: replica.handle(sender, payload))

    def run(self):
        for replica in self.replicas.values():
            replica.start()
        self.simulator.run(until=lambda: len(self.decisions) == len(self.replicas))
        return self.decisions


class TestHappyPath:
    def test_all_correct_replicas_decide_the_leader_value(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        decisions = harness.run()
        assert set(decisions) == {1, 2, 3, 4}
        assert set(decisions.values()) == {"value-1"}  # leader of view 0 is process 1

    @pytest.mark.parametrize("size,f", [(3, 1), (5, 2), (7, 2)])
    def test_various_group_sizes(self, size, f):
        harness = Harness(members=list(range(1, size + 1)), fault_threshold=f)
        decisions = harness.run()
        assert len(decisions) == size
        assert len(set(map(repr, decisions.values()))) == 1

    def test_classic_quorum_rule(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, quorum_rule="classic")
        decisions = harness.run()
        assert len(set(map(repr, decisions.values()))) == 1


class TestFaultTolerance:
    def test_silent_byzantine_member(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={4})
        decisions = harness.run()
        assert set(decisions) == {1, 2, 3}
        assert len(set(decisions.values())) == 1

    def test_silent_byzantine_leader_triggers_view_change(self):
        # Member 1 (the view-0 leader) is Byzantine-silent: the others must
        # rotate to view 1 and decide the new leader's value.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={1})
        decisions = harness.run()
        assert set(decisions) == {2, 3, 4}
        assert set(decisions.values()) == {"value-2"}

    def test_equivocating_leader_cannot_cause_disagreement(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={1})
        group = harness.group
        key = harness.registry.generate(1)
        # The Byzantine leader sends different view-0 proposals to different members.
        for member, value in ((2, "evil-A"), (3, "evil-B"), (4, "evil-A")):
            signed = key.sign(preprepare_payload(group, 0, value))
            harness.deliver(1, member, PrePrepare(group=group, view=0, value=value, signed=signed))
        decisions = harness.run()
        assert len(decisions) == 3
        assert len(set(decisions.values())) == 1  # agreement despite equivocation

    def test_decisions_are_integrity_preserving(self):
        harness = Harness(members=[1, 2, 3], fault_threshold=0)
        harness.run()
        replica = harness.replicas[1]
        first_value = replica.decided_value
        # Feeding more traffic after the decision must not change it.
        replica.handle(2, PrePrepare(group=harness.group, view=5, value="late", signed=harness.registry.generate(2).sign("x")))
        assert replica.decided_value == first_value


class TestValidation:
    def test_replica_must_be_a_member(self):
        registry = KeyRegistry(seed=0)
        with pytest.raises(ValueError):
            SingleShotPbft(
                process_id=9,
                group=GroupKey(members=frozenset({1, 2, 3})),
                fault_threshold=1,
                proposal="x",
                key=registry.generate(9),
                registry=registry,
                send=lambda *_: None,
                schedule=lambda *_: None,
                on_decide=lambda *_: None,
            )

    def test_messages_from_other_groups_are_ignored(self):
        harness = Harness(members=[1, 2, 3], fault_threshold=0)
        other_group = GroupKey(members=frozenset({7, 8, 9}))
        key = harness.registry.generate(7)
        message = PrePrepare(
            group=other_group, view=0, value="other", signed=key.sign(preprepare_payload(other_group, 0, "other"))
        )
        harness.replicas[1].handle(7, message)
        assert harness.replicas[1]._preprepare_seen == {}

    def test_forged_preprepare_is_ignored(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={4})
        group = harness.group
        mallory = harness.registry.generate(4)
        # Process 4 forges a pre-prepare pretending to be leader 1.
        forged = PrePrepare(
            group=group, view=0, value="forged", signed=mallory.sign(preprepare_payload(group, 0, "forged"))
        )
        harness.replicas[2].handle(1, forged)
        assert 0 not in harness.replicas[2]._prepared_sent


class TestTimerLifecycle:
    """Regression tests: view timers die on decide instead of no-op firing.

    Before the fix, every armed view timer outlived the decision and fired
    as a no-op event at its (exponentially growing) deadline — on
    member-heavy runs the simulation clock kept ticking long after the last
    decision.  The replica now cancels its outstanding timers the moment it
    decides, so a decided group's event queue drains immediately.
    """

    def test_view_timers_are_cancelled_on_decide(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        decisions = harness.run()
        assert len(decisions) == 4
        for replica in harness.replicas.values():
            assert replica.decided
            assert replica._view_timers == []
        # Drain everything still queued (late deliveries only): no timer may
        # fire, so virtual time must stay far below the first view timeout.
        harness.simulator.run()
        assert harness.simulator.pending_events() == 0
        assert harness.simulator.now < harness.replicas[1].config.base_timeout

    def test_view_change_path_also_cancels_its_timers(self):
        # A silent leader forces a view change; the decision lands in view 1
        # with timers armed for views 0 and 1.  All must die on decide.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={1})
        decisions = harness.run()
        assert len(decisions) == 3
        for replica in harness.replicas.values():
            assert replica._view_timers == []
        at_decision_now = harness.simulator.now
        at_decision_events = harness.simulator.processed_events
        harness.simulator.run()
        # Only in-flight message deliveries may remain: the clock must not
        # jump to the view-1 timer deadline.
        assert harness.simulator.now < at_decision_now + 5.0
        assert harness.simulator.processed_events - at_decision_events < 50
        assert harness.simulator.pending_events() == 0


class TestAggregatedCertificates:
    """Quorum certificates folded into one AggregateTag (opt-in fast path)."""

    def _prepared_votes(self, harness, view, value, voters):
        payload = _prepare_payload(harness.group, view, value)
        return [harness.registry.generate(voter).sign(payload) for voter in voters]

    def test_happy_path_decides_and_locks_aggregated_certificates(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        decisions = harness.run()
        assert set(decisions) == {1, 2, 3, 4}
        assert set(decisions.values()) == {"value-1"}
        for replica in harness.replicas.values():
            certificate = replica.locked
            assert certificate is not None
            assert certificate.prepares == frozenset()
            assert certificate.aggregate is not None
            assert len(certificate.aggregate.signers) >= replica._quorum

    def test_view_change_carries_aggregated_certificates(self):
        # A silent view-0 leader forces a view change; the locked aggregated
        # certificates travel inside the ViewChange messages and must pass
        # _certificate_is_valid on every receiver.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, byzantine={1}, aggregate=True)
        decisions = harness.run()
        assert set(decisions) == {2, 3, 4}
        assert set(decisions.values()) == {"value-2"}

    def test_valid_aggregate_certificate_accepted(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        replica = harness.replicas[1]
        votes = self._prepared_votes(harness, 0, "v", [1, 2, 3])
        certificate = PreparedCertificate(
            group=harness.group,
            view=0,
            value="v",
            prepares=frozenset(),
            aggregate=aggregate_signatures(votes),
        )
        assert replica._certificate_is_valid(certificate)

    def test_tampered_aggregate_tag_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        replica = harness.replicas[1]
        aggregate = aggregate_signatures(self._prepared_votes(harness, 0, "v", [1, 2, 3]))
        flipped = "0" if aggregate.tag[0] != "0" else "1"
        tampered = PreparedCertificate(
            group=harness.group,
            view=0,
            value="v",
            prepares=frozenset(),
            aggregate=AggregateTag(
                scheme=aggregate.scheme,
                signers=aggregate.signers,
                tag=flipped + aggregate.tag[1:],
            ),
        )
        assert not replica._certificate_is_valid(tampered)

    def test_sub_quorum_signer_set_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        replica = harness.replicas[1]
        votes = self._prepared_votes(harness, 0, "v", [1, 2])  # quorum is 3
        certificate = PreparedCertificate(
            group=harness.group,
            view=0,
            value="v",
            prepares=frozenset(),
            aggregate=aggregate_signatures(votes),
        )
        assert len(votes) < replica._quorum
        assert not replica._certificate_is_valid(certificate)

    def test_signers_outside_the_group_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        replica = harness.replicas[1]
        payload = _prepare_payload(harness.group, 0, "v")
        outsider_votes = [harness.registry.generate(voter).sign(payload) for voter in (1, 2, 9)]
        certificate = PreparedCertificate(
            group=harness.group,
            view=0,
            value="v",
            prepares=frozenset(),
            aggregate=aggregate_signatures(outsider_votes),
        )
        assert not replica._certificate_is_valid(certificate)

    def test_aggregate_over_a_different_value_rejected(self):
        # The aggregate verifies against the *claimed* (view, value) payload:
        # re-badging a certificate for value "v" as one for value "w" fails.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True)
        replica = harness.replicas[1]
        aggregate = aggregate_signatures(self._prepared_votes(harness, 0, "v", [1, 2, 3]))
        rebadged = PreparedCertificate(
            group=harness.group, view=0, value="w", prepares=frozenset(), aggregate=aggregate
        )
        assert not replica._certificate_is_valid(rebadged)

    def test_aggregated_and_plain_runs_decide_identically(self):
        plain = Harness(members=[1, 2, 3, 4], fault_threshold=1).run()
        aggregated = Harness(members=[1, 2, 3, 4], fault_threshold=1, aggregate=True).run()
        assert plain == aggregated

    def test_protocol_options_reach_the_replica_config(self):
        from repro.experiments import GraphSpec, Scenario
        from repro.workloads.builders import scenario_run_config

        scenario = Scenario(
            name="agg-cell",
            graph=GraphSpec.figure("fig1b"),
            seed=3,
            protocol_options=(("aggregate_quorum_certs", True),),
        )
        config = scenario_run_config(scenario)
        assert config.protocol.aggregate_quorum_certs
        assert config.protocol.pbft.aggregate_certificates

    def test_aggregated_cell_solves_like_the_plain_cell(self):
        from repro.experiments import GraphSpec, Scenario, SuiteRunner

        plain = Scenario(name="plain", graph=GraphSpec.figure("fig1b"), seed=3)
        aggregated = Scenario(
            name="aggregated",
            graph=GraphSpec.figure("fig1b"),
            seed=3,
            protocol_options=(("aggregate_quorum_certs", True),),
        )
        suite = SuiteRunner(fail_fast=True).run([plain, aggregated])
        summaries = {outcome.scenario.name: outcome.summary for outcome in suite.outcomes}
        # Aggregation changes the certificate wire format, not the protocol
        # trajectory: both cells must terminate and agree identically.
        for name in ("plain", "aggregated"):
            assert summaries[name]["terminated"], name
            assert summaries[name]["agreement"], name
