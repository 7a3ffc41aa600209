"""Tests for the single-shot PBFT-style replica (the inner consensus)."""

import pytest

from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.pbft.messages import Commit, GroupKey, Prepare, PreparedCertificate, PrePrepare, ViewChange
from repro.pbft.replica import VIEW_TIMEOUT, SingleShotPbft, _prepare_payload, preprepare_payload
from repro.sim.engine import Simulator


class Harness:
    """Runs a group of replicas over an in-memory instant network."""

    def __init__(self, members, fault_threshold, byzantine=frozenset(), quorum_rule="paper"):
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
                quorum_rule=quorum_rule,
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
        assert harness.simulator.now < VIEW_TIMEOUT

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



class TestPreparedCertificates:
    """A prepared certificate is the quorum's signed prepare votes; every check on it."""

    def _certificate(self, harness, view, value, voters, group=None):
        payload = _prepare_payload(harness.group, view, value)
        votes = frozenset(harness.registry.generate(voter).sign(payload) for voter in voters)
        return PreparedCertificate(group=group or harness.group, view=view, value=value, prepares=votes)

    def test_happy_path_locks_a_quorum_of_signed_prepares(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        harness.run()
        expected = _prepare_payload(harness.group, 0, "value-1")
        for replica in harness.replicas.values():
            certificate = replica.locked
            assert certificate is not None
            assert (certificate.view, certificate.value) == (0, "value-1")
            assert len(certificate.prepares) >= replica._quorum
            assert {signed.message for signed in certificate.prepares} == {expected}
            assert {signed.signer for signed in certificate.prepares} <= harness.group.members
            assert replica._certificate_is_valid(certificate)

    def test_view_change_carries_the_locked_value_into_the_next_view(self):
        # Every view-0 commit is lost, and so is every view-0 prepare sent to
        # process 2: processes 1, 3 and 4 lock "value-1" in view 0, nobody
        # decides, and process 2 holds no lock.  As the view-1 leader it can
        # only learn the locked value from the certificates inside the
        # view-change votes; it must re-propose it, and view 1 must decide.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        deliver = harness.deliver

        def lose_view_zero_traffic(sender, receiver, payload):
            if isinstance(payload, Commit) and payload.view == 0:
                return
            if isinstance(payload, Prepare) and payload.view == 0 and receiver == 2:
                return
            deliver(sender, receiver, payload)

        harness.deliver = lose_view_zero_traffic
        decisions = harness.run()
        assert set(decisions) == {1, 2, 3, 4}
        assert set(decisions.values()) == {"value-1"}
        assert {replica.view for replica in harness.replicas.values()} == {1}

    def test_valid_certificate_accepted(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        assert harness.replicas[1]._certificate_is_valid(self._certificate(harness, 0, "v", [1, 2, 3]))

    def test_tampered_signature_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        certificate = self._certificate(harness, 0, "v", [1, 2, 3])
        victim = min(certificate.prepares, key=lambda signed: signed.signer)
        flipped = "0" if victim.tag[0] != "0" else "1"
        forged = SignedMessage(signer=victim.signer, message=victim.message, tag=flipped + victim.tag[1:])
        tampered = PreparedCertificate(
            group=harness.group,
            view=0,
            value="v",
            prepares=(certificate.prepares - {victim}) | {forged},
        )
        assert not harness.replicas[1]._certificate_is_valid(tampered)

    def test_sub_quorum_certificate_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        replica = harness.replicas[1]
        certificate = self._certificate(harness, 0, "v", [1, 2])
        assert len(certificate.prepares) < replica._quorum
        assert not replica._certificate_is_valid(certificate)

    def test_padded_copy_of_a_vote_does_not_make_a_quorum(self):
        # A second entry under voter 1's name makes the set quorum-sized,
        # though only two members voted.  Signing is deterministic, so the
        # copy must carry a different tag: it fails both the one-vote-per-
        # signer check and signature verification.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        certificate = self._certificate(harness, 0, "v", [1, 2])
        original = min(certificate.prepares, key=lambda signed: signed.signer)
        copy = SignedMessage(signer=original.signer, message=original.message, tag=original.tag + "00")
        padded = PreparedCertificate(
            group=harness.group, view=0, value="v", prepares=certificate.prepares | {copy}
        )
        assert len(padded.prepares) >= harness.replicas[1]._quorum
        assert not harness.replicas[1]._certificate_is_valid(padded)

    def test_signer_outside_the_group_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        assert not harness.replicas[1]._certificate_is_valid(self._certificate(harness, 0, "v", [1, 2, 9]))

    def test_certificate_rebadged_to_another_value_rejected(self):
        # The votes verify against the claimed (view, value) payload: re-badging
        # a certificate for "v" as one for "w", or for view 0 as view 1, fails.
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        replica = harness.replicas[1]
        votes = self._certificate(harness, 0, "v", [1, 2, 3]).prepares
        other_value = PreparedCertificate(group=harness.group, view=0, value="w", prepares=votes)
        other_view = PreparedCertificate(group=harness.group, view=1, value="v", prepares=votes)
        assert not replica._certificate_is_valid(other_value)
        assert not replica._certificate_is_valid(other_view)

    def test_certificate_for_another_group_rejected(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        other_group = GroupKey(members=frozenset({1, 2, 3, 4, 5}))
        certificate = self._certificate(harness, 0, "v", [1, 2, 3], group=other_group)
        assert not harness.replicas[1]._certificate_is_valid(certificate)

    def test_view_change_with_an_invalid_certificate_is_ignored(self):
        harness = Harness(members=[1, 2, 3, 4], fault_threshold=1)
        replica = harness.replicas[1]
        bad = ViewChange(
            group=harness.group, new_view=1, voter=2, prepared=self._certificate(harness, 0, "v", [2, 3])
        )
        good = ViewChange(
            group=harness.group, new_view=1, voter=3, prepared=self._certificate(harness, 0, "v", [1, 2, 3])
        )
        replica.handle_view_change(2, bad)
        assert 1 not in replica._view_changes
        replica.handle_view_change(3, good)
        assert set(replica._view_changes[1]) == {3}
