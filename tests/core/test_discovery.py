"""Tests for the Discovery algorithm state machine (Algorithm 1)."""

import pytest

from repro.core.discovery import DiscoveryState
from repro.core.messages import PdRecord
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.graphs.figures import figure_1b


def make_state(process_id, graph, registry, advertised=None):
    return DiscoveryState(
        process_id=process_id,
        participant_detector=graph.participant_detector(process_id),
        key=registry.generate(process_id),
        registry=registry,
        advertised_pd=advertised,
    )


@pytest.fixture
def registry():
    return KeyRegistry(seed=3)


@pytest.fixture
def graph():
    return figure_1b().graph


class TestInitialState:
    def test_initial_sets_follow_algorithm_1(self, graph, registry):
        state = make_state(1, graph, registry)
        assert state.known == {1, 2, 3, 4}
        assert state.received == {1}
        assert set(state.records) == {1}
        assert state.view().pds[1] == {2, 3, 4}

    def test_own_record_is_signed_correctly(self, graph, registry):
        state = make_state(1, graph, registry)
        record = state.records[1]
        assert registry.verify(record)
        assert record.message == PdRecord(owner=1, pd=frozenset({2, 3, 4}))

    def test_byzantine_advertised_pd(self, graph, registry):
        state = make_state(4, graph, registry, advertised=frozenset({1, 2, 3}))
        assert state.records[4].message.pd == {1, 2, 3}
        # The real PD is still tracked separately.
        assert state.participant_detector == graph.participant_detector(4)


class TestAbsorb:
    def test_absorbing_valid_records_grows_the_view(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        state_3 = make_state(3, graph, registry)
        changed = state_1.absorb(state_3.snapshot())
        assert changed
        assert 3 in state_1.received
        assert state_1.view().pds[3] == graph.participant_detector(3)

    def test_absorb_is_idempotent(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        state_3 = make_state(3, graph, registry)
        state_1.absorb(state_3.snapshot())
        assert not state_1.absorb(state_3.snapshot())

    def test_new_processes_become_known(self, graph, registry):
        state_7 = make_state(7, graph, registry)
        state_5 = make_state(5, graph, registry)
        state_7.absorb(state_5.snapshot())
        # 5's PD = {1, 2}: process 7 learns about 1 and 2.
        assert {1, 2} <= state_7.known

    def test_forged_record_is_rejected(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        mallory_key = registry.generate(4)
        forged = mallory_key.sign(PdRecord(owner=2, pd=frozenset({4})))
        assert not state_1.absorb(frozenset({forged}))
        assert 2 not in state_1.received
        assert state_1.rejected_records == 1

    def test_record_with_wrong_signer_rejected(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        key_2 = registry.generate(2)
        valid_but_mislabelled = SignedMessage(
            signer=4, message=PdRecord(owner=4, pd=frozenset({1})), tag=key_2.sign("x").tag
        )
        assert not state_1.absorb(frozenset({valid_but_mislabelled}))
        assert state_1.rejected_records == 1

    def test_non_record_payload_rejected(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        key_2 = registry.generate(2)
        assert not state_1.absorb(frozenset({key_2.sign("not a record")}))
        assert state_1.rejected_records == 1

    def test_byzantine_cannot_alter_correct_pd(self, graph, registry):
        """The central property of the authenticated model (Section III)."""
        state_1 = make_state(1, graph, registry)
        byzantine_key = registry.generate(4)
        fake = byzantine_key.sign(PdRecord(owner=3, pd=frozenset({4})))
        state_1.absorb(frozenset({fake}))
        assert 3 not in state_1.view().pds  # the fake record was not accepted

    def test_view_reflects_received_pds(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        for other in (2, 3):
            state_1.absorb(make_state(other, graph, registry).snapshot())
        view = state_1.view()
        assert view.received == {1, 2, 3}
        assert view.known >= {1, 2, 3, 4}
        assert view.pds[2] == graph.participant_detector(2)


class TestRedundantPayloads:
    """Most ``SETPDS`` payloads bring nothing new; ``absorb`` must not work for them."""

    def test_all_stored_payload_changes_and_verifies_nothing(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        state_3 = make_state(3, graph, registry)
        state_1.absorb(state_3.snapshot())
        before = registry.verify_calls
        assert state_1.absorb(state_3.snapshot()) is False
        assert not state_1.absorb(frozenset())
        # An equal copy (what the live runtime's codec delivers) is as redundant.
        original = state_3.records[3]
        copy = SignedMessage(signer=original.signer, message=original.message, tag=original.tag)
        assert copy is not original
        assert not state_1.absorb(frozenset({copy}))
        assert registry.verify_calls == before
        assert state_1.rejected_records == 0

    @pytest.mark.parametrize("bad", ["not-a-record", "wrong-signer", "forged"])
    def test_a_bad_entry_beside_a_stored_one_is_still_rejected(self, graph, registry, bad):
        state_1 = make_state(1, graph, registry)
        state_3 = make_state(3, graph, registry)
        state_1.absorb(state_3.snapshot())
        key_2, key_4 = registry.generate(2), registry.generate(4)
        entry = {
            "not-a-record": key_2.sign("not a record"),
            "wrong-signer": SignedMessage(
                signer=4, message=PdRecord(owner=2, pd=frozenset({1})), tag=key_4.sign("x").tag
            ),
            "forged": SignedMessage(
                signer=2, message=PdRecord(owner=2, pd=frozenset({1})), tag=key_4.sign("x").tag
            ),
        }[bad]
        for expected in (1, 2):  # rejected again on every delivery, as before
            assert not state_1.absorb(frozenset({state_3.records[3], entry}))
            assert state_1.rejected_records == expected
        assert 2 not in state_1.received


class TestSnapshotCache:
    def test_same_object_until_a_record_is_stored(self, graph, registry):
        state_1 = make_state(1, graph, registry)
        state_3 = make_state(3, graph, registry)
        first = state_1.snapshot()
        assert first == frozenset(state_1.records.values())
        assert state_1.snapshot() is first
        assert not state_1.absorb(frozenset(first))  # nothing new: cache survives
        assert state_1.snapshot() is first
        assert state_1.absorb(state_3.snapshot())
        second = state_1.snapshot()
        assert second is not first
        assert second == frozenset(state_1.records.values())
        assert len(second) == 2
        assert state_1.snapshot() is second

    def test_known_only_growth_keeps_the_snapshot(self, graph, registry):
        """An equivocating duplicate grows ``known`` but stores nothing."""
        state_1 = make_state(1, graph, registry)
        key_4 = registry.generate(4)
        state_1.absorb(frozenset({key_4.sign(PdRecord(owner=4, pd=frozenset({1})))}))
        snapshot = state_1.snapshot()
        assert state_1.absorb(frozenset({key_4.sign(PdRecord(owner=4, pd=frozenset({99})))}))
        assert 99 in state_1.known
        assert state_1.snapshot() is snapshot

    def test_fresh_after_a_smaller_tag_replaces_the_stored_record(self, graph, registry):
        """Two conflicting records of one owner in one payload: the smaller tag wins.

        ``absorb`` only iterates its argument, so a list fixes the order to
        "larger tag first" and forces the replacement branch.
        """
        state_1 = make_state(1, graph, registry)
        key_4 = registry.generate(4)
        records = [
            key_4.sign(PdRecord(owner=4, pd=frozenset({1}))),
            key_4.sign(PdRecord(owner=4, pd=frozenset({2}))),
        ]
        loser, winner = sorted(records, key=lambda entry: entry.tag, reverse=True)
        before = state_1.snapshot()
        assert state_1.absorb([loser, winner])
        after = state_1.snapshot()
        assert after is not before
        assert winner in after and loser not in after
        assert after == frozenset(state_1.records.values())


class TestTransitiveDiscovery:
    def test_gossip_reaches_distance_two(self, graph, registry):
        # 7 knows 5, 5 knows 1 and 2: after absorbing 5's snapshot (which
        # only contains 5's record), 7 knows 1 and 2 exist; once 5 has
        # absorbed 1's record and re-shares, 7 receives 1's PD as well.
        state_7 = make_state(7, graph, registry)
        state_5 = make_state(5, graph, registry)
        state_1 = make_state(1, graph, registry)
        state_5.absorb(state_1.snapshot())
        state_7.absorb(state_5.snapshot())
        assert state_7.view().pds[1] == graph.participant_detector(1)
        assert {1, 2, 3, 4} <= state_7.known
