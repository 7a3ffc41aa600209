"""Equivalence and soundness tests for the crypto fast path.

The fast path (canonical memo, verified-signature LRU, batched and
aggregated verification) must accept *exactly* the set of signatures that
plain per-signature verification on a cache-less registry accepts — over a
population that includes bit-flipped tags, unknown signers, wrong claimed
signers and tags replayed under a different message.
"""

import random

import pytest

from repro.core.messages import PdRecord
from repro.crypto.aggregate import (
    AggregateTag,
    aggregate_signatures,
    verify_aggregate,
)
from repro.crypto.signatures import (
    CANONICAL_MEMO_ENTRIES,
    VERIFIED_CACHE_ENTRIES,
    CanonicalMemo,
    KeyRegistry,
    SignatureError,
    SignedMessage,
)

SIGNERS = ["alice", "bob", "carol", "dave", "erin"]


def _flip_hex_digit(tag: str, position: int) -> str:
    """Deterministically replace one hex digit of ``tag`` with a different one."""
    old = tag[position]
    new = "0" if old != "0" else "1"
    return tag[:position] + new + tag[position + 1 :]


def adversarial_population(seed: int) -> list[SignedMessage]:
    """A deterministic mix of valid and invalid signed messages.

    Four corruption modes ride along with the valid signatures: bit-flipped
    tags, unknown signers, a valid tag claimed by the wrong signer, and a
    valid tag replayed under a different message.
    """
    rng = random.Random(seed)
    registry = KeyRegistry(seed=seed)
    keys = {name: registry.generate(name) for name in SIGNERS}
    messages = [
        PdRecord(owner=name, pd=frozenset(rng.sample(SIGNERS, k=3))) for name in SIGNERS
    ] + [("query", index, frozenset(SIGNERS[:2])) for index in range(4)]

    population: list[SignedMessage] = []
    for _ in range(120):
        signer = rng.choice(SIGNERS)
        message = rng.choice(messages)
        signed = keys[signer].sign(message)
        mode = rng.randrange(6)
        if mode == 0:
            signed = SignedMessage(
                signer=signer, message=message, tag=_flip_hex_digit(signed.tag, rng.randrange(64))
            )
        elif mode == 1:
            signed = SignedMessage(signer="mallory", message=message, tag=signed.tag)
        elif mode == 2:
            other = rng.choice([name for name in SIGNERS if name != signer])
            signed = SignedMessage(signer=other, message=message, tag=signed.tag)
        elif mode == 3:
            other_message = rng.choice([m for m in messages if m != message])
            signed = SignedMessage(signer=signer, message=other_message, tag=signed.tag)
        population.append(signed)
    return population


def reference_verdicts(seed: int, population: list[SignedMessage]) -> list[bool]:
    """Ground truth: per-signature verification on a cache-less registry."""
    registry = KeyRegistry(seed=seed, cached=False)
    for name in SIGNERS:
        registry.generate(name)
    return [registry.verify(entry) for entry in population]


class TestFastPathEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_cached_verification_matches_cache_less(self, seed):
        population = adversarial_population(seed)
        expected = reference_verdicts(seed, population)
        registry = KeyRegistry(seed=seed)
        for name in SIGNERS:
            registry.generate(name)
        # Verify the population twice: the second pass rides the caches and
        # must not change a single verdict.
        first = [registry.verify(entry) for entry in population]
        second = [registry.verify(entry) for entry in population]
        assert first == expected
        assert second == expected
        assert registry.verify_cache_hits > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_verification_matches_cache_less(self, seed):
        population = adversarial_population(seed)
        expected = reference_verdicts(seed, population)
        registry = KeyRegistry(seed=seed)
        for name in SIGNERS:
            registry.generate(name)
        assert registry.verify_batch(population) == expected
        # Counters advance exactly as len(population) per-signature calls.
        assert registry.verify_calls == len(population)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_and_per_signature_interleave_consistently(self, seed):
        population = adversarial_population(seed)
        expected = reference_verdicts(seed, population)
        registry = KeyRegistry(seed=seed)
        for name in SIGNERS:
            registry.generate(name)
        half = len(population) // 2
        verdicts = registry.verify_batch(population[:half])
        verdicts += [registry.verify(entry) for entry in population[half:]]
        assert verdicts == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_aggregated_verification_matches_per_signature_conjunction(self, seed):
        # For every message in a deterministic pool, aggregate one vote per
        # signer subset and compare against "all constituent votes verify".
        rng = random.Random(seed)
        registry = KeyRegistry(seed=seed)
        keys = {name: registry.generate(name) for name in SIGNERS}
        reference = KeyRegistry(seed=seed, cached=False)
        for name in SIGNERS:
            reference.generate(name)
        for trial in range(30):
            message = ("prepared", trial, frozenset(rng.sample(SIGNERS, k=2)))
            subset = rng.sample(SIGNERS, k=rng.randrange(1, len(SIGNERS) + 1))
            votes = [keys[name].sign(message) for name in subset]
            if rng.randrange(3) == 0:  # corrupt one vote's tag
                index = rng.randrange(len(votes))
                votes[index] = SignedMessage(
                    signer=votes[index].signer,
                    message=message,
                    tag=_flip_hex_digit(votes[index].tag, rng.randrange(64)),
                )
            expected = all(reference.verify(vote) for vote in votes)
            aggregate = aggregate_signatures(votes)
            assert verify_aggregate(registry, message, aggregate) is expected


class TestVerifiedCacheSoundness:
    def test_replayed_tag_under_a_different_message_misses_the_cache(self):
        registry = KeyRegistry(seed=1)
        key = registry.generate("alice")
        record = PdRecord(owner="alice", pd=frozenset({"bob"}))
        signed = key.sign(record)
        assert registry.verify(signed)  # caches (alice, tag) -> encoding
        replayed = SignedMessage(
            signer="alice",
            message=PdRecord(owner="alice", pd=frozenset({"carol"})),
            tag=signed.tag,
        )
        assert not registry.verify(replayed)
        assert registry.verify_cache_hits == 0

    def test_cache_hits_are_counted_and_bounded(self):
        registry = KeyRegistry(seed=1)
        key = registry.generate("alice")
        signatures = [key.sign(("msg", index)) for index in range(VERIFIED_CACHE_ENTRIES + 4)]
        for signed in signatures:
            assert registry.verify(signed)
        assert len(registry._verified) == VERIFIED_CACHE_ENTRIES  # FIFO-bounded
        # The four oldest entries were evicted: verifying them again pays the HMAC.
        before = registry.verify_cache_hits
        for signed in signatures[:4]:
            assert registry.verify(signed)
        assert registry.verify_cache_hits == before
        # The four most recent entries are still cached hits.
        for signed in signatures[-4:]:
            assert registry.verify(signed)
        assert registry.verify_cache_hits == before + 4

    def test_uncached_registry_has_neither_cache(self):
        registry = KeyRegistry(seed=1, cached=False)
        key = registry.generate("alice")
        record = PdRecord(owner="alice", pd=frozenset({"bob"}))
        signed = key.sign(record)
        assert registry.verify(signed) and registry.verify(signed)
        assert registry.memo is None and registry._verified == {}
        assert registry.counters() == {
            "verify_calls": 2,
            "verify_cache_hits": 0,
            "canonical_cache_hits": 0,
        }

    def test_counters_snapshot(self):
        registry = KeyRegistry(seed=1)
        key = registry.generate("alice")
        signed = key.sign("m")
        registry.verify(signed)
        registry.verify(signed)
        counters = registry.counters()
        assert counters["verify_calls"] == 2
        assert counters["verify_cache_hits"] == 1


class TestCanonicalMemo:
    def test_identity_hit_and_strong_reference(self):
        memo = CanonicalMemo()
        record = PdRecord(owner=1, pd=frozenset({2, 3}))
        first = memo.encode(record)
        second = memo.encode(record)
        assert first == second
        assert memo.hits == 1 and memo.misses == 1
        # Equal-but-distinct objects do not hit (identity keying)...
        clone = PdRecord(owner=1, pd=frozenset({2, 3}))
        assert memo.encode(clone) == first
        assert memo.misses == 2

    def test_eviction_is_bounded(self):
        memo = CanonicalMemo()
        records = [PdRecord(owner=i, pd=frozenset()) for i in range(CANONICAL_MEMO_ENTRIES + 3)]
        for record in records:
            memo.encode(record)
        assert len(memo) == CANONICAL_MEMO_ENTRIES
        assert memo.evictions == 3
        # FIFO: the oldest record was evicted, the newest still hits.
        memo.encode(records[-1])
        assert memo.hits == 1
        memo.encode(records[0])
        assert memo.hits == 1

    def test_scalars_are_not_memoised(self):
        memo = CanonicalMemo()
        memo.encode("plain string")
        memo.encode(42)
        assert len(memo) == 0 and memo.misses == 0

    def test_uncached_registry_encodes_without_a_memo(self):
        cached, uncached = KeyRegistry(seed=1), KeyRegistry(seed=1, cached=False)
        record = PdRecord(owner=1, pd=frozenset({2}))
        assert uncached.encode(record) == uncached.encode(record) == cached.encode(record)
        assert uncached.canonical_cache_hits == 0
        # Both registries sign with the same tags.
        assert uncached.generate(1).sign(record) == cached.generate(1).sign(record)

    def test_clear_and_stats(self):
        memo = CanonicalMemo()
        memo.encode((1, 2, 3))
        stats = memo.stats()
        assert stats["entries"] == 1 and stats["misses"] == 1
        memo.clear()
        assert len(memo) == 0


class TestAggregateScheme:
    def _signed_votes(self, message, signers=SIGNERS[:3], seed=1):
        registry = KeyRegistry(seed=seed)
        keys = {name: registry.generate(name) for name in SIGNERS}
        return registry, [keys[name].sign(message) for name in signers]

    def test_round_trip(self):
        message = ("prepared", 7)
        registry, votes = self._signed_votes(message)
        aggregate = aggregate_signatures(votes)
        assert aggregate.signers == frozenset(SIGNERS[:3])
        assert verify_aggregate(registry, message, aggregate)

    def test_vote_order_does_not_matter(self):
        message = ("prepared", 7)
        _registry, votes = self._signed_votes(message)
        assert aggregate_signatures(votes) == aggregate_signatures(list(reversed(votes)))

    def test_bit_flipped_aggregate_tag_rejected(self):
        message = ("prepared", 7)
        registry, votes = self._signed_votes(message)
        aggregate = aggregate_signatures(votes)
        tampered = AggregateTag(
            scheme=aggregate.scheme,
            signers=aggregate.signers,
            tag=_flip_hex_digit(aggregate.tag, 0),
        )
        assert not verify_aggregate(registry, message, tampered)

    def test_wrong_message_rejected(self):
        registry, votes = self._signed_votes(("prepared", 7))
        aggregate = aggregate_signatures(votes)
        assert not verify_aggregate(registry, ("prepared", 8), aggregate)

    def test_unknown_signer_in_claimed_set_rejected(self):
        message = ("prepared", 7)
        registry, votes = self._signed_votes(message)
        aggregate = aggregate_signatures(votes)
        widened = AggregateTag(
            scheme=aggregate.scheme,
            signers=aggregate.signers | {"ghost"},
            tag=aggregate.tag,
        )
        assert not verify_aggregate(registry, message, widened)

    def test_shrunken_signer_set_rejected(self):
        # Claiming fewer signers than contributed must fail: the fold covers
        # every constituent tag.
        message = ("prepared", 7)
        registry, votes = self._signed_votes(message)
        aggregate = aggregate_signatures(votes)
        shrunk = AggregateTag(
            scheme=aggregate.scheme,
            signers=frozenset(list(aggregate.signers)[:-1]),
            tag=aggregate.tag,
        )
        assert not verify_aggregate(registry, message, shrunk)

    def test_empty_and_unknown_scheme_raise(self):
        with pytest.raises(SignatureError, match="zero"):
            aggregate_signatures([])
        registry, votes = self._signed_votes(("m",))
        with pytest.raises(SignatureError, match="unknown"):
            aggregate_signatures(votes, scheme="sphincs")

    def test_mixed_messages_raise(self):
        registry = KeyRegistry(seed=1)
        alice = registry.generate("alice")
        bob = registry.generate("bob")
        with pytest.raises(SignatureError, match="common message"):
            aggregate_signatures([alice.sign("x"), bob.sign("y")])

    def test_conflicting_tags_from_one_signer_raise(self):
        registry = KeyRegistry(seed=1)
        alice = registry.generate("alice")
        good = alice.sign("x")
        forged = SignedMessage(signer="alice", message="x", tag=_flip_hex_digit(good.tag, 3))
        with pytest.raises(SignatureError, match="conflicting"):
            aggregate_signatures([good, forged])

    def test_duplicate_identical_votes_are_deduplicated(self):
        registry = KeyRegistry(seed=1)
        alice = registry.generate("alice")
        vote = alice.sign("x")
        aggregate = aggregate_signatures([vote, vote])
        assert aggregate.signers == frozenset({"alice"})
        assert verify_aggregate(registry, "x", aggregate)

    def test_reverification_rides_the_cache(self):
        message = ("prepared", 7)
        registry, votes = self._signed_votes(message)
        aggregate = aggregate_signatures(votes)
        assert verify_aggregate(registry, message, aggregate)
        before = registry.verify_cache_hits
        assert verify_aggregate(registry, message, aggregate)
        assert registry.verify_cache_hits == before + 1

    def test_default_scheme_is_pinned_regardless_of_blspy(self):
        from repro.crypto.aggregate import DEFAULT_SCHEME

        registry, votes = self._signed_votes(("m",))
        assert DEFAULT_SCHEME == "hmac-fold"
        assert aggregate_signatures(votes).scheme == "hmac-fold"
