"""Aggregate signatures: one tag standing in for a whole quorum.

A prepared certificate normally carries ``2f+1`` signed prepare votes and a
validator re-verifies each one.  Aggregation folds the constituent tags into
a single aggregate tag over the common message, so the certificate ships one
tag plus the signer set, and verification costs one canonical encoding plus
one expected tag per signer — no per-vote ``SignedMessage`` objects at all.

The scheme mirrors the BLS ``aggregate()`` idiom (optional ``blspy``, mock
fallback when the library is absent): when ``blspy`` is importable a ``bls``
scheme aggregates real BLS signatures derived from the constituent tags;
the default ``hmac-fold`` scheme is a pure-Python fold that needs no
dependency and stays *pinned as the default* so trajectories do not depend
on what happens to be installed.  Unforgeability holds in the simulation's
structural sense either way: producing the fold requires every constituent
tag, and each constituent tag requires the signer's secret.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.crypto.signatures import KeyRegistry, SignatureError, SignedMessage
from repro.graphs.knowledge_graph import ProcessId

try:  # pragma: no cover - blspy is optional and absent from the CI image
    from blspy import AugSchemeMPL, G2Element

    HAS_BLS = True
except ImportError:
    HAS_BLS = False


@dataclass(frozen=True, slots=True)
class AggregateTag:
    """One aggregated tag covering a set of signers over a common message."""

    scheme: str
    signers: frozenset[ProcessId]
    tag: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateTag(scheme={self.scheme!r}, signers={len(self.signers)})"


def _fold_hmac(tags: Sequence[str]) -> str:
    """Pure-Python fallback fold: a running SHA-256 over the sorted tags."""
    digest = hashlib.sha256(b"agg-hmac-fold:")
    for tag in tags:
        digest.update(tag.encode())
        digest.update(b";")
    return digest.hexdigest()


_SCHEMES: dict[str, Callable[[Sequence[str]], str]] = {"hmac-fold": _fold_hmac}

#: Pinned default so trajectories never depend on whether blspy is installed.
DEFAULT_SCHEME = "hmac-fold"

if HAS_BLS:  # pragma: no cover - exercised only where blspy is installed

    def _fold_bls(tags: Sequence[str]) -> str:
        """Real BLS aggregation: each 32-byte tag seeds a key whose signature
        over a fixed message joins the aggregate."""
        signatures: list[Any] = []
        for tag in tags:
            secret = AugSchemeMPL.key_gen(bytes.fromhex(tag)[:32])
            signatures.append(AugSchemeMPL.sign(secret, b"repro-aggregate"))
        return bytes(AugSchemeMPL.aggregate(signatures)).hex()

    _SCHEMES["bls"] = _fold_bls
    _ = G2Element  # re-exported shape check; keeps the import honest


def aggregate_signatures(
    signed: Iterable[SignedMessage], *, scheme: str = DEFAULT_SCHEME
) -> AggregateTag:
    """Fold signatures by distinct signers over one common message.

    Raises :class:`SignatureError` when the votes disagree on the message,
    when one signer contributed two different tags, when there is nothing to
    aggregate, or when the scheme is unknown.
    """
    fold = _SCHEMES.get(scheme)
    if fold is None:
        raise SignatureError(f"unknown aggregation scheme {scheme!r}")
    votes = list(signed)
    if not votes:
        raise SignatureError("cannot aggregate zero signatures")
    message = votes[0].message
    tags: dict[ProcessId, str] = {}
    for vote in votes:
        if vote.message != message:
            raise SignatureError("aggregation requires a common message across votes")
        known = tags.get(vote.signer)
        if known is not None and known != vote.tag:
            raise SignatureError(f"conflicting tags from signer {vote.signer!r}")
        tags[vote.signer] = vote.tag
    return AggregateTag(scheme=scheme, signers=frozenset(tags), tag=fold(sorted(tags.values())))


def verify_aggregate(registry: KeyRegistry, message: Any, aggregate: AggregateTag) -> bool:
    """Check that every claimed signer signed ``message`` under ``aggregate``.

    Recomputes each signer's expected tag over one shared canonical encoding
    and refolds; a bit-flipped aggregate tag, an unknown signer, or a tag
    set over a different message all fail.  Verified aggregates ride the
    registry's verified-signature LRU (keyed by the scheme + signer set)
    exactly like per-signature checks, so re-validating the same
    certificate is a dict probe.
    """
    fold = _SCHEMES.get(aggregate.scheme)
    if fold is None or not aggregate.signers:
        return False
    registry.verify_calls += 1
    encoded = registry.encode(message)
    # Shares the registry's private verified-tag LRU; the composite key
    # cannot collide with per-signature ``(signer, tag)`` keys.
    cache_key = (("aggregate", aggregate.scheme, aggregate.signers), aggregate.tag)
    cached = registry._verified.get(cache_key)
    if cached is not None and cached == encoded:
        del registry._verified[cache_key]
        registry._verified[cache_key] = cached
        registry.verify_cache_hits += 1
        return True
    expected_tags: list[str] = []
    for signer in sorted(aggregate.signers, key=repr):
        expected = registry.expected_tag(signer, encoded)
        if expected is None:
            return False
        expected_tags.append(expected)
    if hmac.compare_digest(fold(sorted(expected_tags)), aggregate.tag):
        registry._cache_verified(cache_key, encoded)
        return True
    return False


__all__ = [
    "AggregateTag",
    "DEFAULT_SCHEME",
    "HAS_BLS",
    "aggregate_signatures",
    "verify_aggregate",
]
