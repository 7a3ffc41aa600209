"""Simulated unforgeable signatures.

Real deployments would use an asymmetric signature scheme; for the
simulation we only need the *abstraction*: ``sign`` can only be performed
by the key owner and ``verify`` rejects anything not produced by that owner.
Tags are deterministic HMAC-like digests over a canonical encoding of the
message, keyed by a per-process secret, so signed objects are hashable,
comparable and reproducible across runs.

Fast path
---------

Verification is deterministic (same registry, same message, same tag →
same answer), which makes two caches trajectory-neutral:

* a :class:`CanonicalMemo` keyed by *object identity* skips the recursive
  canonical re-encoding of hot payloads (the same ``PdRecord`` or prepare
  tuple is verified by every receiver in a run, and in the simulation the
  receivers share the sender's object);
* a tag-keyed verified-signature LRU in :class:`KeyRegistry` skips the
  HMAC for ``(signer, tag)`` pairs that already verified — but only after
  re-checking that the canonical encoding matches the one that verified,
  so a replayed tag under a *different* message still falls through to the
  (failing) full check.

Both caches are bounded by module constants (:data:`CANONICAL_MEMO_ENTRIES`,
:data:`VERIFIED_CACHE_ENTRIES`) and count their hits
(:attr:`KeyRegistry.verify_calls`, :attr:`KeyRegistry.verify_cache_hits`,
:attr:`KeyRegistry.canonical_cache_hits`) so harnesses can surface how much
work the fast path removed.  ``KeyRegistry(cached=False)`` has neither cache:
it is the reference registry the fast path is measured and tested against.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.graphs.knowledge_graph import ProcessId

#: Capacity of a registry's canonical-encoding memo (FIFO eviction).
CANONICAL_MEMO_ENTRIES = 16384
#: Capacity of a registry's verified-signature LRU.
VERIFIED_CACHE_ENTRIES = 8192


class SignatureError(Exception):
    """Raised on invalid signing or verification attempts."""


def _canonical(message: Any) -> bytes:
    """Deterministically encode a message for signing.

    Supports the payload shapes used by the protocols: scalars, strings,
    tuples/lists, frozensets/sets (sorted by repr) and dataclass-like
    objects exposing ``__dict__``.
    """
    if isinstance(message, bytes):
        return b"b:" + message
    if isinstance(message, str):
        return b"s:" + message.encode()
    if isinstance(message, bool):
        return b"B:" + str(message).encode()
    if isinstance(message, (int, float)):
        return b"n:" + repr(message).encode()
    if message is None:
        return b"none"
    if isinstance(message, (frozenset, set)):
        parts = sorted(_canonical(item) for item in message)
        return b"{" + b",".join(parts) + b"}"
    if isinstance(message, (tuple, list)):
        return b"[" + b",".join(_canonical(item) for item in message) + b"]"
    if isinstance(message, dict):
        parts = sorted(_canonical(key) + b"=" + _canonical(value) for key, value in message.items())
        return b"d{" + b",".join(parts) + b"}"
    if hasattr(message, "__dataclass_fields__"):
        parts = [
            name.encode() + b"=" + _canonical(getattr(message, name))
            for name in sorted(message.__dataclass_fields__)
        ]
        return b"dc:" + type(message).__name__.encode() + b"(" + b",".join(parts) + b")"
    return b"r:" + repr(message).encode()


class CanonicalMemo:
    """Object-identity memo for :func:`_canonical` over hot payloads.

    Entries are keyed by ``id(message)`` and hold a strong reference to the
    message, so a memoised object cannot be collected (and its id reused by
    a different object) while its entry lives.  Only container payloads —
    dataclass instances and tuples, the shapes the protocols sign — are
    memoised; scalars encode faster than a dict probe.

    The memo is owned by one :class:`KeyRegistry` (one per run), so hit
    counts are per-run deterministic and never contaminated by residue from
    earlier runs in the same worker process.  Eviction is FIFO and bounded.
    """

    __slots__ = ("hits", "misses", "evictions", "_entries")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict[int, tuple[Any, bytes]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def encode(self, message: Any) -> bytes:
        """Encode ``message``, memoised by identity for container payloads."""
        if not (isinstance(message, tuple) or hasattr(message, "__dataclass_fields__")):
            return _canonical(message)
        key = id(message)
        hit = self._entries.get(key)
        if hit is not None and hit[0] is message:
            self.hits += 1
            return hit[1]
        self.misses += 1
        encoded = _canonical(message)
        while len(self._entries) >= CANONICAL_MEMO_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = (message, encoded)
        return encoded

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True, slots=True)
class SignedMessage:
    """A message together with the identity of its signer and the tag."""

    signer: ProcessId
    message: Any
    tag: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignedMessage(signer={self.signer!r}, message={self.message!r})"


class SigningKey:
    """The private signing capability of a single process.

    Only the process that owns the key can produce signatures under its
    identity; the key object is created by the :class:`KeyRegistry` and
    handed to the owning process at setup time.
    """

    __slots__ = ("owner", "_secret", "_encode")

    def __init__(self, owner: ProcessId, secret: bytes, encode: Callable[[Any], bytes]) -> None:
        self.owner = owner
        self._secret = secret
        self._encode = encode

    def sign(self, message: Any) -> SignedMessage:
        """Sign ``message`` under the owner's identity."""
        encoded = self._encode(message)
        tag = hmac.new(self._secret, encoded, hashlib.sha256).hexdigest()
        return SignedMessage(signer=self.owner, message=message, tag=tag)


class KeyRegistry:
    """Key generation and signature verification for a set of processes.

    One registry is created per run and shared by all nodes, so its
    verified-signature LRU deduplicates the ``n``-receivers-verify-one-tag
    pattern across the whole run: the first receiver pays the HMAC, the
    rest pay a dict probe plus a (memoised) canonical comparison.
    ``cached=False`` builds the reference registry without either cache:
    every encode recurses and every verification pays the HMAC.
    """

    def __init__(self, seed: int = 0, *, cached: bool = True) -> None:
        self._seed = seed
        self._secrets: dict[ProcessId, bytes] = {}
        self.memo: CanonicalMemo | None = CanonicalMemo() if cached else None
        #: The canonical encoder every sign and verify goes through.
        self.encode = _canonical if self.memo is None else self.memo.encode
        #: ``(signer, tag) → canonical encoding that verified`` (empty when
        #: not cached).  A hit must re-check the encoding, so replaying a
        #: valid tag under a different message cannot ride the cache.
        self._verified: dict[tuple[ProcessId, str], bytes] = {}
        self.verify_calls = 0
        self.verify_cache_hits = 0

    @property
    def canonical_cache_hits(self) -> int:
        """Hits of the registry's canonical-encoding memo (sign + verify)."""
        return 0 if self.memo is None else self.memo.hits

    def generate(self, owner: ProcessId) -> SigningKey:
        """Create (or return) the signing key of ``owner``."""
        if owner not in self._secrets:
            material = f"{self._seed}:{owner!r}".encode()
            self._secrets[owner] = hashlib.sha256(material).digest()
        return SigningKey(owner, self._secrets[owner], self.encode)

    def knows(self, owner: ProcessId) -> bool:
        """Whether a key has been generated for ``owner``."""
        return owner in self._secrets

    def expected_tag(self, signer: ProcessId, encoded: bytes) -> str | None:
        """The tag ``signer`` would produce over ``encoded``, if its key is known."""
        secret = self._secrets.get(signer)
        if secret is None:
            return None
        return hmac.new(secret, encoded, hashlib.sha256).hexdigest()

    def _cache_verified(self, key: tuple[ProcessId, str], encoded: bytes) -> None:
        if self.memo is None:
            return  # the reference registry caches nothing
        while len(self._verified) >= VERIFIED_CACHE_ENTRIES:
            self._verified.pop(next(iter(self._verified)))
        self._verified[key] = encoded

    def _verify_encoded(self, signed: SignedMessage, encoded: bytes) -> bool:
        """Core check over an already-encoded message (counts one call)."""
        self.verify_calls += 1
        secret = self._secrets.get(signed.signer)
        if secret is None:
            return False
        key = (signed.signer, signed.tag)
        cached = self._verified.get(key)
        if cached is not None and cached == encoded:
            # LRU touch: move the entry to the most-recent end.
            del self._verified[key]
            self._verified[key] = cached
            self.verify_cache_hits += 1
            return True
        expected = hmac.new(secret, encoded, hashlib.sha256).hexdigest()
        if hmac.compare_digest(expected, signed.tag):
            self._cache_verified(key, encoded)
            return True
        return False

    def verify(self, signed: SignedMessage) -> bool:
        """Return ``True`` when ``signed`` was produced by its claimed signer."""
        return self._verify_encoded(signed, self.encode(signed.message))

    def verify_batch(self, entries: Iterable[SignedMessage]) -> list[bool]:
        """Verify many signatures at once; returns per-entry validity in order.

        Entries are grouped by signer and each distinct message object is
        encoded once (the identity memo extends "once" across batches and
        across the per-signature path).  Within a signer's group, entries
        carrying the same encoding share one HMAC computation, so a quorum
        certificate whose votes all cover the same payload costs one
        encoding plus one HMAC per distinct voter.  Counters advance exactly
        as ``len(entries)`` per-signature calls would.
        """
        entries = list(entries)
        results = [False] * len(entries)
        by_signer: dict[ProcessId, list[int]] = {}
        for index, entry in enumerate(entries):
            by_signer.setdefault(entry.signer, []).append(index)
        for signer, indices in by_signer.items():  # insertion order: deterministic for a given input order
            secret = self._secrets.get(signer)
            computed: dict[bytes, str] = {}
            for index in indices:
                entry = entries[index]
                self.verify_calls += 1
                if secret is None:
                    continue
                encoded = self.encode(entry.message)
                key = (signer, entry.tag)
                cached = self._verified.get(key)
                if cached is not None and cached == encoded:
                    del self._verified[key]
                    self._verified[key] = cached
                    self.verify_cache_hits += 1
                    results[index] = True
                    continue
                expected = computed.get(encoded)
                if expected is None:
                    expected = hmac.new(secret, encoded, hashlib.sha256).hexdigest()
                    computed[encoded] = expected
                if hmac.compare_digest(expected, entry.tag):
                    self._cache_verified(key, encoded)
                    results[index] = True
        return results

    def require_valid(self, signed: SignedMessage) -> None:
        """Raise :class:`SignatureError` when the signature does not verify."""
        if not self.verify(signed):
            raise SignatureError(f"invalid signature claimed by {signed.signer!r}")

    def counters(self) -> dict[str, int]:
        """Snapshot of the fast-path counters (surfaced by the harnesses)."""
        return {
            "verify_calls": self.verify_calls,
            "verify_cache_hits": self.verify_cache_hits,
            "canonical_cache_hits": self.canonical_cache_hits,
        }


__all__ = [
    "CANONICAL_MEMO_ENTRIES",
    "VERIFIED_CACHE_ENTRIES",
    "CanonicalMemo",
    "KeyRegistry",
    "SignatureError",
    "SignedMessage",
    "SigningKey",
]
