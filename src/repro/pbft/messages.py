"""Messages of the single-shot PBFT-style inner consensus.

All messages carry the *group key* -- the (frozen) membership of the
sink/core plus the fault-threshold estimate -- so that instances started by
different (possibly Byzantine-confused) processes cannot interfere with each
other.  Pre-prepares and prepares are signed, which lets view-change
messages carry verifiable prepared certificates: a certificate is the set of
signed prepare votes itself, checked vote by vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.signatures import SignedMessage
from repro.graphs.knowledge_graph import ProcessId


@dataclass(frozen=True, slots=True)
class GroupKey:
    """Identity of one inner-consensus instance.

    The instance is identified by its *membership only*: correct processes
    may transiently derive different fault-threshold estimates from their
    views (the estimate is the witness connectivity minus one, which can lag
    behind while participant detectors are still arriving), and keying the
    instance by the membership lets them interoperate regardless.  Each
    replica applies its own estimate to its quorum threshold; see
    :mod:`repro.pbft.quorum` for why any estimate between the true number of
    Byzantine members and ``⌊(|S|-1)/2⌋`` keeps both safety and liveness.
    """

    members: frozenset[ProcessId]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, slots=True)
class PrePrepare:
    """Leader proposal for a view.  ``signed`` covers ``(group, view, value)``."""

    group: GroupKey
    view: int
    value: Any
    signed: SignedMessage


@dataclass(frozen=True, slots=True)
class Prepare:
    """A replica's vote for the leader's proposal in a view."""

    group: GroupKey
    view: int
    value: Any
    voter: ProcessId
    signed: SignedMessage


@dataclass(frozen=True, slots=True)
class Commit:
    """A replica's commit vote after collecting a prepare quorum."""

    group: GroupKey
    view: int
    value: Any
    voter: ProcessId


@dataclass(frozen=True, slots=True)
class PreparedCertificate:
    """Proof that a value gathered a prepare quorum in some view: the quorum's signed prepare votes."""

    group: GroupKey
    view: int
    value: Any
    prepares: frozenset[SignedMessage]


@dataclass(frozen=True, slots=True)
class ViewChange:
    """Vote to move to ``new_view``, carrying the sender's prepared certificate (if any)."""

    group: GroupKey
    new_view: int
    voter: ProcessId
    prepared: PreparedCertificate | None


@dataclass(frozen=True, slots=True)
class NewView:
    """Announcement by the leader of ``view`` that it is taking over.

    Carries the view-change votes that justify the takeover and the value
    the leader will re-propose (the value of the highest prepared
    certificate among the votes, or the leader's own proposal when none).
    """

    group: GroupKey
    view: int
    value: Any
    justification: frozenset[ViewChange]
