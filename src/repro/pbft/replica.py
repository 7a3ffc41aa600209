"""A single-shot, signed, PBFT-style consensus replica.

The replica agrees on exactly one value among a fixed group of members (the
sink or core identified by the outer protocol).  The protocol is the usual
three-phase commit with leader rotation:

1. The leader of the current view sends a signed ``PrePrepare`` with its
   proposal.
2. Replicas that accept it broadcast a signed ``Prepare``.
3. After a quorum of matching prepares, replicas broadcast ``Commit`` and
   lock on the value; after a quorum of matching commits they decide.
4. If a view stalls (Byzantine or slow leader), replicas broadcast
   ``ViewChange`` carrying their highest prepared certificate; the next
   leader collects a quorum of view changes, picks the value of the highest
   certificate (or its own proposal when none) and re-proposes it in a
   ``NewView``.

Safety relies on the quorum intersection property (any two quorums share a
correct replica) plus the lock rule: a replica that has seen a prepare
quorum for a value only ever prepares that value again, unless shown a
``NewView`` justified by a quorum of view changes whose certificates carry a
higher view.  Proposal values must be hashable.

The quorum rule is the one choice a run makes (``"paper"`` or ``"classic"``,
see :mod:`repro.pbft.quorum`); the view timing is fixed below.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.signatures import KeyRegistry, SignedMessage, SigningKey
from repro.graphs.knowledge_graph import ProcessId
from repro.pbft.messages import (
    Commit,
    GroupKey,
    NewView,
    PrePrepare,
    Prepare,
    PreparedCertificate,
    ViewChange,
)
from repro.pbft.quorum import classic_quorum, paper_quorum

SendFn = Callable[[ProcessId, Any], None]
#: Schedules a one-shot callback and returns a cancellable handle (anything
#: with a ``cancel()`` method, e.g. a runtime timer), so the replica cancels
#: its outstanding view timers the moment it decides instead of letting them
#: fire as no-op events until the horizon.
ScheduleFn = Callable[[float, Callable[[], None]], Any]
DecideFn = Callable[[Any], None]


#: Timeout of view 0; view ``v`` waits ``VIEW_TIMEOUT * VIEW_TIMEOUT_GROWTH ** v``.
VIEW_TIMEOUT = 20.0
VIEW_TIMEOUT_GROWTH = 1.5
#: A replica stops starting view changes at this view.
MAX_VIEWS = 64

#: Quorum size per rule name, as a function of (group size, fault threshold).
_QUORUM_RULES: dict[str, Callable[[int, int], int]] = {
    "paper": paper_quorum,
    "classic": classic_quorum,
}


def _prepare_payload(group: GroupKey, view: int, value: Any) -> tuple:
    """Canonical signed content of a prepare vote."""
    return ("prepare", tuple(sorted(group.members, key=repr)), view, value)


def preprepare_payload(group: GroupKey, view: int, value: Any) -> tuple:
    """Canonical signed content of a leader proposal."""
    return ("pre-prepare", tuple(sorted(group.members, key=repr)), view, value)


@dataclass(slots=True)
class SingleShotPbft:
    """One consensus instance run by one (correct) member of the group."""

    process_id: ProcessId
    group: GroupKey
    #: This replica's estimate of the number of Byzantine group members
    #: (the known ``f`` in BFT-CUP mode, ``f_Gdi`` of the witness in
    #: BFT-CUPFT mode).  Used for the quorum threshold and the view-change
    #: join rule; other replicas may hold different estimates.
    fault_threshold: int
    proposal: Any
    key: SigningKey
    registry: KeyRegistry
    send: SendFn
    schedule: ScheduleFn
    on_decide: DecideFn
    #: ``"paper"`` or ``"classic"`` (the value of a
    #: :class:`repro.core.config.QuorumRule`).
    quorum_rule: str = "paper"

    view: int = field(init=False, default=0)
    decided: bool = field(init=False, default=False)
    decided_value: Any = field(init=False, default=None)
    locked: PreparedCertificate | None = field(init=False, default=None)

    _members: list[ProcessId] = field(init=False)
    _quorum: int = field(init=False)
    _prepares: dict[tuple[int, Any], dict[ProcessId, SignedMessage]] = field(init=False, default_factory=dict)
    _commits: dict[tuple[int, Any], set[ProcessId]] = field(init=False, default_factory=dict)
    _view_changes: dict[int, dict[ProcessId, ViewChange]] = field(init=False, default_factory=dict)
    _prepared_sent: set[int] = field(init=False, default_factory=set)
    _commit_sent: set[int] = field(init=False, default_factory=set)
    _preprepare_seen: dict[int, Any] = field(init=False, default_factory=dict)
    _view_change_sent: set[int] = field(init=False, default_factory=set)
    _started: bool = field(init=False, default=False)
    _view_timers: list[Any] = field(init=False, default_factory=list)
    messages_sent: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._members = sorted(self.group.members, key=repr)
        if self.process_id not in self.group.members:
            raise ValueError("a replica must be a member of its group")
        self._quorum = _QUORUM_RULES[self.quorum_rule](len(self._members), self.fault_threshold)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> ProcessId:
        """Round-robin leader rotation over the sorted membership."""
        return self._members[view % len(self._members)]

    @property
    def leader(self) -> ProcessId:
        return self.leader_of(self.view)

    def _broadcast(self, payload: Any) -> None:
        for member in self._members:
            if member != self.process_id:
                self.send(member, payload)
                self.messages_sent += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the instance: the view-0 leader proposes, everyone arms a timer."""
        if self._started:
            return
        self._started = True
        if self.leader == self.process_id:
            self._propose_in_view(0, self.proposal)
        self._arm_view_timer(0)

    def _arm_view_timer(self, view: int) -> None:
        timeout = VIEW_TIMEOUT * (VIEW_TIMEOUT_GROWTH ** view)
        # A view can legitimately be armed twice (once when the previous
        # view times out, once on entering it through a quorum of view
        # changes), so handles are tracked as a list — every one must be
        # cancelled on decide, and a fired timer prunes its own handle.
        handle_cell: list[Any] = []

        def fire() -> None:
            if handle_cell:
                try:
                    self._view_timers.remove(handle_cell[0])
                except ValueError:
                    pass
            self._on_view_timeout(view)

        handle = self.schedule(timeout, fire)
        # Remember the handle so deciding can kill the timers for good.
        handle_cell.append(handle)
        self._view_timers.append(handle)

    def _cancel_view_timers(self) -> None:
        """Cancel every outstanding view timer (they are pointless once decided)."""
        timers, self._view_timers = self._view_timers, []
        for handle in timers:
            handle.cancel()

    def _propose_in_view(self, view: int, value: Any) -> None:
        signed = self.key.sign(preprepare_payload(self.group, view, value))
        message = PrePrepare(group=self.group, view=view, value=value, signed=signed)
        self._broadcast(message)
        # The leader processes its own proposal locally.
        self.handle_pre_prepare(self.process_id, message)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, sender: ProcessId, payload: Any) -> None:
        """Dispatch a PBFT message (ignores messages for other groups)."""
        if self.decided:
            # Late messages are harmless after the decision.
            return
        group = getattr(payload, "group", None)
        if group != self.group:
            return
        if sender not in self.group.members:
            return
        if isinstance(payload, PrePrepare):
            self.handle_pre_prepare(sender, payload)
        elif isinstance(payload, Prepare):
            self.handle_prepare(sender, payload)
        elif isinstance(payload, Commit):
            self.handle_commit(sender, payload)
        elif isinstance(payload, ViewChange):
            self.handle_view_change(sender, payload)
        elif isinstance(payload, NewView):
            self.handle_new_view(sender, payload)

    def handle_pre_prepare(self, sender: ProcessId, message: PrePrepare) -> None:
        if message.view < self.view or message.view in self._prepared_sent:
            return
        if sender != self.leader_of(message.view):
            return
        expected = preprepare_payload(self.group, message.view, message.value)
        if message.signed.signer != sender or message.signed.message != expected:
            return
        if not self.registry.verify(message.signed):
            return
        if message.view in self._preprepare_seen and self._preprepare_seen[message.view] != message.value:
            # Equivocating leader: ignore the second proposal.
            return
        self._preprepare_seen[message.view] = message.value
        # Lock rule: once locked on a value, only prepare that value again.
        if self.locked is not None and self.locked.value != message.value:
            return
        self._send_prepare(message.view, message.value)

    def _send_prepare(self, view: int, value: Any) -> None:
        if view in self._prepared_sent:
            return
        self._prepared_sent.add(view)
        signed = self.key.sign(_prepare_payload(self.group, view, value))
        message = Prepare(group=self.group, view=view, value=value, voter=self.process_id, signed=signed)
        self._broadcast(message)
        self.handle_prepare(self.process_id, message)

    def handle_prepare(self, sender: ProcessId, message: Prepare) -> None:
        if message.view < self.view:
            return
        if message.voter != sender:
            return
        expected = _prepare_payload(self.group, message.view, message.value)
        if message.signed.signer != sender or message.signed.message != expected:
            return
        if not self.registry.verify(message.signed):
            return
        slot = self._prepares.setdefault((message.view, message.value), {})
        slot[sender] = message.signed
        if len(slot) >= self._quorum:
            self._on_prepared(message.view, message.value, slot)

    def _on_prepared(self, view: int, value: Any, votes: dict[ProcessId, SignedMessage]) -> None:
        certificate = PreparedCertificate(
            group=self.group, view=view, value=value, prepares=frozenset(votes.values())
        )
        if self.locked is None or view >= self.locked.view:
            self.locked = certificate
        if view not in self._commit_sent:
            self._commit_sent.add(view)
            message = Commit(group=self.group, view=view, value=value, voter=self.process_id)
            self._broadcast(message)
            self.handle_commit(self.process_id, message)

    def handle_commit(self, sender: ProcessId, message: Commit) -> None:
        if message.voter != sender:
            return
        voters = self._commits.setdefault((message.view, message.value), set())
        voters.add(sender)
        if len(voters) >= self._quorum and not self.decided:
            self._decide(message.value)

    def _decide(self, value: Any) -> None:
        self.decided = True
        self.decided_value = value
        # A decided replica never changes view again: cancelling the armed
        # view timers here (instead of letting each fire and no-op at its
        # exponentially growing deadline) is what lets member-heavy runs
        # drain right after the decision rather than ticking to the horizon.
        self._cancel_view_timers()
        self.on_decide(value)

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------
    def _on_view_timeout(self, view: int) -> None:
        if self.decided or self.view > view:
            return
        if view + 1 >= MAX_VIEWS:
            return
        self._send_view_change(view + 1)
        self._arm_view_timer(view + 1)

    def _send_view_change(self, new_view: int) -> None:
        if new_view in self._view_change_sent:
            return
        self._view_change_sent.add(new_view)
        message = ViewChange(
            group=self.group, new_view=new_view, voter=self.process_id, prepared=self.locked
        )
        self._broadcast(message)
        self.handle_view_change(self.process_id, message)

    def _certificate_is_valid(self, certificate: PreparedCertificate | None) -> bool:
        if certificate is None:
            return True
        if certificate.group != self.group:
            return False
        if len(certificate.prepares) < self._quorum:
            return False
        expected = _prepare_payload(self.group, certificate.view, certificate.value)
        voters: set[ProcessId] = set()
        prepares: list[SignedMessage] = []
        for signed in certificate.prepares:
            if signed.message != expected:
                return False
            if signed.signer not in self.group.members or signed.signer in voters:
                return False
            voters.add(signed.signer)
            prepares.append(signed)
        # All votes share one payload, so the batch costs one canonical
        # encoding (memoised) plus one HMAC per voter not already cached.
        return all(self.registry.verify_batch(prepares))

    def handle_view_change(self, sender: ProcessId, message: ViewChange) -> None:
        if message.voter != sender or message.new_view <= 0:
            return
        if not self._certificate_is_valid(message.prepared):
            return
        slot = self._view_changes.setdefault(message.new_view, {})
        slot[sender] = message
        # Join a view change supported by more than f other members.
        if (
            len(slot) > self.fault_threshold
            and message.new_view > self.view
            and message.new_view not in self._view_change_sent
        ):
            self._send_view_change(message.new_view)
        if len(slot) >= self._quorum and message.new_view > self.view:
            self._enter_view(message.new_view, slot)

    def _enter_view(self, new_view: int, votes: dict[ProcessId, ViewChange]) -> None:
        self.view = new_view
        self._arm_view_timer(new_view)
        if self.leader_of(new_view) != self.process_id:
            return
        best: PreparedCertificate | None = None
        for vote in votes.values():
            if vote.prepared is None:
                continue
            if best is None or vote.prepared.view > best.view:
                best = vote.prepared
        if self.locked is not None and (best is None or self.locked.view > best.view):
            best = self.locked
        value = self.proposal if best is None else best.value
        justification = frozenset(votes.values())
        announcement = NewView(group=self.group, view=new_view, value=value, justification=justification)
        self._broadcast(announcement)
        self._propose_in_view(new_view, value)

    def handle_new_view(self, sender: ProcessId, message: NewView) -> None:
        if sender != self.leader_of(message.view) or message.view < self.view:
            return
        valid_votes = {
            vote.voter: vote
            for vote in message.justification
            if isinstance(vote, ViewChange)
            and vote.group == self.group
            and vote.new_view == message.view
            and vote.voter in self.group.members
            and self._certificate_is_valid(vote.prepared)
        }
        if len(valid_votes) < self._quorum:
            return
        if message.view > self.view:
            self.view = message.view
            self._arm_view_timer(message.view)
        # Unlock if the justification's strongest certificate carries a
        # different value in a view at least as high as our lock.
        best: PreparedCertificate | None = None
        for vote in valid_votes.values():
            if vote.prepared is None:
                continue
            if best is None or vote.prepared.view > best.view:
                best = vote.prepared
        if (
            self.locked is not None
            and best is not None
            and best.value != self.locked.value
            and best.view >= self.locked.view
        ):
            self.locked = best
