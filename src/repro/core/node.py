"""The consensus node: Algorithm 3 on top of Discovery and Sink/Core location.

A :class:`ConsensusNode` is one (correct) process of the system.  Its life
cycle follows Algorithm 3:

1. ``propose(value)`` starts the Discovery task (Algorithm 1) and the
   sink/core location (Algorithm 2 in ``BFT_CUP`` mode, Algorithm 4 in
   ``BFT_CUPFT`` mode).
2. Once the sink/core ``S`` is identified, a member of ``S`` runs the inner
   PBFT-style consensus with the other members; a non-member periodically
   asks the members for the decided value and decides once
   ``⌈(|S| + 1) / 2⌉`` members returned the same value.  Discovery stops
   once ``S`` is identified.
3. The decided value is stored in ``val`` and served to any process that
   asks (``GETDECIDEDVAL`` / ``DECIDEDVAL``).

Byzantine behaviours are implemented as subclasses in
:mod:`repro.adversary.nodes`, overriding the hooks marked below.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.core.config import ProtocolConfig, ProtocolMode
from repro.core.discovery import DiscoveryState
from repro.core.locators import CoreLocator, SinkLocator
from repro.core.messages import DecidedValue, GetDecidedValue, GetPds, SetPds
from repro.crypto.signatures import KeyRegistry, SigningKey
from repro.graphs.knowledge_graph import ProcessId
from repro.pbft.messages import Commit, GroupKey, NewView, PrePrepare, Prepare, ViewChange
from repro.pbft.replica import SingleShotPbft
from repro.sim.process import PeriodicTimer, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime

_PBFT_MESSAGE_TYPES = (PrePrepare, Prepare, Commit, ViewChange, NewView)

#: Period of the Discovery algorithm's ``GETPDS`` round (Algorithm 1, line 2).
DISCOVERY_PERIOD = 5.0
#: Period at which non-members re-request the decided value (Algorithm 3, line 6).
QUERY_PERIOD = 10.0


class ConsensusNode(Process):
    """A correct process running the paper's protocol stack."""

    def __init__(
        self,
        process_id: ProcessId,
        participant_detector: frozenset[ProcessId],
        registry: KeyRegistry,
        key: SigningKey,
        config: ProtocolConfig,
        *,
        runtime: "Runtime",
    ) -> None:
        super().__init__(process_id, participant_detector, runtime=runtime)
        self.registry = registry
        self.key = key
        self.config = config

        self.discovery = DiscoveryState(
            process_id=process_id,
            participant_detector=self.participant_detector,
            key=key,
            registry=registry,
            advertised_pd=self.advertised_pd(),
        )
        if config.mode is ProtocolMode.BFT_CUP:
            self.locator: SinkLocator | CoreLocator = SinkLocator(config.fault_threshold or 0)
        else:
            self.locator = CoreLocator()

        self.proposal: Any = None
        self.value: Any = None  # ``val`` in Algorithm 3
        self.decided_at: float | None = None
        self.identified_members: frozenset[ProcessId] | None = None
        self.identified_at: float | None = None
        self.estimated_fault_threshold: int | None = None
        self.replica: SingleShotPbft | None = None

        self._proposed = False
        self._decided = False
        self._discovery_active = False
        self._discovery_timer: PeriodicTimer | None = None
        self._query_timer: PeriodicTimer | None = None
        self._pending_requesters: set[ProcessId] = set()
        self._pending_pbft: list[tuple[ProcessId, Any]] = []
        self._decided_value_votes: dict[ProcessId, Any] = {}

        # Message handlers.
        self.on(GetPds, self._handle_get_pds)
        self.on(SetPds, self._handle_set_pds)
        self.on(GetDecidedValue, self._handle_get_decided_value)
        self.on(DecidedValue, self._handle_decided_value)
        for message_type in _PBFT_MESSAGE_TYPES:
            self.on(message_type, self._handle_pbft)

    # ------------------------------------------------------------------
    # Byzantine override hooks (correct behaviour here)
    # ------------------------------------------------------------------
    def advertised_pd(self) -> frozenset[ProcessId] | None:
        """The PD this node advertises; ``None`` means its true PD."""
        return None

    def choose_proposal(self) -> Any:
        """The value proposed to the inner consensus."""
        return self.proposal

    def decided_value_reply(self, requester: ProcessId) -> Any:
        """The value returned to a ``GETDECIDEDVAL`` request once decided."""
        del requester
        return self.value

    # ------------------------------------------------------------------
    # public API (Algorithm 3)
    # ------------------------------------------------------------------
    def propose(self, value: Any) -> None:
        """Propose ``value`` and start the protocol (Algorithm 3, function ``propose``)."""
        if self._proposed:
            raise RuntimeError("propose() may only be called once per node")
        self._proposed = True
        self.proposal = value
        self._start_discovery()
        # The initial view may already contain a witness (e.g. a process
        # whose PD alone reveals the whole sink), so check immediately.
        self._attempt_identification()

    @property
    def decided(self) -> bool:
        """Whether this node has decided.

        Tracked as an explicit flag rather than ``val is not None``: a
        Byzantine quorum could push a literal ``None`` decision, and a
        value-based check would leave the node "undecided", re-querying the
        members forever.
        """
        return self._decided

    # ------------------------------------------------------------------
    # Discovery (Algorithm 1)
    # ------------------------------------------------------------------
    def _start_discovery(self) -> None:
        if self._discovery_active:
            return
        self._discovery_active = True
        self._discovery_round()
        self._discovery_timer = self.every(DISCOVERY_PERIOD, self._discovery_round)

    def _discovery_round(self) -> None:
        """Line 2 of Algorithm 1: ask every known process for its PDs."""
        if not self._discovery_active:
            return
        self.send_to_all(self.discovery.known, GetPds())

    def _handle_get_pds(self, sender: ProcessId, _message: GetPds) -> None:
        """Line 3 of Algorithm 1: reply with the collected signed PDs."""
        self.send(sender, SetPds(entries=self._set_pds_entries(sender)))

    def _set_pds_entries(self, requester: ProcessId) -> frozenset:
        """The entries shipped to ``requester`` (hook for equivocating adversaries)."""
        del requester
        return self.discovery.snapshot()

    def _handle_set_pds(self, sender: ProcessId, message: SetPds) -> None:
        """Lines 4-6 of Algorithm 1: merge received PDs, then retry identification."""
        del sender
        if self.discovery.absorb(message.entries):
            self._attempt_identification()

    # ------------------------------------------------------------------
    # Sink / Core identification (Algorithms 2 and 4)
    # ------------------------------------------------------------------
    def _attempt_identification(self) -> None:
        if self.identified_members is not None or not self._proposed:
            return
        witness = self.locator.locate(self.discovery)
        if witness is None:
            return
        members = self.locator.members()
        assert members is not None
        self.identified_members = members
        self.identified_at = self.now
        self.estimated_fault_threshold = self.locator.estimated_fault_threshold()
        self.runtime.trace.on_sink_identified(self.process_id, members, self.now)
        self._stop_discovery()
        self._after_identification()

    def _stop_discovery(self) -> None:
        """Cancel the periodic GETPDS rounds (the timer dies, not just the body)."""
        self._discovery_active = False
        if self._discovery_timer is not None:
            self._discovery_timer.cancel()
            self._discovery_timer = None

    def _after_identification(self) -> None:
        """Algorithm 3, lines 3-7: act as a member or as a non-member."""
        members = self.identified_members
        assert members is not None
        if self.process_id in members:
            self._start_inner_consensus()
        else:
            self._query_round()
            self._query_timer = self.every(QUERY_PERIOD, self._query_round)

    # ------------------------------------------------------------------
    # Inner consensus (members)
    # ------------------------------------------------------------------
    def _group_key(self) -> GroupKey:
        members = self.identified_members
        assert members is not None
        return GroupKey(members=members)

    def _start_inner_consensus(self) -> None:
        group = self._group_key()
        self.replica = SingleShotPbft(
            process_id=self.process_id,
            group=group,
            fault_threshold=self.estimated_fault_threshold or 0,
            proposal=self.choose_proposal(),
            key=self.key,
            registry=self.registry,
            send=self._send_pbft,
            schedule=self.after,
            on_decide=self._on_inner_decision,
            quorum_rule=self.config.quorum_rule.value,
        )
        self.replica.start()
        # Replay PBFT messages that arrived before the sink was identified.
        pending, self._pending_pbft = self._pending_pbft, []
        for sender, payload in pending:
            self.replica.handle(sender, payload)

    def _send_pbft(self, receiver: ProcessId, payload: Any) -> None:
        self.send(receiver, payload)

    def _handle_pbft(self, sender: ProcessId, payload: Any) -> None:
        if self.replica is None:
            # The sink may not be identified yet; buffer until it is.
            self._pending_pbft.append((sender, payload))
            return
        self.replica.handle(sender, payload)

    def _on_inner_decision(self, value: Any) -> None:
        self._decide(value)

    # ------------------------------------------------------------------
    # Decided-value query (non-members)
    # ------------------------------------------------------------------
    def _query_round(self) -> None:
        if self.decided or self.identified_members is None:
            return
        self.send_to_all(self.identified_members, GetDecidedValue())

    def _handle_get_decided_value(self, sender: ProcessId, _message: GetDecidedValue) -> None:
        """Algorithm 3, lines 9-10: answer once a value has been decided."""
        if self.decided:
            self.send(sender, DecidedValue(value=self.decided_value_reply(sender)))
        else:
            self._pending_requesters.add(sender)

    def _handle_decided_value(self, sender: ProcessId, message: DecidedValue) -> None:
        """Algorithm 3, line 7: wait for matching replies from a majority of members."""
        if self.decided or self.identified_members is None:
            return
        if sender not in self.identified_members:
            return
        if sender in self._decided_value_votes:
            # Only the first reply of each member counts.  Membership (not a
            # ``get(...) is not None`` check) is what closes the Byzantine
            # double-vote hole: a member whose first reply was ``None`` must
            # not get a second, different vote.
            return
        self._decided_value_votes[sender] = message.value
        counts = Counter(self._decided_value_votes.values())
        needed = math.ceil((len(self.identified_members) + 1) / 2)
        value, occurrences = counts.most_common(1)[0]
        if occurrences >= needed:
            self._decide(value)

    # ------------------------------------------------------------------
    # Deciding
    # ------------------------------------------------------------------
    def _decide(self, value: Any) -> None:
        if self._decided:
            return  # Integrity: decide at most once.
        self._decided = True
        self.value = value
        self.decided_at = self.now
        if self._query_timer is not None:
            # Non-members stop asking for the decided value once they have it.
            self._query_timer.cancel()
            self._query_timer = None
        self.runtime.trace.on_decision(self.process_id, value, self.now)
        requesters, self._pending_requesters = self._pending_requesters, set()
        for requester in sorted(requesters, key=repr):
            self.send(requester, DecidedValue(value=self.decided_value_reply(requester)))
