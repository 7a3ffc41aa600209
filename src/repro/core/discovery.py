"""The Discovery algorithm (Algorithm 1) as a pure state machine.

Each process ``i`` keeps three local sets:

* ``S_PD``       -- every signed participant-detector record received so far
                    (initialised with its own signed record);
* ``S_known``    -- every process it knows to exist (initialised with
                    ``PD_i ∪ {i}``);
* ``S_received`` -- every process whose participant detector it has received
                    (initialised with ``{i}``).

The state machine is deliberately I/O free: the
:class:`~repro.core.node.ConsensusNode` drives it from message handlers and
timers, and the unit tests drive it directly.  Signature verification
happens here, so Byzantine processes cannot alter or fabricate the record of
a correct process (they can only lie about their *own* PD, which the model
permits).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.messages import PdRecord
from repro.crypto.signatures import KeyRegistry, SignedMessage, SigningKey
from repro.graphs.knowledge_graph import ProcessId
from repro.graphs.predicates import KnowledgeView


@dataclass(slots=True)
class DiscoveryState:
    """Local discovery state of one process (Algorithm 1, lines 1 and 4-6)."""

    process_id: ProcessId
    participant_detector: frozenset[ProcessId]
    key: SigningKey
    registry: KeyRegistry
    #: Claimed PD to advertise.  Correct processes advertise their true PD;
    #: Byzantine processes may set this to anything (they sign it with their
    #: own key, which the model allows).
    advertised_pd: frozenset[ProcessId] | None = None

    records: dict[ProcessId, SignedMessage] = field(init=False, default_factory=dict)
    known: set[ProcessId] = field(init=False, default_factory=set)
    received: set[ProcessId] = field(init=False, default_factory=set)
    rejected_records: int = field(init=False, default=0)
    #: Union of the PDs of every stored record (the "derivable" processes).
    #: A known process outside this union is invisible to the predicates.
    _pd_union: set[ProcessId] = field(init=False, default_factory=set, repr=False)
    #: ``frozenset(records.values())``, dropped whenever ``records`` changes.
    _snapshot: frozenset[SignedMessage] | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        advertised = (
            self.participant_detector if self.advertised_pd is None else frozenset(self.advertised_pd)
        )
        own_record = self.key.sign(PdRecord(owner=self.process_id, pd=advertised))
        self.records[self.process_id] = own_record
        self.known = set(self.participant_detector) | {self.process_id}
        self.received = {self.process_id}
        self._pd_union = set(advertised)

    # ------------------------------------------------------------------
    # Algorithm 1 transitions
    # ------------------------------------------------------------------
    def snapshot(self) -> frozenset[SignedMessage]:
        """The ``S_PD`` set to ship in a ``SETPDS`` reply (line 3), shared until ``records`` changes."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset(self.records.values())
        return snapshot

    def absorb(self, entries: frozenset[SignedMessage]) -> bool:
        """Merge a received ``SETPDS`` payload (lines 4-6).

        Entries whose signature does not verify, whose signer differs from
        the record owner, or whose payload is not a :class:`PdRecord` are
        discarded (and counted in :attr:`rejected_records`).  An entry that
        *is* the already-stored record of its owner is skipped without
        re-verifying the signature: verification is deterministic, so the
        stored copy's earlier acceptance already proves this one valid, and
        a stored record's PD is already folded into ``known``.

        The fold is independent of the iteration order of ``entries`` (which
        is hash-seed dependent for a ``frozenset``): ``known`` and
        ``received`` are order-free folds, and when one payload
        carries *conflicting* records for the same owner — possible only
        from an equivocating sender — the stored record is the one with the
        smallest signature tag, not whichever the set yields first.

        Returns whether the view changed: a new record was stored or a new
        process became known.
        """
        # Pre-pass: collect the entries that will reach the signature check
        # and verify them as one batch (one canonical encoding per distinct
        # message, grouped by signer).  The filter mirrors the fold below
        # exactly — an entry needs verification iff it is a well-formed,
        # self-signed PdRecord and is not the already-stored record of its
        # owner.  Only pre-call state matters for that last test: a
        # same-owner duplicate arriving later in this call is a *conflicting*
        # record (frozensets dedupe equal entries), which the fold verifies
        # too, so the pre-pass and the fold agree on the set to check.
        pending: list[SignedMessage] = []
        malformed = False
        for entry in entries:  # lint: allow[DET-ORDER-SET] order-insensitive collection; validity is per-entry
            record = entry.message
            if not isinstance(record, PdRecord) or entry.signer != record.owner:
                malformed = True
                continue
            stored = self.records.get(record.owner)
            if stored is not None and (stored is entry or stored == entry):
                continue
            pending.append(entry)
        if not pending and not malformed:
            return False  # every entry is already stored: the fold would skip them all
        changed = False
        stored_this_call: set[ProcessId] = set()
        verified = dict(zip(map(id, pending), self.registry.verify_batch(pending), strict=True))
        for entry in entries:  # lint: allow[DET-ORDER-SET] order-insensitive fold; same-owner conflicts resolved by canonical tag below
            record = entry.message
            if not isinstance(record, PdRecord):
                self.rejected_records += 1
                continue
            owner = record.owner
            stored = self.records.get(owner)
            if stored is not None and (stored is entry or stored == entry):
                continue
            if entry.signer != owner:
                self.rejected_records += 1
                continue
            if not verified[id(entry)]:
                self.rejected_records += 1
                continue
            if stored is None:
                self.records[owner] = entry
                self._snapshot = None
                self.received.add(owner)
                stored_this_call.add(owner)
                self._pd_union.update(record.pd)
                changed = True
                self.known.add(owner)
            elif owner in stored_this_call and entry.tag < self.records[owner].tag:
                # This payload carries two different records signed by the
                # same owner.  "First one wins" would make the stored record
                # depend on the frozenset's hash-seed-driven order; keep the
                # entry with the smallest tag instead, a total order over
                # conflicting records.  (``_pd_union`` keeps the loser's PD:
                # it is documented as a superset and both PDs fold into
                # ``known`` below either way.)
                self.records[owner] = entry
                self._snapshot = None
                self._pd_union.update(record.pd)
            members = set(record.pd) - self.known
            if members:
                self.known.update(members)
                changed = True
        return changed

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def view(self) -> KnowledgeView:
        """The knowledge view used by the sink/core predicates."""
        pds = {owner: frozenset(entry.message.pd) for owner, entry in self.records.items()}
        return KnowledgeView(known=frozenset(self.known), pds=pds)

    def view_key(self) -> tuple:
        """Hashable identity of the analysis-visible view content.

        Two discovery states with equal ``view_key()`` produce equal
        sink/core search results, so the key indexes the process-local
        sink-search memo of :mod:`repro.core.locators`: different nodes of
        the same simulation (or of different runs in the same worker
        process) whose views converged share one search instead of each
        re-running it.

        The ``known`` component is restricted to the processes appearing in
        some stored PD (plus the record owners, which are always known):
        known processes outside every stored PD are invisible to the
        predicates (no in-edges, never in a candidate or a derived ``S2``),
        so including them would only fragment the memo.
        """
        return (
            frozenset(self.known & self._pd_union),
            frozenset((owner, frozenset(entry.message.pd)) for owner, entry in self.records.items()),
        )
