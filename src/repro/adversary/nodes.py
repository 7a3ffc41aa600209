"""Concrete faulty-node implementations.

Every faulty node is either a bare :class:`~repro.sim.process.Process`
(``silent``) or a subclass of :class:`~repro.core.node.ConsensusNode` that
overrides specific hooks.  Faulty nodes only ever sign with their *own* key
-- the signature layer makes forging a correct process's participant
detector impossible, which is the one cryptographic assumption the
authenticated model relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.adversary.spec import FaultSpec
from repro.core.config import ProtocolConfig
from repro.core.messages import GetDecidedValue, PdRecord
from repro.core.node import ConsensusNode
from repro.crypto.signatures import KeyRegistry, SigningKey
from repro.graphs.knowledge_graph import ProcessId
from repro.pbft.messages import PrePrepare
from repro.pbft.replica import preprepare_payload
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime


class SilentNode(Process):
    """A Byzantine process that never sends any message.

    This is the behaviour assumed by the paper whenever it argues that a
    Byzantine process "remains silent" (Fig. 1a, Scenario I, Theorem 7).
    The node still exists on the network (so messages addressed to it are
    delivered and ignored), it just never reacts.
    """

    def propose(self, value: Any) -> None:  # matches the ConsensusNode API
        del value

    def receive(self, envelope) -> None:  # ignore everything
        del envelope


class CrashNode(ConsensusNode):
    """Behaves correctly until ``crash_time``, then stops forever."""

    def __init__(self, *args, crash_time: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_time = crash_time

    def propose(self, value: Any) -> None:
        super().propose(value)
        self.after(max(self.crash_time - self.now, 0.0), self._crash)

    def _crash(self) -> None:
        self.runtime.crash(self.process_id)
        self.stop()


class LyingPdNode(ConsensusNode):
    """Advertises a fabricated participant detector (signed with its own key)."""

    def __init__(self, *args, claimed_pd: frozenset[ProcessId], **kwargs) -> None:
        self._claimed_pd = frozenset(claimed_pd)
        super().__init__(*args, **kwargs)

    def advertised_pd(self) -> frozenset[ProcessId] | None:
        return self._claimed_pd


class EquivocatingPdNode(ConsensusNode):
    """Advertises one PD to half of the peers and another to the rest."""

    def __init__(
        self,
        *args,
        claimed_pd: frozenset[ProcessId],
        alternate_pd: frozenset[ProcessId],
        **kwargs,
    ) -> None:
        self._claimed_pd = frozenset(claimed_pd)
        self._alternate_pd = frozenset(alternate_pd)
        super().__init__(*args, **kwargs)
        self._alternate_record = self.key.sign(
            PdRecord(owner=self.process_id, pd=self._alternate_pd)
        )

    def advertised_pd(self) -> frozenset[ProcessId] | None:
        return self._claimed_pd

    def _set_pds_entries(self, requester: ProcessId) -> frozenset:
        entries = set(self.discovery.snapshot())
        # Show the alternate record to the "second half" of the identifier
        # space, deterministically, so the equivocation is reproducible.
        if repr(requester) > repr(self.process_id):
            entries.discard(self.discovery.records[self.process_id])
            entries.add(self._alternate_record)
        return frozenset(entries)


class WrongValueNode(ConsensusNode):
    """Participates in discovery but pushes a poisoned value everywhere it can."""

    def __init__(self, *args, poison_value: Any = "poisoned-value", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.poison_value = poison_value

    def choose_proposal(self) -> Any:
        return self.poison_value

    def decided_value_reply(self, requester: ProcessId) -> Any:
        del requester
        return self.poison_value

    def _handle_get_decided_value(self, sender: ProcessId, _message: GetDecidedValue) -> None:
        # Answer immediately with the poisoned value, decided or not.
        from repro.core.messages import DecidedValue

        self.send(sender, DecidedValue(value=self.poison_value))


class EquivocatingLeaderNode(ConsensusNode):
    """Equivocates in the inner consensus when it is the view-0 leader.

    After identifying the sink/core, instead of running a faithful replica
    it sends ``PrePrepare`` messages with *different* values to different
    members and then stays silent in the inner consensus, while still
    answering discovery and decided-value queries (with the poison value).
    """

    def __init__(self, *args, poison_value: Any = "poisoned-value", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.poison_value = poison_value

    def decided_value_reply(self, requester: ProcessId) -> Any:
        del requester
        return self.poison_value

    def _start_inner_consensus(self) -> None:
        group = self._group_key()
        members = sorted(group.members, key=repr)
        leader = members[0 % len(members)]
        if leader != self.process_id:
            # Not the leader: simply stay silent inside the inner consensus.
            return
        values = [self.poison_value, self.proposal]
        for index, member in enumerate(member for member in members if member != self.process_id):
            value = values[index % 2]
            signed = self.key.sign(preprepare_payload(group, 0, value))
            self.send(member, PrePrepare(group=group, view=0, value=value, signed=signed))


def build_faulty_node(
    spec: FaultSpec,
    *,
    process_id: ProcessId,
    participant_detector: frozenset[ProcessId],
    registry: KeyRegistry,
    key: SigningKey,
    config: ProtocolConfig,
    runtime: "Runtime",
) -> Process:
    """Instantiate the node implementing ``spec`` for a faulty process."""
    common = dict(
        process_id=process_id,
        participant_detector=participant_detector,
        registry=registry,
        key=key,
        config=config,
        runtime=runtime,
    )
    if spec.behaviour == "silent":
        return SilentNode(process_id, participant_detector, runtime=runtime)
    if spec.behaviour == "crash":
        return CrashNode(crash_time=spec.crash_time, **common)
    if spec.behaviour == "lying_pd":
        claimed = spec.claimed_pd if spec.claimed_pd is not None else participant_detector
        return LyingPdNode(claimed_pd=claimed, **common)
    if spec.behaviour == "equivocating_pd":
        claimed = spec.claimed_pd if spec.claimed_pd is not None else participant_detector
        alternate = spec.alternate_pd if spec.alternate_pd is not None else frozenset()
        return EquivocatingPdNode(claimed_pd=claimed, alternate_pd=alternate, **common)
    if spec.behaviour == "wrong_value":
        return WrongValueNode(poison_value=spec.poison_value, **common)
    if spec.behaviour == "equivocating_leader":
        return EquivocatingLeaderNode(poison_value=spec.poison_value, **common)
    raise ValueError(f"unsupported behaviour: {spec.behaviour!r}")
