"""The Byzantine behaviours: one node class each, declared once in :data:`BEHAVIOURS`.

Every faulty node is either a bare :class:`~repro.sim.process.Process`
(``silent``) or a subclass of :class:`~repro.core.node.ConsensusNode` that
overrides specific hooks.  Faulty nodes only ever sign with their *own* key
-- the signature layer makes forging a correct process's participant
detector impossible, which is the one cryptographic assumption the
authenticated model relies on.

Each class declares its parameters, one default each (see
:class:`Behaviour`), and keeps each one as the attribute of that name.
DESIGN.md ("Behaviours") has the table in prose.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from typing import TYPE_CHECKING, Any, ClassVar

from repro.core.messages import DecidedValue, GetDecidedValue, PdRecord
from repro.core.node import ConsensusNode
from repro.graphs.knowledge_graph import ProcessId
from repro.pbft.messages import PrePrepare
from repro.pbft.replica import preprepare_payload
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.spec import FaultSpec
    from repro.runtime.base import Runtime

#: The value the value-poisoning behaviours push unless a spec sets one.
POISON_VALUE = "poisoned-value"


class Behaviour:
    """What a behaviour's node class declares: its parameters, one default each.

    ``PARAMS`` maps each parameter with a fixed default to it.  These
    defaults are JSON scalars, so they are the parameters a
    :class:`~repro.adversary.mix.MixEntry` may set.  A participant-detector
    parameter (a set of process ids) has a default that depends on the
    graph; a class with one overrides :meth:`defaults`.
    """

    __slots__ = ()

    PARAMS: ClassVar[Mapping[str, Any]] = {}

    @classmethod
    def defaults(cls, processes: Collection[ProcessId]) -> dict[str, Any]:
        """Every parameter the class accepts, with its default on a graph of ``processes``."""
        del processes
        return dict(cls.PARAMS)


class SilentNode(Behaviour, Process):
    """A Byzantine process that never sends any message.

    This is the behaviour assumed by the paper whenever it argues that a
    Byzantine process "remains silent" (Fig. 1a, Scenario I, Theorem 7).
    The node still exists on the network (so messages addressed to it are
    delivered and ignored), it just never reacts.
    """

    def __init__(
        self,
        process_id: ProcessId,
        participant_detector: frozenset[ProcessId],
        *,
        runtime: "Runtime",
        **unused: Any,
    ) -> None:
        del unused  # its key and the protocol config: it signs and decides nothing
        super().__init__(process_id, participant_detector, runtime=runtime)

    def propose(self, value: Any) -> None:  # matches the ConsensusNode API
        del value

    def receive(self, envelope) -> None:  # ignore everything
        del envelope


class CrashNode(Behaviour, ConsensusNode):
    """Behaves correctly until time ``at``, then stops forever."""

    PARAMS: ClassVar[Mapping[str, Any]] = {"at": 25.0}

    def __init__(self, *args, at: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.at = at

    def propose(self, value: Any) -> None:
        super().propose(value)
        self.after(max(self.at - self.now, 0.0), self._crash)

    def _crash(self) -> None:
        self.runtime.crash(self.process_id)
        self.stop()


class LyingPdNode(Behaviour, ConsensusNode):
    """Advertises a fabricated participant detector (signed with its own key)."""

    def __init__(self, *args, claimed_pd: frozenset[ProcessId], **kwargs) -> None:
        self.claimed_pd = frozenset(claimed_pd)
        super().__init__(*args, **kwargs)

    @classmethod
    def defaults(cls, processes: Collection[ProcessId]) -> dict[str, Any]:
        """Claims to know every process: the classic over-claiming lie."""
        return {"claimed_pd": frozenset(processes)}

    def advertised_pd(self) -> frozenset[ProcessId] | None:
        return self.claimed_pd


class EquivocatingPdNode(Behaviour, ConsensusNode):
    """Advertises ``claimed_pd`` to half of the peers and ``alternate_pd`` to the rest."""

    def __init__(
        self,
        *args,
        claimed_pd: frozenset[ProcessId],
        alternate_pd: frozenset[ProcessId],
        **kwargs,
    ) -> None:
        self.claimed_pd = frozenset(claimed_pd)
        self.alternate_pd = frozenset(alternate_pd)
        super().__init__(*args, **kwargs)
        self._alternate_record = self.key.sign(
            PdRecord(owner=self.process_id, pd=self.alternate_pd)
        )

    @classmethod
    def defaults(cls, processes: Collection[ProcessId]) -> dict[str, Any]:
        """Claims the first half of the processes in ``repr`` order, shows the second as the alternate.

        The alternate is the first half again when the second is empty (a
        single process).
        """
        members = sorted(processes, key=repr)
        split = (len(members) + 1) // 2
        first = frozenset(members[:split])
        return {"claimed_pd": first, "alternate_pd": frozenset(members[split:]) or first}

    def advertised_pd(self) -> frozenset[ProcessId] | None:
        return self.claimed_pd

    def _set_pds_entries(self, requester: ProcessId) -> frozenset:
        entries = set(self.discovery.snapshot())
        # Show the alternate record to the "second half" of the identifier
        # space, deterministically, so the equivocation is reproducible.
        if repr(requester) > repr(self.process_id):
            entries.discard(self.discovery.records[self.process_id])
            entries.add(self._alternate_record)
        return frozenset(entries)


class WrongValueNode(Behaviour, ConsensusNode):
    """Participates in discovery but pushes a poisoned value everywhere it can."""

    PARAMS: ClassVar[Mapping[str, Any]] = {"poison_value": POISON_VALUE}

    def __init__(self, *args, poison_value: Any, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.poison_value = poison_value

    def choose_proposal(self) -> Any:
        return self.poison_value

    def decided_value_reply(self, requester: ProcessId) -> Any:
        del requester
        return self.poison_value

    def _handle_get_decided_value(self, sender: ProcessId, _message: GetDecidedValue) -> None:
        # Answer immediately with the poisoned value, decided or not.
        self.send(sender, DecidedValue(value=self.poison_value))


class EquivocatingLeaderNode(Behaviour, ConsensusNode):
    """Equivocates in the inner consensus when it is the view-0 leader.

    After identifying the sink/core, instead of running a faithful replica
    it sends ``PrePrepare`` messages with *different* values to different
    members and then stays silent in the inner consensus, while still
    answering discovery and decided-value queries (with the poison value).
    """

    PARAMS: ClassVar[Mapping[str, Any]] = {"poison_value": POISON_VALUE}

    def __init__(self, *args, poison_value: Any, **kwargs) -> None:
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


#: Every Byzantine behaviour, by name: the one place a behaviour is declared.
BEHAVIOURS: dict[str, type[Behaviour]] = {
    "silent": SilentNode,
    "crash": CrashNode,
    "lying_pd": LyingPdNode,
    "equivocating_pd": EquivocatingPdNode,
    "wrong_value": WrongValueNode,
    "equivocating_leader": EquivocatingLeaderNode,
}


def behaviour_params(
    behaviour: str, params: Mapping[str, Any], *, fixed_only: bool = False
) -> tuple[tuple[str, Any], ...]:
    """``params`` as sorted pairs, once ``behaviour`` accepts every one of them.

    Each name must be a parameter the behaviour declares (with ``fixed_only``,
    as a mix entry asks, one with a fixed default in ``PARAMS``) and each
    value must have its default's type (an ``int`` where the default is a
    ``float``).  Anything else raises ``ValueError``: a mistake must fail the
    declaration, not the run, nor run the experiment with the default.
    """
    node = BEHAVIOURS.get(behaviour)
    if node is None:
        raise ValueError(f"unknown behaviour {behaviour!r}; expected one of {sorted(BEHAVIOURS)}")
    if not params:
        return ()
    # On an empty graph the defaults still name every parameter, with its type.
    defaults = node.PARAMS if fixed_only else node.defaults(())
    unknown = params.keys() - defaults.keys()
    if unknown:
        raise ValueError(
            f"behaviour {behaviour!r} accepts no parameter named {sorted(unknown)}"
            f"{' in a mix entry' if fixed_only else ''}; allowed: {sorted(defaults)}"
        )
    for name, value in params.items():
        expected = type(defaults[name])
        if type(value) is not expected and not (expected is float and type(value) is int):
            raise ValueError(
                f"behaviour {behaviour!r}: parameter {name!r} takes a {expected.__name__}, "
                f"got {value!r}"
            )
    return tuple(sorted(params.items()))


def build_faulty_node(spec: "FaultSpec", processes: Collection[ProcessId], **common: Any) -> Process:
    """Instantiate the node implementing ``spec`` for a faulty process.

    ``common`` are the constructor arguments every node takes (those of
    :class:`~repro.core.node.ConsensusNode`).  A parameter the spec leaves
    unset takes its class default on the graph of ``processes``.
    """
    node = BEHAVIOURS[spec.behaviour]
    return node(**common, **{**node.defaults(processes), **dict(spec.params)})
