"""The send gate: the channel contract both runtimes enforce, written once.

BFT-CUP and BFT-CUPFT assume authenticated reliable point-to-point channels:
the transport stamps the sender, and a crashed process stops taking steps.
A :class:`SendGate` holds a run's membership, crash set and ordered
scripted-fault rules, and applies them alike for the simulated
:class:`~repro.sim.network.Network` and the live
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`.  Like
:mod:`repro.sim.messages`, this is shared vocabulary, not simulator
machinery: :mod:`repro.adversary.schedule` compiles onto :class:`NetworkRule`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Final

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.messages import Envelope, payload_kind
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


class Withhold(enum.Enum):
    WITHHOLD = "withhold"


#: Returned by :meth:`NetworkRule.decide` to drop the message forever.
WITHHOLD: Final = Withhold.WITHHOLD


class NetworkRule:
    """One named, ordered message-scheduling rule.

    Rules are consulted in installation order for every sent message, and
    the *first* rule returning a decision wins.  A decision is either a
    delivery delay (a float), :data:`WITHHOLD` (the message is dropped
    forever), or ``None`` (no match; the next rule, and ultimately the
    transport, decides).

    The rule ``name`` appears verbatim in the
    :class:`~repro.sim.tracing.SimulationTrace` drop/delay reasons, so a
    trace always says *which* scripted fault touched a message.
    """

    name: str = "rule"

    def decide(self, envelope: Envelope, *, now: float) -> float | Withhold | None:
        """Return a delay, :data:`WITHHOLD`, or ``None`` when not matching."""
        raise NotImplementedError


def invalid_delay(delay: float) -> ValueError:
    """The error both runtimes raise for a delay that is negative or NaN."""
    return ValueError(f"delay must be a non-negative number, got {delay!r}")


class SendGate:
    """Membership, crash set and rule order of one run, plus the send prelude.

    A runtime may hold on to :attr:`crashed` and :attr:`processes` (the same
    objects) so its delivery-time crash check stays one set lookup.
    """

    __slots__ = ("trace", "processes", "crashed", "rules")

    def __init__(self, trace: SimulationTrace) -> None:
        self.trace = trace
        self.processes: dict[ProcessId, "Process"] = {}
        self.crashed: set[ProcessId] = set()
        self.rules: list[NetworkRule] = []

    @property
    def process_ids(self) -> frozenset[ProcessId]:
        return frozenset(self.processes)

    def register(self, process: "Process") -> None:
        if process.process_id in self.processes:
            raise ValueError(f"process {process.process_id!r} already registered")
        self.processes[process.process_id] = process

    def crash(self, process_id: ProcessId) -> None:
        self.crashed.add(process_id)

    def add_rule(self, rule: NetworkRule) -> None:
        self.rules.append(rule)

    def admit(
        self, sender: ProcessId, receiver: ProcessId, payload: object, now: float
    ) -> tuple[Envelope, float | None] | None:
        """Trace one send at ``now``: ``None`` if it is dropped, else
        ``(envelope, delay)`` with a rule's delay, or with ``None`` when no
        rule matched and the transport decides.  A bad rule delay raises."""
        envelope = Envelope(sender, receiver, payload, now, payload_kind(payload))
        trace = self.trace
        trace.on_send(envelope)
        if sender in self.crashed:
            trace.on_drop(envelope, "sender crashed")
            return None
        if receiver not in self.processes:
            trace.on_drop(envelope, "unknown receiver")
            return None
        for rule in self.rules:
            decision = rule.decide(envelope, now=now)
            if decision is None:
                continue
            if decision is WITHHOLD:
                trace.on_rule_drop(envelope, rule.name)
                return None
            delay = float(decision)
            trace.on_rule_delay(envelope, rule.name, delay)
            if not delay >= 0.0:  # also catches NaN, which ``delay < 0`` lets through
                raise invalid_delay(delay)
            return envelope, delay
        return envelope, None

    def drop_at_crashed_receiver(self, envelope: Envelope, now: float) -> None:
        """Trace a delivery the runtime found addressed to a crashed process."""
        self.trace.on_drop(envelope, "receiver crashed", now)


__all__ = ["WITHHOLD", "NetworkRule", "SendGate", "Withhold", "invalid_delay"]
