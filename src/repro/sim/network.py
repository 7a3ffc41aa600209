"""Message transport: reliable authenticated channels over a synchrony model.

The timing assumptions themselves (synchronous / partially synchronous /
asynchronous delay strategies) live in :mod:`repro.sim.synchrony`.

The :class:`Network` combines a synchrony model with the authenticated
reliable point-to-point channel assumption: messages are never lost,
duplicated, or forged (an envelope's sender is set by the transport, not by
the caller), but Byzantine-controlled *senders* may of course put arbitrary
payloads inside.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.engine import Simulator
from repro.sim.messages import Envelope, payload_kind
from repro.sim.synchrony import SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.process import Process


class _Withhold:
    """Sentinel decision: the matched message is never delivered."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "WITHHOLD"


#: Returned by :meth:`NetworkRule.decide` to drop the message forever.
WITHHOLD = _Withhold()


class NetworkRule:
    """One named, ordered message-scheduling rule.

    Rules form the first-class adversarial-scheduling path of the
    :class:`Network`: they are consulted in installation order for every
    sent message, and the *first* rule returning a decision wins.  A
    decision is either a delivery delay (a float), :data:`WITHHOLD` (the
    message is dropped forever), or ``None`` (no match; the next rule, and
    ultimately the synchrony model, decides).

    The rule ``name`` appears verbatim in the
    :class:`~repro.sim.tracing.SimulationTrace` drop/delay reasons, so a
    trace always says *which* scripted fault touched a message.
    """

    name: str = "rule"

    def decide(self, envelope: Envelope, *, now: float) -> float | _Withhold | None:
        """Return a delay, :data:`WITHHOLD`, or ``None`` when not matching."""
        raise NotImplementedError


class Network:
    """Authenticated reliable point-to-point transport over a synchrony model.

    Processes register themselves with :meth:`register`.  Sending is done
    through :meth:`send`, which stamps the true sender identity on the
    envelope (the authenticated channel assumption: a Byzantine process
    cannot impersonate another process at the transport level, although it
    can sign bogus *payload* claims, which the crypto layer handles).

    Crashed processes can be marked with :meth:`crash`; messages to or from
    a crashed process are dropped, matching the standard "a crashed process
    stops executing any step" semantics used by the impossibility proof.
    """

    def __init__(
        self,
        simulator: Simulator,
        model: SynchronyModel,
        *,
        trace: SimulationTrace | None = None,
        seed: int = 0,
        faulty: frozenset[ProcessId] = frozenset(),
    ) -> None:
        self.simulator = simulator
        self.model = model
        self.trace = trace if trace is not None else SimulationTrace()
        self.rng = random.Random(seed)
        self.faulty = frozenset(faulty)
        self._processes: dict[ProcessId, "Process"] = {}
        self._crashed: set[ProcessId] = set()
        self._rules: list[NetworkRule] = []
        #: One bound method shared by every queued delivery (a run holds
        #: ~10^5 of them at once), instead of one allocated per send.
        self._deliver = self._deliver_one

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        """Register a process so it can receive messages."""
        if process.process_id in self._processes:
            raise ValueError(f"process {process.process_id!r} already registered")
        self._processes[process.process_id] = process

    @property
    def process_ids(self) -> frozenset[ProcessId]:
        return frozenset(self._processes)

    def crash(self, process_id: ProcessId) -> None:
        """Crash a process: it stops taking steps and its messages are dropped."""
        self._crashed.add(process_id)

    # ------------------------------------------------------------------
    # adversarial scheduling hooks
    # ------------------------------------------------------------------
    def add_rule(self, rule: NetworkRule) -> None:
        """Install a named message-scheduling rule (consulted in order).

        The first installed rule whose :meth:`NetworkRule.decide` returns a
        decision wins; the synchrony model only schedules messages no rule
        claims.  Declarative :class:`~repro.adversary.schedule.NetworkSchedule`
        objects compile onto this hook; rules only *increase* adversarial
        power for messages involving faulty processes or pre-GST traffic
        (the schedule layer validates that contract against the model).
        """
        self._rules.append(rule)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send(self, sender: ProcessId, receiver: ProcessId, payload: object) -> None:
        """Send ``payload`` from ``sender`` to ``receiver`` over the channel.

        The first matching rule decides the delay (or withholds), else the
        synchrony model does.  The delivery is then one uncancellable
        :meth:`Simulator.call_at`, which appends it to the engine's bucket
        for that instant.  The crashed-receiver check stays at delivery time.
        """
        simulator = self.simulator
        now = simulator.now
        envelope = Envelope(sender, receiver, payload, now, payload_kind(payload))
        self.trace.on_send(envelope)

        crashed = self._crashed
        if sender in crashed:
            self.trace.on_drop(envelope, "sender crashed")
            return
        if receiver not in self._processes:
            self.trace.on_drop(envelope, "unknown receiver")
            return

        for rule in self._rules:
            decision = rule.decide(envelope, now=now)
            if decision is None:
                continue
            if isinstance(decision, _Withhold):
                self.trace.on_rule_drop(envelope, rule.name)
                return
            delay = float(decision)
            self.trace.on_rule_delay(envelope, rule.name, delay)
            break
        else:
            faulty = self.faulty
            model_delay = self.model.delay(
                now=now,
                sender=sender,
                receiver=receiver,
                sender_correct=sender not in faulty,  # and not crashed: checked above
                receiver_correct=receiver not in faulty and receiver not in crashed,
                rng=self.rng,
            )
            if model_delay is None:
                self.trace.on_drop(envelope, "withheld by scheduler")
                return
            delay = model_delay
        if not delay >= 0.0:  # also catches NaN, which ``delay < 0`` lets through
            raise ValueError(f"delay must be a non-negative number, got {delay!r}")
        simulator.call_at(now + delay, self._deliver, envelope)

    def _deliver_one(self, envelope: Envelope) -> None:
        receiver = envelope.receiver
        if receiver in self._crashed:
            self.trace.on_drop(envelope, "receiver crashed", self.simulator.now)
            return
        self.trace.on_deliver(envelope)
        self._processes[receiver].receive(envelope)

    def broadcast(self, sender: ProcessId, receivers: frozenset[ProcessId], payload: object) -> None:
        """Send ``payload`` from ``sender`` to every process in ``receivers``."""
        for receiver in sorted(receivers, key=repr):
            if receiver != sender:
                self.send(sender, receiver, payload)


__all__ = ["WITHHOLD", "Network", "NetworkRule"]
