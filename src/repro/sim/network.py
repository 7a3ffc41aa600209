"""Message transport: reliable authenticated channels over a synchrony model.

The timing assumptions themselves (synchronous / partially synchronous /
asynchronous delay strategies) live in :mod:`repro.sim.synchrony`.

The :class:`Network` combines a synchrony model with the authenticated
reliable point-to-point channel assumption: messages are never lost,
duplicated, or forged (an envelope's sender is set by the transport, not by
the caller), but Byzantine-controlled *senders* may of course put arbitrary
payloads inside.  That contract is the :class:`~repro.sim.gate.SendGate` both
runtimes share; the :class:`Network` adds the synchrony model's delay draw
and the event engine's delivery.
"""

from __future__ import annotations

import random

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.engine import Simulator
from repro.sim.gate import SendGate, invalid_delay
from repro.sim.messages import Envelope
from repro.sim.synchrony import SynchronyModel
from repro.sim.tracing import SimulationTrace


class Network:
    """Authenticated reliable point-to-point transport over a synchrony model.

    Processes register, crash and get rules installed through :attr:`gate`.
    :meth:`send` stamps the true sender identity on the envelope (the
    authenticated channel assumption: a Byzantine process cannot impersonate
    another process at the transport level, although it can sign bogus
    *payload* claims, which the crypto layer handles).  Messages to or from a
    crashed process are dropped, matching the standard "a crashed process
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
        self.gate = SendGate(self.trace)
        #: The gate's method and sets, bound once: every send and delivery uses them.
        self._admit = self.gate.admit
        self._processes = self.gate.processes
        self._crashed = self.gate.crashed
        #: One bound method shared by every queued delivery (a run holds
        #: ~10^5 of them at once), instead of one allocated per send.
        self._deliver = self._deliver_one

    def send(self, sender: ProcessId, receiver: ProcessId, payload: object) -> None:
        """Send ``payload`` from ``sender`` to ``receiver`` over the channel.

        The send gate traces the message and drops it or lets the first
        matching rule decide its delay; only a message no rule claimed costs
        a synchrony-model draw.  The delivery is then one uncancellable
        :meth:`Simulator.call_at`, which appends it to the engine's bucket
        for that instant.  The crashed-receiver check stays at delivery time.
        """
        simulator = self.simulator
        now = simulator.now
        admitted = self._admit(sender, receiver, payload, now)
        if admitted is None:
            return
        envelope, delay = admitted
        if delay is None:
            faulty = self.faulty
            delay = self.model.delay(
                now=now,
                sender=sender,
                receiver=receiver,
                sender_correct=sender not in faulty,  # and not crashed: the gate checked
                receiver_correct=receiver not in faulty and receiver not in self._crashed,
                rng=self.rng,
            )
            if delay is None:
                self.trace.on_drop(envelope, "withheld by scheduler")
                return
            if not delay >= 0.0:
                raise invalid_delay(delay)
        simulator.call_at(now + delay, self._deliver, envelope)

    def _deliver_one(self, envelope: Envelope) -> None:
        receiver = envelope.receiver
        if receiver in self._crashed:
            self.gate.drop_at_crashed_receiver(envelope, self.simulator.now)
            return
        self.trace.on_deliver(envelope)
        self._processes[receiver].receive(envelope)

    def broadcast(self, sender: ProcessId, receivers: frozenset[ProcessId], payload: object) -> None:
        """Send ``payload`` from ``sender`` to every process in ``receivers``."""
        for receiver in sorted(receivers, key=repr):
            if receiver != sender:
                self.send(sender, receiver, payload)


__all__ = ["Network"]
