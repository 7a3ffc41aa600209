"""Base class for protocol processes.

A :class:`Process` owns a process identifier, its participant detector, a
reference to the :class:`~repro.runtime.base.Runtime` it executes on, and a
small dispatch layer: message handlers by payload type, periodic timers, and
one-shot timers.  Protocol modules subclass it (or compose it) and register
handlers with :meth:`on`.

Processes are runtime-agnostic: the same handler code runs under the
discrete-event simulator (:class:`~repro.runtime.sim.SimRuntime`) and over
real sockets (:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime, TimerHandle


class PeriodicTimer:
    """Cancellable handle for a repeating timer created by :meth:`Process.every`.

    The underlying runtime timer changes on every tick, so a plain one-shot
    handle cannot represent the timer; this handle always points at the
    *current* tick and cancelling it both cancels that tick and stops the
    rescheduling loop.
    """

    __slots__ = ("_owner", "_period", "_callback", "_handle", "_cancelled")

    def __init__(self, owner: "Process", period: float, callback: Callable[[], None]) -> None:
        self._owner = owner
        self._period = period
        self._callback = callback
        self._cancelled = False
        self._handle = owner.runtime.schedule(period, self._tick)

    def _tick(self) -> None:
        if self._cancelled or self._owner.stopped:
            return
        self._callback()
        if self._cancelled or self._owner.stopped:
            return  # the callback cancelled the timer (or stopped the process)
        self._handle = self._owner.runtime.schedule(self._period, self._tick)

    def cancel(self) -> None:
        """Stop the timer: cancel the pending tick and never reschedule."""
        if self._cancelled:
            return
        self._cancelled = True
        self._handle.cancel()
        self._owner._timers.discard(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Process:
    """A protocol process attached to a runtime."""

    def __init__(
        self,
        process_id: ProcessId,
        participant_detector: Iterable[ProcessId],
        *,
        runtime: "Runtime",
    ) -> None:
        self.process_id = process_id
        self.participant_detector = frozenset(participant_detector)
        self.runtime = runtime
        self._handlers: dict[type, Callable[[ProcessId, Any], None]] = {}
        self._timers: set["TimerHandle | PeriodicTimer"] = set()
        self._stopped = False
        runtime.register(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the process (protocols override this to kick off tasks)."""

    def stop(self) -> None:
        """Stop taking steps (cancels every pending timer)."""
        self._stopped = True
        for handle in tuple(self._timers):
            handle.cancel()
        self._timers.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def now(self) -> float:
        """Current protocol time (virtual, or scaled wall clock when live)."""
        return self.runtime.now

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, receiver: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``receiver`` over the authenticated channel."""
        if self._stopped:
            return
        self.runtime.send(self.process_id, receiver, payload)

    def send_to_all(self, receivers: Iterable[ProcessId], payload: Any) -> None:
        """Send ``payload`` to every process in ``receivers`` (excluding self)."""
        if self._stopped:
            return
        me = self.process_id
        send = self.runtime.send
        for receiver in sorted(set(receivers), key=repr):
            if receiver != me:
                send(me, receiver, payload)

    def on(self, payload_type: type, handler: Callable[[ProcessId, Any], None]) -> None:
        """Register ``handler(sender, payload)`` for payloads of ``payload_type``."""
        self._handlers[payload_type] = handler

    def receive(self, envelope: Envelope) -> None:
        """Entry point called by the runtime when a message is delivered."""
        if self._stopped:
            return
        handler = self._handlers.get(type(envelope.payload))
        if handler is None:
            self.on_unhandled(envelope)
            return
        handler(envelope.sender, envelope.payload)

    def on_unhandled(self, envelope: Envelope) -> None:
        """Hook for payloads without a registered handler (default: ignore)."""

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def after(self, delay: float, callback: Callable[[], None]) -> "TimerHandle":
        """Run ``callback`` once, ``delay`` time units from now.

        Fired handles are pruned from the process's timer registry, so
        long-lived processes scheduling many one-shots (PBFT view timers,
        re-requests) do not accumulate dead handles.
        """
        handle: "TimerHandle"

        def guarded() -> None:
            self._timers.discard(handle)
            if not self._stopped:
                callback()

        handle = self.runtime.schedule(delay, guarded)
        self._timers.add(handle)
        return handle

    def every(self, period: float, callback: Callable[[], None]) -> PeriodicTimer:
        """Run ``callback`` every ``period`` time units until cancelled.

        Returns a :class:`PeriodicTimer`; cancelling it stops the ticks for
        good (:meth:`stop` cancels every outstanding timer as before).
        """
        if period <= 0:
            raise ValueError("period must be positive")
        timer = PeriodicTimer(self, period, callback)
        self._timers.add(timer)
        return timer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.process_id!r})"
