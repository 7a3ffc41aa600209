"""Message envelopes exchanged through the simulated network.

Protocol payloads are ordinary Python objects (dataclasses defined by each
protocol module); the transport wraps them in an :class:`Envelope` carrying
the sender, the receiver and the bookkeeping the tracing subsystem reads.
The sender is stamped by the transport, never by the caller: that *is* the
authenticated-channel assumption, so there is no separate "claimed sender"
to check.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.knowledge_graph import ProcessId


class Envelope:
    """A message in flight between two processes (a value: never mutated).

    A plain slotted class, not a dataclass: one is built per message, and
    the generated frozen ``__init__`` costs three times this one.
    """

    __slots__ = ("sender", "receiver", "payload", "sent_at", "kind")

    def __init__(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, sent_at: float, kind: str = ""
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.sent_at = sent_at
        self.kind = kind

    def _fields(self) -> tuple[Any, ...]:
        return (self.sender, self.receiver, self.payload, self.sent_at, self.kind)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is Envelope else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields(), strict=True)
        return f"Envelope({', '.join(f'{name}={value!r}' for name, value in fields)})"

    def describe(self) -> str:
        """Short human-readable description (used in traces and debugging)."""
        kind = self.kind or type(self.payload).__name__
        return f"{self.sender!r} -> {self.receiver!r}: {kind}"


def payload_kind(payload: Any) -> str:
    """Return a stable short name for a payload (its class name)."""
    return type(payload).__name__
