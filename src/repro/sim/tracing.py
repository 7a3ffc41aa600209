"""Tracing and statistics for simulation runs.

The experiment harness reports, for every run, the message complexity
(total messages, messages per payload type), the virtual time of every
decision, and whether the consensus properties held.  The
:class:`SimulationTrace` collects the raw material for those reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.messages import Envelope


@dataclass
class SimulationTrace:
    """Accumulates network and protocol events during a run."""

    record_messages: bool = False
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    sent_by_kind: Counter = field(default_factory=Counter)
    #: Per-rule tallies of messages withheld/delayed by named scheduling
    #: rules (the declarative fault-schedule path of the network).
    dropped_by_rule: Counter = field(default_factory=Counter)
    delayed_by_rule: Counter = field(default_factory=Counter)
    decisions: dict[ProcessId, tuple[Any, float]] = field(default_factory=dict)
    #: Every decision reported, per process: Integrity holds while no
    #: correct process has more than one.
    decision_counts: Counter = field(default_factory=Counter)
    sink_returns: dict[ProcessId, tuple[frozenset[ProcessId], float]] = field(default_factory=dict)
    events: list[tuple[float, str]] = field(default_factory=list)
    message_log: list[Envelope] = field(default_factory=list)

    # ------------------------------------------------------------------
    # network hooks
    # ------------------------------------------------------------------
    def on_send(self, envelope: Envelope) -> None:
        self.messages_sent += 1
        self.sent_by_kind[envelope.kind] += 1
        if self.record_messages:
            self.message_log.append(envelope)

    def on_deliver(self, envelope: Envelope) -> None:
        self.messages_delivered += 1

    def on_drop(self, envelope: Envelope, reason: str, time: float | None = None) -> None:
        """Count a dropped message; ``time`` is the drop instant when the
        message was dropped at delivery rather than at send time."""
        self.messages_dropped += 1
        if self.record_messages:
            stamp = envelope.sent_at if time is None else time
            self.events.append((stamp, f"drop ({reason}): {envelope.describe()}"))

    def on_rule_drop(self, envelope: Envelope, rule: str) -> None:
        """A named scheduling rule withheld the message forever."""
        self.dropped_by_rule[rule] += 1
        self.on_drop(envelope, f"withheld by rule {rule!r}")

    def on_rule_delay(self, envelope: Envelope, rule: str, delay: float) -> None:
        """A named scheduling rule overrode the synchrony model's delay."""
        self.delayed_by_rule[rule] += 1
        if self.record_messages:
            self.events.append(
                (envelope.sent_at, f"delay (rule {rule!r}, {delay:g}): {envelope.describe()}")
            )

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def on_decision(self, process: ProcessId, value: Any, time: float) -> None:
        """Count a decision of ``process`` and record its first one."""
        self.decision_counts[process] += 1
        if process not in self.decisions:
            self.decisions[process] = (value, time)

    def on_sink_identified(self, process: ProcessId, members: frozenset[ProcessId], time: float) -> None:
        """Record the sink/core returned by ``process``."""
        if process not in self.sink_returns:
            self.sink_returns[process] = (members, time)
