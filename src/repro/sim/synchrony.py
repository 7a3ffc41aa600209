"""Synchrony models: the timing assumptions of the system model.

The paper's system model (Section II-A) assumes *partial synchrony*: for
every execution there exist a global stabilisation time (GST) and a bound
``delta`` such that messages between correct processes sent after GST are
delivered within ``delta``; before GST delays are arbitrary (but finite).

:class:`PartialSynchronyModel` implements exactly that contract.  Two
variants are provided for the Table I experiment:

* :class:`SynchronousModel` -- every message (from a correct sender) is
  delivered within ``delta`` from the start of the execution (GST = 0).
* :class:`AsynchronousModel` -- there is no GST: an adversarial scheduler
  may delay any message arbitrarily.  The simulator models "arbitrarily"
  as "beyond the simulation horizon" for a configurable fraction of
  messages, which is how the FLP-style ✗ cells of Table I manifest as
  non-termination within the horizon.

The models are pure strategy objects — a delay distribution consulted per
message — with no knowledge of the transport.  They are shared vocabulary:
scenario builders, analyses and the live runtime all name them, and only
:class:`repro.sim.network.Network` (plus the live transport's shaping
layer) actually calls :meth:`SynchronyModel.delay`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.knowledge_graph import ProcessId


class SynchronyModel:
    """Strategy object deciding the delivery delay of each message."""

    def delay(
        self,
        *,
        now: float,
        sender: ProcessId,
        receiver: ProcessId,
        sender_correct: bool,
        receiver_correct: bool,
        rng: random.Random,
    ) -> float | None:
        """Return the delivery delay, or ``None`` to withhold the message forever."""
        raise NotImplementedError


@dataclass
class SynchronousModel(SynchronyModel):
    """Synchronous system: every message is delivered within ``delta``."""

    delta: float = 1.0
    minimum_delay: float = 0.1

    def delay(self, *, now, sender, receiver, sender_correct, receiver_correct, rng):  # noqa: D102
        del now, sender, receiver, sender_correct, receiver_correct
        return self.minimum_delay + rng.random() * (self.delta - self.minimum_delay)


@dataclass
class PartialSynchronyModel(SynchronyModel):
    """Partially synchronous system with a GST and a post-GST bound ``delta``.

    Before GST, messages between correct processes are delayed by a value
    drawn from ``[minimum_delay, pre_gst_max_delay]``, but never beyond
    ``GST + delta`` (the classical presentation: every message sent before
    GST is delivered by ``GST + delta``).  After GST, delays fall in
    ``[minimum_delay, delta]``.
    """

    gst: float = 50.0
    delta: float = 1.0
    minimum_delay: float = 0.1
    pre_gst_max_delay: float = 200.0

    def delay(self, *, now, sender, receiver, sender_correct, receiver_correct, rng):  # noqa: D102
        del sender, receiver, sender_correct, receiver_correct
        # Comparisons instead of builtin min()/max(): one call per message
        # adds up, and each branch picks the operand min()/max() would.
        minimum = self.minimum_delay
        if now >= self.gst:
            span = self.delta - minimum
            return minimum + rng.random() * (0.0 if span < 0.0 else span)
        span = self.pre_gst_max_delay - minimum
        deliver_at = now + (minimum + rng.random() * (0.0 if span < 0.0 else span))
        latest = self.gst + self.delta
        delay = (latest if latest < deliver_at else deliver_at) - now
        return minimum if minimum > delay else delay


@dataclass
class AsynchronousModel(SynchronyModel):
    """Asynchronous system: no GST; some messages can be delayed unboundedly.

    ``starvation_probability`` is the chance that a given message is delayed
    past the simulation horizon (modelling the adversarial scheduler that
    FLP-style impossibility arguments rely on); ``targeted_links`` can pin
    the starvation to specific (sender, receiver) pairs, which the Table I
    experiment uses to starve exactly the messages whose loss prevents
    termination.
    """

    delta: float = 1.0
    minimum_delay: float = 0.1
    starvation_probability: float = 0.05
    horizon: float = 1_000_000.0
    targeted_links: frozenset[tuple[ProcessId, ProcessId]] = frozenset()

    def delay(self, *, now, sender, receiver, sender_correct, receiver_correct, rng):  # noqa: D102
        del now, sender_correct, receiver_correct
        if (sender, receiver) in self.targeted_links:
            return None
        if self.starvation_probability > 0 and rng.random() < self.starvation_probability:
            return None
        return self.minimum_delay + rng.random() * max(self.delta - self.minimum_delay, 0.0)


__all__ = [
    "AsynchronousModel",
    "PartialSynchronyModel",
    "SynchronousModel",
    "SynchronyModel",
]
