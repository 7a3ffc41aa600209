"""The discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a priority queue of events.
Each event is a callback scheduled at a virtual time; ties are broken by a
monotonically increasing sequence number so execution is fully
deterministic.  The engine knows nothing about processes or networks -- it
only runs callbacks in time order -- which keeps it reusable for the
protocol stack, the PBFT substrate and the baselines alike.

Two representations share the heap, both stored as ``(time, sequence,
item)`` tuples so comparisons never touch the payload:

* :class:`_ScheduledEvent` -- one callback, the general case;
* :class:`_EventBatch` -- many payloads delivered through one shared
  callable at one instant (same-tick network deliveries).  A batch occupies
  a single heap entry no matter how many payloads it carries, which is the
  engine-side half of scaling broadcast-heavy runs to large graphs: a
  10k-node broadcast is one heap push instead of 10k.

Batches preserve execution order *exactly*.  A payload may only be appended
to a batch while the batch's *fence* holds -- no event has been scheduled
since the batch was created -- which guarantees no other event can exist at
the batch's instant with a later sequence number, so the appended payload
runs precisely where a per-payload event would have.  :meth:`Simulator.step`
still executes one payload per call, so stop-predicates, event budgets and
the processed-event count behave identically to the unbatched engine.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any


class SimulationLimitExceeded(RuntimeError):
    """Raised when a run exceeds its configured time or event budget."""


class _ScheduledEvent:
    """A single scheduled callback (heap payload; ordering lives in the tuple)."""

    __slots__ = ("time", "callback", "cancelled", "done")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: Set once the event has been popped from the queue (executed or
        #: discarded), so late ``cancel()`` calls do not skew the counter of
        #: cancelled-but-still-queued events.
        self.done = False


class _EventBatch:
    """Many same-instant payloads behind one heap entry.

    ``fn`` is invoked once per payload, one payload per :meth:`Simulator.step`
    call.  ``fence`` snapshots the simulator's sequence counter at creation:
    appends are only legal while the counter is unchanged (see module
    docstring), and ``closed`` is set once the last payload ran so a batch
    that left the queue can never silently swallow a new payload.
    """

    __slots__ = ("time", "fn", "items", "next_index", "fence", "closed")

    def __init__(self, time: float, fn: Callable[[Any], None], first_item: Any, fence: int) -> None:
        self.time = time
        self.fn = fn
        self.items = [first_item]
        self.next_index = 0
        self.fence = fence
        self.closed = False


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, allowing cancellation."""

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _ScheduledEvent, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the event (no-op if it already ran)."""
        event = self._event
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._simulator._on_cancelled()

    @property
    def time(self) -> float:
        """The virtual time at which the event is scheduled."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Parameters
    ----------
    max_time:
        Hard limit on the virtual clock; :meth:`run` stops (or raises,
        depending on ``raise_on_limit``) when it is reached.  This is the
        simulation horizon: protocols that have not terminated by then are
        reported as non-terminating, which is how the impossibility
        experiments detect stalls.
    max_events:
        Hard limit on the number of processed events (guards against
        livelock in buggy protocols or adversarial schedules).
    """

    #: Queues shorter than this are never compacted (rebuilding a tiny heap
    #: costs more than carrying its dead entries).  The value only trades
    #: memory against heap traffic -- trajectories are identical for every
    #: value, which ``tests/sim/test_engine.py`` pins.
    COMPACTION_MIN_QUEUE = 64

    def __init__(self, max_time: float = 1_000_000.0, max_events: int = 5_000_000) -> None:
        self.max_time = max_time
        self.max_events = max_events
        self._queue: list[tuple[float, int, _ScheduledEvent | _EventBatch]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed_events = 0
        self._stopped = False
        self._cancelled_in_queue = 0
        self._compactions = 0
        #: Live (non-cancelled) events and batch payloads not yet popped:
        #: +1 per schedule / batch append, -1 per cancel, execution or
        #: horizon discard.  This *is* :meth:`pending_events`.
        self._live = 0
        self._active_batch: _EventBatch | None = None
        self._pending_peak = 0

    # ------------------------------------------------------------------
    # clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (batch payloads count one each)."""
        return self._processed_events

    @property
    def pending_peak(self) -> int:
        """High-water mark of :meth:`pending_events` over the run."""
        return self._pending_peak

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` to run at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        del label  # accepted for the Runtime seam; the engine keeps no labels
        event = _ScheduledEvent(time, callback)
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, event))
        live = self._live = self._live + 1
        if live > self._pending_peak:
            self._pending_peak = live
        return EventHandle(event, self)

    def schedule_batch_at(self, time: float, fn: Callable[[Any], None], first_item: Any) -> _EventBatch:
        """Open a new batch at ``time`` seeded with ``first_item``.

        Further payloads join via :meth:`try_append_to_batch` while the
        batch's fence holds.  Batches cannot be cancelled (network
        deliveries never are).
        """
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        sequence = self._sequence = self._sequence + 1
        batch = _EventBatch(time, fn, first_item, sequence)
        heapq.heappush(self._queue, (time, sequence, batch))
        live = self._live = self._live + 1
        if live > self._pending_peak:
            self._pending_peak = live
        return batch

    def try_append_to_batch(self, batch: _EventBatch, item: Any) -> bool:
        """Append ``item`` to ``batch`` iff execution order is provably preserved.

        Succeeds only while nothing has been scheduled since the batch was
        created (``fence`` intact) and the batch has not finished draining.
        Under the fence no event can exist at the batch's instant with a
        later sequence number, so the appended payload runs exactly where a
        freshly scheduled per-payload event would have run.  Appends do not
        advance the sequence counter -- they create no heap entry -- so a
        run of same-instant deliveries keeps one fence alive.
        """
        if batch.closed or batch.fence != self._sequence:
            return False
        batch.items.append(item)
        live = self._live = self._live + 1
        if live > self._pending_peak:
            self._pending_peak = live
        return True

    def stop(self) -> None:
        """Stop the run after the current event finishes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _on_cancelled(self) -> None:
        """Account for a cancellation and compact the heap when it is mostly dead.

        Long adversarial runs cancel many timers (view changes, discovery
        re-requests); without compaction those dead entries stay in the heap
        until their virtual deadline, inflating both memory and the cost of
        every push/pop.  Once more than half the queue is cancelled the live
        events are rebuilt into a fresh heap, which is amortised O(1) per
        cancellation.
        """
        self._cancelled_in_queue += 1
        self._live -= 1
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and 2 * self._cancelled_in_queue >= len(self._queue)
        ):
            for _, _, item in self._queue:
                if type(item) is _ScheduledEvent and item.cancelled:
                    item.done = True
            self._queue = [
                entry
                for entry in self._queue
                if type(entry[2]) is _EventBatch or not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0
            self._compactions += 1

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (for tests and diagnostics)."""
        return self._compactions

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` when none is left.

        One batch payload counts as one event: an active batch is drained
        across as many ``step()`` calls as it has payloads, so callers that
        interleave checks between events (stop predicates, budgets) observe
        the exact behaviour of the unbatched engine.
        """
        batch = self._active_batch
        if batch is not None:
            return self._step_batch_item(batch)
        while self._queue:
            time, _, item = heapq.heappop(self._queue)
            if type(item) is _EventBatch:
                self._active_batch = item
                return self._step_batch_item(item)
            item.done = True
            if item.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._live -= 1
            if time > self.max_time:
                return False
            self._now = time
            self._processed_events += 1
            item.callback()
            return True
        return False

    def _step_batch_item(self, batch: _EventBatch) -> bool:
        if batch.time > self.max_time:
            # Mirror the unbatched engine: each step discards exactly one
            # overdue delivery and reports the horizon.
            batch.next_index += 1
            self._live -= 1
            if batch.next_index >= len(batch.items):
                batch.closed = True
                self._active_batch = None
            return False
        item = batch.items[batch.next_index]
        batch.next_index += 1
        self._live -= 1
        self._now = batch.time
        self._processed_events += 1
        batch.fn(item)
        # Checked after fn(): a handler may legally append to this batch
        # while the fence still holds, re-opening the tail.
        if batch.next_index >= len(batch.items):
            batch.closed = True
            self._active_batch = None
        return True

    def run(
        self,
        until: Callable[[], bool] | None = None,
        *,
        raise_on_limit: bool = False,
    ) -> bool:
        """Run events until ``until()`` is true, the queue drains, or a limit hits.

        Returns ``True`` when ``until`` became true (or the queue drained
        with no predicate given), ``False`` when a limit was reached first.
        """
        self._stopped = False
        while True:
            if until is not None and until():
                return True
            if self._stopped:
                return until() if until is not None else True
            if self._processed_events >= self.max_events:
                if raise_on_limit:
                    raise SimulationLimitExceeded(
                        f"event budget exhausted ({self.max_events} events)"
                    )
                return False
            if not self.step():
                # Queue drained or horizon reached.
                if until is None:
                    return True
                satisfied = until()
                if not satisfied and raise_on_limit:
                    raise SimulationLimitExceeded(
                        f"virtual-time horizon reached at t={self._now} without satisfying the predicate"
                    )
                return satisfied

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued, batch payloads one each."""
        return self._live
