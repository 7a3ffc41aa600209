"""The discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a queue of entries, each a
callback due at a virtual time.  Entries run in ``(time, insertion order)``
order, so execution is fully deterministic.  The engine knows nothing about
processes or networks -- it only runs callbacks in time order -- which keeps
it reusable for the protocol stack, the PBFT substrate and the baselines
alike.

The queue is one FIFO bucket per distinct instant (a dict from time to a
list of entries) plus a heap of those instants.  Entries of one instant run
in insertion order, which is exactly ``(time, sequence number)`` order: the
sequence number is global insertion order, so among equal times it *is* the
order of appends.  A handler that schedules at ``now`` appends to the bucket
being drained, where a fresh sequence number would also have put it.  Under
partial synchrony a message sent before GST that would arrive later than
``GST + delta`` is delivered at exactly that instant, so a large run puts a
big share of its deliveries into one bucket, and the heap only ever
compares distinct floats.

A bucket stores each entry as two consecutive items, ``fn, arg`` (no
tuple per entry: a large run holds ~10^5 pending deliveries).  Two kinds of
entry share a bucket:

* a timer, ``None, event``: :meth:`Simulator.schedule` returns the queued
  :class:`_ScheduledEvent` itself as the cancellable handle;
* an uncancellable call, ``fn, arg`` from :meth:`Simulator.call_at`, which
  runs ``fn(arg)`` (network deliveries: one per message, no handle).

:meth:`Simulator.step` executes one entry per call, so stop predicates,
event budgets and the processed-event count see every entry on its own.
It overwrites both slots of the entry it consumes with ``None``, and a
timer drops its callback when it leaves the queue, so nothing the queue
has finished with is kept alive by it.
"""

from __future__ import annotations

import gc
import heapq
import operator
from collections.abc import Callable
from typing import Any


class _ScheduledEvent:
    """A queued timer, which is also the handle :meth:`Simulator.schedule` returns."""

    __slots__ = ("time", "callback", "cancelled", "_simulator")

    def __init__(self, time: float, callback: Callable[[], None], simulator: "Simulator") -> None:
        #: The virtual time at which the event is scheduled.
        self.time = time
        #: ``None`` once the event is cancelled or has left the queue (run or
        #: discarded past the horizon).  Dropping it breaks the reference
        #: cycle between a timer and a callback that holds the timer's handle
        #: (``Process.after``'s closure, ``PeriodicTimer._tick``), so a run
        #: leaves no cyclic garbage; it also makes a late ``cancel()`` a no-op.
        self.callback: Callable[[], None] | None = callback
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Cancel the event (no-op if it already left the queue)."""
        if self.callback is None:
            return
        self.callback = None
        self.cancelled = True
        self._simulator._on_cancelled()


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Parameters
    ----------
    max_time:
        Hard limit on the virtual clock; :meth:`run` stops when it is
        reached.  This is the
        simulation horizon: protocols that have not terminated by then are
        reported as non-terminating, which is how the impossibility
        experiments detect stalls.
    max_events:
        Hard limit on the number of processed events (guards against
        livelock in buggy protocols or adversarial schedules).
    """

    #: Queues shorter than this are never compacted (rebuilding a tiny queue
    #: costs more than carrying its dead entries).  The value only trades
    #: memory against queue traffic -- trajectories are identical for every
    #: value, which ``tests/sim/test_engine.py`` pins.
    COMPACTION_MIN_QUEUE = 64

    def __init__(self, max_time: float = 1_000_000.0, max_events: int = 5_000_000) -> None:
        self.max_time = max_time
        self.max_events = max_events
        #: The clock starts inside an empty bucket at t=0.  The bucket being
        #: drained stays in ``_buckets`` (so same-instant schedules append to
        #: it) but not in ``_instants``, which holds every other bucket's time.
        self._bucket: list[Any] = []
        self._bucket_time = 0.0
        self._cursor = 0
        self._buckets: dict[float, list[Any]] = {0.0: self._bucket}
        self._instants: list[float] = []
        self._now = 0.0
        self._processed_events = 0
        self._cancelled_in_queue = 0
        self._compactions = 0
        #: Live (non-cancelled) entries not yet popped: +1 per schedule /
        #: call_at, -1 per cancel, execution or horizon discard.  This *is*
        #: :meth:`pending_events`.
        self._live = 0
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
        """Number of entries executed so far."""
        return self._processed_events

    @property
    def pending_peak(self) -> int:
        """High-water mark of :meth:`pending_events` over the run."""
        return self._pending_peak

    def schedule(self, delay: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if not delay >= 0.0:  # also catches NaN, which ``delay < 0`` lets through
            raise ValueError(f"delay must be a non-negative number, got {delay!r}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` to run at absolute virtual time ``time``."""
        if not time >= self._now:  # also catches NaN
            raise ValueError(f"cannot schedule at {time!r}: not a time at or after now ({self._now})")
        event = _ScheduledEvent(time, callback, self)
        self._enqueue(time, None, event)
        return event

    def call_at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute virtual time ``time``; cannot be cancelled."""
        if not time >= self._now:  # also catches NaN
            raise ValueError(f"cannot schedule at {time!r}: not a time at or after now ({self._now})")
        self._enqueue(time, fn, arg)

    def _enqueue(self, time: float, fn: Callable[[Any], None] | None, arg: Any) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            if time < self._bucket_time:
                # The clock lags the bucket being drained when that bucket's
                # entries were discarded past the horizon or all cancelled.
                # The new instant comes first, so the rest of that bucket goes
                # back on the heap.
                del self._bucket[: self._cursor]
                heapq.heappush(self._instants, self._bucket_time)
                self._bucket, self._bucket_time, self._cursor = bucket, time, 0
            else:
                heapq.heappush(self._instants, time)
        bucket.append(fn)
        bucket.append(arg)
        live = self._live = self._live + 1
        if live > self._pending_peak:
            self._pending_peak = live

    # ------------------------------------------------------------------
    # cancelled-event bookkeeping
    # ------------------------------------------------------------------
    def _on_cancelled(self) -> None:
        """Account for a cancellation and compact the queue when it is mostly dead.

        Long adversarial runs cancel many timers (view changes, discovery
        re-requests); without compaction those dead entries stay queued
        until their virtual deadline, inflating both memory and the heap.
        Once at least half the queued entries are cancelled, every bucket
        but the one being drained is rebuilt with its live entries only and
        emptied buckets are dropped, which is amortised O(1) per
        cancellation.
        """
        cancelled = self._cancelled_in_queue = self._cancelled_in_queue + 1
        self._live -= 1
        queued = self._live + cancelled
        if queued < self.COMPACTION_MIN_QUEUE or 2 * cancelled < queued:
            return
        current = self._bucket
        buckets: dict[float, list[Any]] = {}
        for time, bucket in self._buckets.items():
            if bucket is not current:
                kept = []
                for fn, arg in zip(bucket[::2], bucket[1::2], strict=True):
                    if fn is not None or not arg.cancelled:
                        kept.append(fn)
                        kept.append(arg)
                if not kept:
                    continue
                bucket = kept
            buckets[time] = bucket
        self._buckets = buckets
        self._instants = [time for time, bucket in buckets.items() if bucket is not current]
        heapq.heapify(self._instants)
        tail = current[self._cursor :]
        self._cancelled_in_queue = sum(
            fn is None and arg.cancelled for fn, arg in zip(tail[::2], tail[1::2], strict=True)
        )
        self._compactions += 1

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed (for tests and diagnostics)."""
        return self._compactions

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending entry.  Returns ``False`` when none is left.

        Past the horizon each call discards one entry and returns ``False``.
        """
        bucket = self._bucket
        while True:
            cursor = self._cursor
            if cursor == len(bucket):
                if not self._instants:
                    return False
                del self._buckets[self._bucket_time]
                time = self._bucket_time = heapq.heappop(self._instants)
                bucket = self._bucket = self._buckets[time]
                self._cursor = 0
                continue
            fn = bucket[cursor]
            arg = bucket[cursor + 1]
            # Release the consumed slots: a bucket can hold ~10^5 entries, and
            # its drained part would otherwise keep every delivered envelope
            # alive until the whole bucket is done.
            bucket[cursor] = bucket[cursor + 1] = None
            self._cursor = cursor + 2
            if fn is None:  # a timer: ``arg`` is its _ScheduledEvent
                callback = arg.callback
                if callback is None:  # cancelled while queued
                    self._cancelled_in_queue -= 1
                    continue
                arg.callback = None
                fn, arg = operator.call, callback
            self._live -= 1
            time = self._bucket_time
            if time > self.max_time:
                return False
            self._now = time
            self._processed_events += 1
            fn(arg)
            return True

    def run(self, until: Callable[[], bool] | None = None) -> bool:
        """Run events until ``until()`` is true, the queue drains, or a limit hits.

        Returns ``True`` when ``until`` became true (or the queue drained
        with no predicate given), ``False`` when a limit -- the horizon or
        the event budget -- was reached first.

        The cyclic garbage collector is paused for the run and restored on
        every exit: a run creates no reference cycles, so a collection inside
        it would only walk the heap and free nothing.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if until is not None and until():
                    return True
                if self._processed_events >= self.max_events:
                    return False
                live = self._live
                if not self.step():
                    # The queue drained, or (one live entry fewer) an entry
                    # past the horizon was discarded.
                    return self._live == live and (until is None or until())
        finally:
            if collecting:
                gc.enable()

    def pending_events(self) -> int:
        """Number of live (non-cancelled) entries still queued."""
        return self._live
