"""Tests for the discrete-event simulation engine."""

import gc
import heapq
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(3.0, lambda: order.append("middle"))
        simulator.run()
        assert order == ["early", "middle", "late"]

    def test_ties_broken_by_insertion_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(2.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [2.5]
        assert simulator.now == 2.5

    def test_nested_scheduling(self):
        simulator = Simulator()
        seen = []

        def outer():
            simulator.schedule(1.0, lambda: seen.append(simulator.now))

        simulator.schedule(1.0, outer)
        simulator.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule_at(1.0, lambda: None)

    def test_nan_delay_rejected(self):
        """NaN compares false with everything, so ``delay < 0`` let it in."""
        simulator = Simulator()
        order = []
        with pytest.raises(ValueError, match="non-negative"):
            simulator.schedule(float("nan"), lambda: order.append("nan"))
        simulator.schedule(1.0, lambda: order.append("one"))
        simulator.schedule(0.5, lambda: order.append("half"))
        simulator.run()
        assert order == ["half", "one"]

    @pytest.mark.parametrize("entry_point", ["schedule_at", "call_at"])
    def test_nan_time_rejected(self, entry_point):
        simulator = Simulator()
        with pytest.raises(ValueError, match="nan"):
            if entry_point == "schedule_at":
                simulator.schedule_at(float("nan"), lambda: None)
            else:
                simulator.call_at(float("nan"), print, "x")
        assert simulator.pending_events() == 0

    def test_one_instant_runs_in_insertion_order(self):
        """Timers and calls at one instant share a FIFO bucket; a zero-delay
        schedule from a handler goes after everything already queued at now."""
        simulator = Simulator()
        seen = []

        def first():
            seen.append("first")
            simulator.schedule(0.0, lambda: seen.append("from-handler"))

        simulator.schedule_at(1.0, first)
        simulator.call_at(1.0, seen.append, "call")
        simulator.schedule_at(0.5, lambda: seen.append("earlier"))
        simulator.schedule_at(1.0, lambda: seen.append("last-queued"))
        simulator.run()
        assert seen == ["earlier", "first", "call", "last-queued", "from-handler"]
        assert simulator.processed_events == 5

    def test_cancellation(self):
        simulator = Simulator()
        seen = []
        handle = simulator.schedule(1.0, lambda: seen.append("cancelled"))
        simulator.schedule(2.0, lambda: seen.append("kept"))
        handle.cancel()
        simulator.run()
        assert seen == ["kept"]
        assert handle.cancelled


class TestRunControl:
    def test_run_until_predicate(self):
        simulator = Simulator()
        counter = []
        for delay in range(1, 10):
            simulator.schedule(float(delay), lambda: counter.append(1))
        satisfied = simulator.run(until=lambda: len(counter) >= 3)
        assert satisfied
        assert len(counter) == 3

    def test_run_drains_queue_without_predicate(self):
        simulator = Simulator(max_time=10.0)
        counter = []
        simulator.schedule(1.0, lambda: counter.append(1))
        simulator.schedule(50.0, lambda: counter.append(50)).cancel()  # past the horizon, but dead
        assert simulator.run()
        assert counter == [1]

    @pytest.mark.parametrize("with_predicate", [True, False])
    def test_horizon_stops_the_run(self, with_predicate):
        simulator = Simulator(max_time=10.0)
        seen = []
        simulator.schedule(5.0, lambda: seen.append("in"))
        simulator.schedule(50.0, lambda: seen.append("out"))
        satisfied = simulator.run(until=(lambda: "out" in seen) if with_predicate else None)
        assert not satisfied
        assert seen == ["in"]

    @pytest.mark.parametrize("collector_on", [True, False])
    @pytest.mark.parametrize("exit_path", ["predicate", "drain", "horizon", "budget", "raise", "nested"])
    def test_run_pauses_the_collector_and_restores_it(self, exit_path, collector_on):
        """Callbacks run with the collector off; every exit puts back the caller's state."""
        simulator = Simulator(max_time=10.0, max_events=3)
        states = []

        def record():
            states.append(gc.isenabled())

        def fail():
            record()
            raise RuntimeError("callback failed")

        def nested():
            inner = Simulator()
            inner.schedule(1.0, record)
            inner.run()
            record()

        delays = {"horizon": (1.0, 50.0), "budget": (1.0, 2.0, 3.0, 4.0)}.get(exit_path, (1.0, 2.0))
        for delay in delays:
            simulator.schedule(delay, {"raise": fail, "nested": nested}.get(exit_path, record))
        until = {"predicate": lambda: len(states) == 1, "budget": lambda: False}.get(exit_path)
        was_on = gc.isenabled()
        (gc.enable if collector_on else gc.disable)()
        try:
            if exit_path == "raise":
                with pytest.raises(RuntimeError, match="callback failed"):
                    simulator.run(until)
            else:
                satisfied = simulator.run(until)
                assert satisfied == (exit_path in ("predicate", "drain", "nested"))
            assert gc.isenabled() is collector_on
        finally:
            (gc.enable if was_on else gc.disable)()
        assert states and not any(states)

    def test_past_horizon_each_step_discards_one_entry(self):
        simulator = Simulator(max_time=5.0)
        seen = []
        for item in ("a", "b", "c"):
            simulator.call_at(10.0, seen.append, item)
        for pending in (2, 1, 0):
            assert not simulator.step()
            assert simulator.pending_events() == pending
        assert seen == []
        assert simulator.now == 0.0
        assert simulator.processed_events == 0

    def test_event_budget(self):
        simulator = Simulator(max_events=5)

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(1.0, reschedule)
        satisfied = simulator.run(until=lambda: False)
        assert not satisfied
        assert simulator.processed_events == 5

    def test_event_budget_pauses_and_a_larger_budget_resumes(self):
        # Hitting the budget is a return value, not an error: the queue is
        # left as it was, so raising the budget continues the same run.
        simulator = Simulator(max_events=5)

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(1.0, reschedule)
        assert not simulator.run(until=lambda: False)
        assert simulator.now == 5.0
        assert simulator.pending_events() == 1
        simulator.max_events = 8
        assert not simulator.run(until=lambda: False)
        assert simulator.processed_events == 8
        assert simulator.now == 8.0

    def test_predicate_set_by_a_handler_stops_before_the_next_event(self):
        # The predicate is checked between events, even within one instant,
        # so a handler ends the run by making it true.
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, lambda: seen.append("first"))
        simulator.schedule(1.0, lambda: seen.append("second"))
        assert simulator.run(until=lambda: "first" in seen)
        assert seen == ["first"]
        assert simulator.pending_events() == 1

    def test_pending_events_counts_uncancelled(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        handle.cancel()
        assert simulator.pending_events() == 1


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # More than half the queue was dead: the buckets must have been
        # rebuilt with only the live events.
        assert simulator.compactions >= 1
        assert simulator.pending_events() == 50
        assert len(queued_entries(simulator)) == 50

    def test_small_queues_are_not_compacted(self):
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert simulator.compactions == 0
        assert simulator.pending_events() == 0
        assert len(queued_entries(simulator)) == 10

    def test_compaction_preserves_execution_order(self):
        simulator = Simulator()
        seen = []
        keep = []
        cancel = []
        for i in range(200):
            delay = float(i + 1)
            if i % 4 == 0:
                keep.append(delay)
                simulator.schedule(delay, lambda d=delay: seen.append(d))
            else:
                cancel.append(simulator.schedule(delay, lambda: seen.append("dead")))
        for handle in cancel:
            handle.cancel()
        assert simulator.compactions >= 1
        simulator.run()
        assert seen == keep

    def test_double_cancel_does_not_skew_the_counter(self):
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles[:30]:
            handle.cancel()
            handle.cancel()  # idempotent
        assert simulator.pending_events() == 70

    def test_cancel_after_execution_is_a_noop(self):
        simulator = Simulator()
        seen = []
        handle = simulator.schedule(1.0, lambda: seen.append("ran"))
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        handle.cancel()
        assert seen == ["ran"]
        assert simulator.pending_events() == 0

    def test_cancellation_interleaved_with_execution(self):
        simulator = Simulator()
        seen = []
        late = [simulator.schedule(100.0 + i, lambda: seen.append("late")) for i in range(100)]

        def cancel_late():
            for handle in late:
                handle.cancel()
            seen.append("cancelled-late")

        simulator.schedule(1.0, cancel_late)
        simulator.run()
        assert seen == ["cancelled-late"]
        assert simulator.pending_events() == 0


class TestCompactionThreshold:
    def test_lower_threshold_compacts_smaller_queues(self, monkeypatch):
        monkeypatch.setattr(Simulator, "COMPACTION_MIN_QUEUE", 10)
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(20)]
        for handle in handles[:15]:
            handle.cancel()
        assert simulator.compactions >= 1
        assert simulator.pending_events() == 5

    def test_higher_threshold_suppresses_compaction(self, monkeypatch):
        monkeypatch.setattr(Simulator, "COMPACTION_MIN_QUEUE", 1_000)
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert simulator.compactions == 0
        assert simulator.pending_events() == 50

    def test_threshold_does_not_change_trajectories(self, monkeypatch):
        def trajectory(compaction_min_queue):
            monkeypatch.setattr(Simulator, "COMPACTION_MIN_QUEUE", compaction_min_queue)
            simulator = Simulator()
            seen = []
            cancel = []
            for i in range(300):
                delay = float(i % 7 + 1)
                if i % 3 == 0:
                    simulator.schedule(delay, lambda i=i: seen.append((simulator.now, i)))
                else:
                    cancel.append(simulator.schedule(delay, lambda: seen.append("dead")))

            def mass_cancel():
                for handle in cancel:
                    handle.cancel()

            simulator.schedule(0.5, mass_cancel)
            simulator.run()
            return seen, simulator.processed_events

        reference = trajectory(Simulator.COMPACTION_MIN_QUEUE)
        aggressive = trajectory(2)
        never = trajectory(10**9)
        assert aggressive == reference
        assert never == reference




def queued_entries(simulator):
    """Every entry not yet popped, cancelled or not, as ``(fn, arg)``: walk the buckets."""
    entries = []
    for bucket in simulator._buckets.values():
        start = simulator._cursor if bucket is simulator._bucket else 0
        entries.extend(zip(bucket[start::2], bucket[start + 1 :: 2], strict=True))
    return entries


def recount_pending(simulator):
    """Brute-force ``pending_events()``: a timer (``fn is None``) counts unless cancelled."""
    return sum(fn is not None or not arg.cancelled for fn, arg in queued_entries(simulator))


ENGINE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 8)),
        st.tuples(st.just("call_at"), st.integers(0, 8)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("step"), st.integers(1, 4)),
    ),
    max_size=120,
)


class TestLiveEventCount:
    @settings(max_examples=200, deadline=None)
    @given(ops=ENGINE_OPS)
    def test_pending_events_equals_a_recount_after_every_operation(self, ops):
        """The one incrementally kept integer never drifts from the queue.

        Random timers and calls, cancellations (with a compaction threshold
        low enough to compact constantly) and steps that execute, skip
        cancelled entries or discard events past the ``max_time=5`` horizon.
        """
        with mock.patch.object(Simulator, "COMPACTION_MIN_QUEUE", 4):
            simulator = Simulator(max_time=5.0)
            handles = []
            peak = 0
            for op, arg in ops:
                if op == "schedule":
                    handles.append(simulator.schedule(float(arg), lambda: None))
                elif op == "call_at":
                    simulator.call_at(simulator.now + arg, lambda item: None, "x")
                elif op == "cancel" and handles:
                    handles[arg % len(handles)].cancel()
                elif op == "step":
                    for _ in range(arg):
                        simulator.step()
                assert simulator.pending_events() == recount_pending(simulator)
                peak = max(peak, simulator.pending_events())
                assert simulator.pending_peak == peak
            simulator.max_time = float("inf")
            simulator.run()
            assert simulator.pending_events() == recount_pending(simulator) == 0


class ReferenceEvent:
    def __init__(self, engine, run):
        self.engine, self.run, self.state = engine, run, "queued"

    def cancel(self):
        if self.state == "queued":
            self.state = "cancelled"
            self.engine.live -= 1


class ReferenceEngine:
    """One ``(time, sequence)`` heap entry per event: the order the buckets must reproduce."""

    def __init__(self, max_time):
        self.max_time, self.now, self.heap, self.sequence = max_time, 0.0, [], 0
        self.processed_events = self.live = self.pending_peak = 0

    def call_at(self, time, fn, arg):
        self.sequence += 1
        event = ReferenceEvent(self, lambda: fn(arg))
        heapq.heappush(self.heap, (time, self.sequence, event))
        self.live += 1
        self.pending_peak = max(self.pending_peak, self.live)
        return event

    def schedule(self, delay, callback):
        return self.call_at(self.now + delay, lambda _: callback(), None)

    def pending_events(self):
        return self.live

    def step(self):
        while self.heap:
            time, _, event = heapq.heappop(self.heap)
            cancelled, event.state = event.state == "cancelled", "done"
            if cancelled:
                continue
            self.live -= 1
            if time > self.max_time:
                return False
            self.now = time
            self.processed_events += 1
            event.run()
            return True
        return False

    def run(self, until):
        while not until():
            if not self.step():
                return until()
        return True


def transcript(engine, ops, check=lambda engine, handles: None):
    """Apply ``ops`` to ``engine``; return everything an observer can see.

    ``check(engine, handles)`` runs after every operation.
    """
    seen, handles, results = [], [], []

    def handler(label, child):
        def run(_=None):
            seen.append((label, engine.now))
            if child is not None:
                enqueue(*child, f"{label}/child", None)

        return run

    def enqueue(kind, delay, label, child):
        if kind == "schedule":
            handles.append(engine.schedule(delay, handler(label, child)))
        else:
            engine.call_at(engine.now + delay, handler(label, child), label)

    for index, (op, arg, child) in enumerate(ops):
        if op in ("schedule", "call_at"):
            enqueue(op, arg, index, child)
        elif op == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif op == "step":
            results.append([engine.step() for _ in range(arg)])
        elif op == "run":
            target = len(seen) + arg
            results.append(engine.run(until=lambda: len(seen) >= target))
        results.append((engine.now, engine.processed_events, engine.pending_events(), engine.pending_peak))
        check(engine, handles)
    engine.max_time = float("inf")
    results.append(engine.run(until=lambda: False))
    results.append((engine.now, engine.processed_events, engine.pending_events(), engine.pending_peak))
    check(engine, handles)
    return seen, results


def assert_released(simulator, handles):
    """The queue keeps nothing it is done with.

    Every slot before the cursor of the bucket being drained is ``None``, and
    a timer holds its callback exactly while it is queued and not cancelled.
    """
    assert all(item is None for item in simulator._bucket[: simulator._cursor])
    queued = {id(arg) for fn, arg in queued_entries(simulator) if fn is None}
    for handle in handles:
        assert (handle.callback is not None) == (id(handle) in queued and not handle.cancelled)


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 6.0])
CHILDREN = st.none() | st.tuples(st.sampled_from(["schedule", "call_at"]), st.sampled_from([0.0, 0.0, 1.0]))
DIFFERENTIAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "call_at"]), DELAYS, CHILDREN),
        st.tuples(st.just("cancel"), st.integers(0, 200), st.none()),
        st.tuples(st.just("step"), st.integers(1, 4), st.none()),
        st.tuples(st.just("run"), st.integers(1, 6), st.none()),
    ),
    max_size=80,
)


#: An instant scheduled after a discard, before the rest of the bucket being
#: discarded: the clock lags that partly drained bucket, its consumed slots
#: are cut off, it goes back on the heap and the new instant runs first.
CLOCK_LAG_OPS = [("schedule", 6.0, None), ("call_at", 6.0, None), ("step", 1, None), ("schedule", 0.5, None)]
#: Two timers cancelled while the bucket at t=1 is partly drained: at a
#: threshold of 2 that compacts every other bucket and keeps the current one.
MID_BUCKET_COMPACTION_OPS = [
    ("schedule", 1.0, None),
    ("schedule", 1.0, None),
    ("schedule", 2.5, None),
    ("schedule", 2.5, None),
    ("step", 1, None),
    ("cancel", 2, None),
    ("cancel", 3, None),
]


class TestReferenceOrder:
    @pytest.mark.parametrize("compaction_min_queue", [2, 64, 10**9])
    @settings(max_examples=150, deadline=None)
    @given(ops=DIFFERENTIAL_OPS)
    @example(ops=CLOCK_LAG_OPS)
    @example(ops=MID_BUCKET_COMPACTION_OPS)
    def test_buckets_reproduce_the_sequence_heap(self, compaction_min_queue, ops):
        """Same execution order, clock, counters and peak as a ``(time, seq)`` heap.

        Timers, uncancellable calls, zero-delay schedules from inside
        handlers, cancellations, single steps, ``run(until=...)`` and
        discards past the ``max_time=5`` horizon (then a drain with the
        horizon lifted), at an always-, a default- and a never-compacting
        threshold.  After every operation the engine also holds nothing it
        is done with (:func:`assert_released`).
        """
        with mock.patch.object(Simulator, "COMPACTION_MIN_QUEUE", compaction_min_queue):
            simulated = transcript(Simulator(max_time=5.0), ops, assert_released)
            assert simulated == transcript(ReferenceEngine(5.0), ops)

    def test_the_examples_reach_the_rare_paths_mid_bucket(self):
        states = []

        def snapshot(simulator, handles):
            assert_released(simulator, handles)
            states.append((simulator._bucket_time, simulator._cursor, simulator.compactions))

        with mock.patch.object(Simulator, "COMPACTION_MIN_QUEUE", 2):
            transcript(Simulator(max_time=5.0), CLOCK_LAG_OPS, snapshot)
            # After the discard the t=6 bucket is half drained; the t=0.5
            # schedule then becomes the bucket being drained.
            assert states[2] == (6.0, 2, 0)
            assert states[3] == (0.5, 0, 0)
            states.clear()
            transcript(Simulator(max_time=5.0), MID_BUCKET_COMPACTION_OPS, snapshot)
            assert states[4] == (1.0, 2, 0)
            assert states[6] == (1.0, 2, 1)
