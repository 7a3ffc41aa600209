"""Tests for the discrete-event simulation engine."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationLimitExceeded, Simulator, _EventBatch


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
        simulator = Simulator()
        counter = []
        simulator.schedule(1.0, lambda: counter.append(1))
        assert simulator.run()
        assert counter == [1]

    def test_horizon_stops_the_run(self):
        simulator = Simulator(max_time=10.0)
        seen = []
        simulator.schedule(5.0, lambda: seen.append("in"))
        simulator.schedule(50.0, lambda: seen.append("out"))
        satisfied = simulator.run(until=lambda: "out" in seen)
        assert not satisfied
        assert seen == ["in"]

    def test_event_budget(self):
        simulator = Simulator(max_events=5)

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(1.0, reschedule)
        satisfied = simulator.run(until=lambda: False)
        assert not satisfied
        assert simulator.processed_events == 5

    def test_event_budget_can_raise(self):
        simulator = Simulator(max_events=3)

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(1.0, reschedule)
        with pytest.raises(SimulationLimitExceeded):
            simulator.run(until=lambda: False, raise_on_limit=True)

    def test_stop(self):
        simulator = Simulator()
        seen = []

        def first():
            seen.append("first")
            simulator.stop()

        simulator.schedule(1.0, first)
        simulator.schedule(2.0, lambda: seen.append("second"))
        simulator.run()
        assert seen == ["first"]

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
        # More than half the queue was dead: the heap must have been rebuilt
        # with only the live events.
        assert simulator.compactions >= 1
        assert simulator.pending_events() == 50
        assert len(simulator._queue) == 50

    def test_small_queues_are_not_compacted(self):
        simulator = Simulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert simulator.compactions == 0
        assert simulator.pending_events() == 0

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


class TestEventBatches:
    def test_payloads_run_in_append_order(self):
        simulator = Simulator()
        seen = []
        batch = simulator.schedule_batch_at(1.0, seen.append, "a")
        assert simulator.try_append_to_batch(batch, "b")
        assert simulator.try_append_to_batch(batch, "c")
        simulator.run()
        assert seen == ["a", "b", "c"]
        assert simulator.now == 1.0

    def test_batch_interleaves_with_events_by_sequence(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(1.0, lambda: seen.append("before"))
        batch = simulator.schedule_batch_at(1.0, seen.append, "p1")
        assert simulator.try_append_to_batch(batch, "p2")
        simulator.schedule_at(1.0, lambda: seen.append("after"))
        simulator.run()
        assert seen == ["before", "p1", "p2", "after"]

    def test_append_fails_once_fence_breaks(self):
        simulator = Simulator()
        batch = simulator.schedule_batch_at(1.0, lambda item: None, "a")
        simulator.schedule_at(2.0, lambda: None)
        assert not simulator.try_append_to_batch(batch, "b")

    def test_append_fails_on_drained_batch(self):
        simulator = Simulator()
        batch = simulator.schedule_batch_at(1.0, lambda item: None, "a")
        simulator.run()
        assert batch.closed
        assert not simulator.try_append_to_batch(batch, "b")

    def test_payloads_count_as_individual_events(self):
        simulator = Simulator()
        seen = []
        batch = simulator.schedule_batch_at(1.0, seen.append, "a")
        for item in ("b", "c"):
            assert simulator.try_append_to_batch(batch, item)
        satisfied = simulator.run(until=lambda: len(seen) >= 2)
        assert satisfied
        # The stop predicate runs between payloads, exactly as it would
        # between three separately scheduled events.
        assert seen == ["a", "b"]
        assert simulator.processed_events == 2

    def test_handler_may_extend_the_batch_while_draining(self):
        simulator = Simulator()
        seen = []

        def deliver(item):
            seen.append(item)
            if item == "a":
                # No event was scheduled since the batch was created, so the
                # fence still holds mid-drain.
                assert simulator.try_append_to_batch(batch, "tail")

        batch = simulator.schedule_batch_at(1.0, deliver, "a")
        simulator.run()
        assert seen == ["a", "tail"]

    def test_past_horizon_batch_discards_one_payload_per_step(self):
        simulator = Simulator(max_time=5.0)
        seen = []
        batch = simulator.schedule_batch_at(10.0, seen.append, "a")
        for item in ("b", "c"):
            assert simulator.try_append_to_batch(batch, item)
        assert simulator.pending_events() == 3
        assert not simulator.step()
        assert simulator.pending_events() == 2
        assert not simulator.step()
        assert not simulator.step()
        assert seen == []
        assert simulator.pending_events() == 0
        assert batch.closed

    def test_pending_events_counts_batch_payloads(self):
        simulator = Simulator()
        batch = simulator.schedule_batch_at(1.0, lambda item: None, "a")
        simulator.try_append_to_batch(batch, "b")
        simulator.schedule_at(2.0, lambda: None)
        assert simulator.pending_events() == 3

    def test_pending_peak_is_a_high_water_mark(self):
        simulator = Simulator()
        batch = simulator.schedule_batch_at(1.0, lambda item: None, "a")
        for item in ("b", "c", "d"):
            simulator.try_append_to_batch(batch, item)
        simulator.run()
        assert simulator.pending_events() == 0
        assert simulator.pending_peak == 4


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


def recount_pending(simulator):
    """Brute-force ``pending_events()``: walk the heap and the draining batch."""
    items = [item for _, _, item in simulator._queue]
    if simulator._active_batch is not None:
        items.append(simulator._active_batch)
    return sum(
        len(item.items) - item.next_index if type(item) is _EventBatch else not item.cancelled
        for item in items
    )


ENGINE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 8)),
        st.tuples(st.just("batch"), st.integers(0, 8)),
        st.tuples(st.just("append"), st.just(0)),
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

        Random schedules, batch opens and appends, cancellations (with a
        compaction threshold low enough to compact constantly) and steps
        that execute, skip cancelled entries or discard events past the
        ``max_time=5`` horizon.
        """
        with mock.patch.object(Simulator, "COMPACTION_MIN_QUEUE", 4):
            simulator = Simulator(max_time=5.0)
            handles = []
            batch = None
            peak = 0
            for op, arg in ops:
                if op == "schedule":
                    handles.append(simulator.schedule(float(arg), lambda: None))
                elif op == "batch":
                    batch = simulator.schedule_batch_at(simulator.now + arg, lambda item: None, "x")
                elif op == "append" and batch is not None:
                    simulator.try_append_to_batch(batch, "y")
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
