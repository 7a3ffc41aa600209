"""Tests for the Process base class (handlers and timers)."""

from dataclasses import dataclass

from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import SynchronousModel


@dataclass(frozen=True)
class Ping:
    payload: str = "ping"


@dataclass(frozen=True)
class Pong:
    payload: str = "pong"


def make_world():
    simulator = Simulator()
    network = Network(simulator, SynchronousModel(delta=1.0), seed=0)
    return simulator, network


class TestMessaging:
    def test_handler_dispatch_by_type(self):
        simulator, network = make_world()
        received = []
        alice = Process(1, frozenset({2}), runtime=SimRuntime(simulator, network))
        bob = Process(2, frozenset({1}), runtime=SimRuntime(simulator, network))
        bob.on(Ping, lambda sender, message: received.append((sender, message)))
        alice.send(2, Ping())
        alice.send(2, Pong())  # no handler: silently ignored
        simulator.run()
        assert received == [(1, Ping())]

    def test_unhandled_hook(self):
        simulator, network = make_world()
        unhandled = []

        class Watcher(Process):
            def on_unhandled(self, envelope):
                unhandled.append(envelope.payload)

        alice = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        Watcher(2, frozenset(), runtime=SimRuntime(simulator, network))
        alice.send(2, Pong())
        simulator.run()
        assert unhandled == [Pong()]

    def test_send_to_all_skips_self(self):
        simulator, network = make_world()
        counts = {2: 0, 3: 0}
        alice = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        for pid in (2, 3):
            node = Process(pid, frozenset(), runtime=SimRuntime(simulator, network))
            node.on(Ping, lambda sender, message, pid=pid: counts.__setitem__(pid, counts[pid] + 1))
        alice.send_to_all([1, 2, 3], Ping())
        simulator.run()
        assert counts == {2: 1, 3: 1}

    def test_stopped_process_neither_sends_nor_receives(self):
        simulator, network = make_world()
        received = []
        alice = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Process(2, frozenset(), runtime=SimRuntime(simulator, network))
        bob.on(Ping, lambda sender, message: received.append(message))
        bob.stop()
        alice.send(2, Ping())
        simulator.run()
        assert not received
        alice.stop()
        alice.send(2, Ping())
        simulator.run()
        assert network.trace.messages_sent == 1  # second send suppressed


class TestTimers:
    def test_one_shot_timer(self):
        simulator, network = make_world()
        fired = []
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        node.after(5.0, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [5.0]

    def test_periodic_timer_stops_with_process(self):
        simulator, network = make_world()
        fired = []
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))

        def tick():
            fired.append(simulator.now)
            if len(fired) == 3:
                node.stop()

        node.every(2.0, tick)
        simulator.run()
        assert fired == [2.0, 4.0, 6.0]

    def test_invalid_period(self):
        simulator, network = make_world()
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        import pytest

        with pytest.raises(ValueError):
            node.every(0.0, lambda: None)

    def test_one_shot_timer_cancelled_by_stop(self):
        simulator, network = make_world()
        fired = []
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        node.after(5.0, lambda: fired.append("fired"))
        node.stop()
        simulator.run()
        assert not fired

    def test_every_returns_a_cancellable_handle(self):
        simulator, network = make_world()
        fired = []
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        timer = node.every(2.0, lambda: fired.append(simulator.now))
        simulator.run(until=lambda: len(fired) == 3)
        timer.cancel()
        assert timer.cancelled
        simulator.run()  # drains: the cancelled timer never reschedules
        assert fired == [2.0, 4.0, 6.0]
        assert simulator.pending_events() == 0

    def test_cancelling_a_periodic_timer_twice_is_a_noop(self):
        simulator, network = make_world()
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        timer = node.every(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        simulator.run()
        assert simulator.pending_events() == 0

    def test_fired_one_shot_handles_are_pruned(self):
        # Regression: fired one-shots used to accumulate in the process's
        # timer registry forever (and periodic ticks appended a fresh handle
        # per period), growing without bound on long runs.
        simulator, network = make_world()
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        for delay in range(1, 51):
            node.after(float(delay), lambda: None)
        simulator.run()
        assert not node._timers

    def test_periodic_timer_keeps_a_single_registry_entry(self):
        simulator, network = make_world()
        fired = []
        node = Process(1, frozenset(), runtime=SimRuntime(simulator, network))

        def tick():
            fired.append(simulator.now)

        node.every(1.0, tick)
        simulator.run(until=lambda: len(fired) >= 100)
        assert len(node._timers) == 1
