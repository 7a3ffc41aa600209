"""Tests for the network models and the authenticated transport."""

import random

import pytest

from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.gate import NetworkRule
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import AsynchronousModel, PartialSynchronyModel, SynchronousModel
from repro.sim.tracing import SimulationTrace


class Recorder(Process):
    """Test process that records every delivered envelope."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def receive(self, envelope):
        self.received.append(envelope)


class DelayBy(NetworkRule):
    """Delay each message by ``fn(envelope)``; ``None`` falls through to the next rule."""

    def __init__(self, fn):
        self.fn = fn

    def decide(self, envelope, *, now):
        return self.fn(envelope)


def make_network(model=None, faulty=frozenset()):
    simulator = Simulator()
    trace = SimulationTrace()
    network = Network(simulator, model or SynchronousModel(delta=1.0), trace=trace, seed=1, faulty=faulty)
    return simulator, network, trace


class TestSynchronyModels:
    def test_synchronous_delays_bounded_by_delta(self):
        model = SynchronousModel(delta=2.0, minimum_delay=0.1)
        rng = random.Random(0)
        for _ in range(200):
            delay = model.delay(
                now=0.0, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
            )
            assert 0.1 <= delay <= 2.0

    def test_partial_synchrony_after_gst(self):
        model = PartialSynchronyModel(gst=10.0, delta=1.0)
        rng = random.Random(0)
        for _ in range(200):
            delay = model.delay(
                now=20.0, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
            )
            assert delay <= 1.0

    def test_partial_synchrony_messages_arrive_by_gst_plus_delta(self):
        model = PartialSynchronyModel(gst=10.0, delta=1.0, pre_gst_max_delay=100.0)
        rng = random.Random(0)
        for now in (0.0, 5.0, 9.9):
            for _ in range(100):
                delay = model.delay(
                    now=now, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
                )
                assert now + delay <= 11.0 + 1e-9

    def test_asynchronous_targeted_links_never_deliver(self):
        model = AsynchronousModel(targeted_links=frozenset({(1, 2)}))
        rng = random.Random(0)
        assert model.delay(
            now=0.0, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
        ) is None
        assert model.delay(
            now=0.0, sender=2, receiver=1, sender_correct=True, receiver_correct=True, rng=rng
        ) is not None

    def test_asynchronous_starvation_probability_one(self):
        model = AsynchronousModel(starvation_probability=1.0)
        rng = random.Random(0)
        assert model.delay(
            now=0.0, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
        ) is None


    @pytest.mark.parametrize(
        "model, nows",
        [
            pytest.param(PartialSynchronyModel(gst=10.0, delta=1.0), (10.0, 11.5, 400.0), id="post-gst"),
            pytest.param(
                PartialSynchronyModel(gst=1_000.0, delta=1.0, pre_gst_max_delay=50.0),
                (0.0, 3.25, 900.0),
                id="pre-gst-unclamped",
            ),
            pytest.param(
                PartialSynchronyModel(gst=10.0, delta=1.0, pre_gst_max_delay=200.0),
                (0.0, 5.0, 9.999),
                id="pre-gst-clamped-to-gst-plus-delta",
            ),
            pytest.param(
                PartialSynchronyModel(gst=10.0, delta=0.05, minimum_delay=0.3, pre_gst_max_delay=0.1),
                (0.0, 9.9, 10.0, 12.0),
                id="delta-below-minimum-delay",
            ),
        ],
    )
    def test_partial_synchrony_delay_is_bit_equal_to_the_min_max_expression(self, model, nows):
        """The comparison-based ``delay`` picks exactly what ``min``/``max`` picked."""

        def reference(now, rng):
            if now >= model.gst:
                return model.minimum_delay + rng.random() * max(model.delta - model.minimum_delay, 0.0)
            raw = model.minimum_delay + rng.random() * max(
                model.pre_gst_max_delay - model.minimum_delay, 0.0
            )
            deliver_at = min(now + raw, model.gst + model.delta)
            return max(deliver_at - now, model.minimum_delay)

        rng, reference_rng = random.Random(42), random.Random(42)
        for now in nows:
            for _ in range(200):
                delay = model.delay(
                    now=now, sender=1, receiver=2, sender_correct=True, receiver_correct=True, rng=rng
                )
                assert delay.hex() == reference(now, reference_rng).hex()
        assert rng.getstate() == reference_rng.getstate()  # same number of draws


class TestTransport:
    def test_delivery_and_sender_stamping(self):
        simulator, network, trace = make_network()
        alice = Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.send(1, 2, "hello")
        simulator.run()
        assert len(bob.received) == 1
        envelope = bob.received[0]
        assert envelope.sender == 1
        assert envelope.payload == "hello"
        assert trace.messages_delivered == 1
        assert not alice.received

    def test_unknown_receiver_dropped(self):
        simulator, network, trace = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        network.send(1, 99, "hello")
        simulator.run()
        assert trace.messages_dropped == 1

    def test_crashed_sender_and_receiver(self):
        simulator, network, trace = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.crash(1)
        network.send(1, 2, "from-crashed")
        simulator.run()
        assert not bob.received
        network.gate.crash(2)
        network.send(2, 1, "to-crashed")  # sender also crashed
        simulator.run()
        assert trace.messages_dropped == 2

    def test_crash_while_in_flight(self):
        simulator, network, trace = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.send(1, 2, "hello")
        network.gate.crash(2)
        simulator.run()
        assert not bob.received
        assert trace.messages_dropped == 1

    def test_duplicate_registration_rejected(self):
        simulator, network, _ = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        with pytest.raises(ValueError):
            Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))

    def test_broadcast_excludes_sender(self):
        simulator, network, trace = make_network()
        nodes = {pid: Recorder(pid, frozenset(), runtime=SimRuntime(simulator, network)) for pid in (1, 2, 3)}
        network.broadcast(1, frozenset({1, 2, 3}), "ping")
        simulator.run()
        assert len(nodes[2].received) == 1
        assert len(nodes[3].received) == 1
        assert not nodes[1].received

    def test_delay_override(self):
        simulator, network, trace = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.add_rule(DelayBy(lambda envelope: None if envelope.payload != "drop-me" else 0.0))
        network.gate.add_rule(DelayBy(lambda envelope: 0.5))
        network.send(1, 2, "normal")
        simulator.run()
        assert len(bob.received) == 1

    def test_rules_are_consulted_in_order_first_match_wins(self):
        from repro.sim.gate import WITHHOLD, NetworkRule

        class Match(NetworkRule):
            def __init__(self, name, payload, decision):
                self.name = name
                self.payload = payload
                self.decision = decision

            def decide(self, envelope, *, now):
                return self.decision if envelope.payload == self.payload else None

        simulator, network, trace = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        bob = Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.add_rule(Match("drop-a", "a", WITHHOLD))
        network.gate.add_rule(Match("slow-a", "a", 9.0))  # shadowed by drop-a
        network.gate.add_rule(Match("slow-b", "b", 3.0))
        network.send(1, 2, "a")
        network.send(1, 2, "b")
        network.send(1, 2, "c")
        simulator.run()
        assert sorted(env.payload for env in bob.received) == ["b", "c"]
        assert trace.dropped_by_rule == {"drop-a": 1}
        assert trace.delayed_by_rule == {"slow-b": 1}

    def test_rule_withhold_records_the_name_in_the_drop_reason(self):
        from repro.sim.gate import WITHHOLD, NetworkRule

        class DropAll(NetworkRule):
            name = "blackout"

            def decide(self, envelope, *, now):
                return WITHHOLD

        simulator, network, trace = make_network()
        trace.record_messages = True
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.add_rule(DropAll())
        network.send(1, 2, "x")
        simulator.run()
        assert trace.messages_dropped == 1
        assert any("withheld by rule 'blackout'" in event for _, event in trace.events)

    @pytest.mark.parametrize("bad_delay", [float("nan"), -0.5])
    def test_rule_returning_nan_or_negative_delay_is_rejected(self, bad_delay):
        """NaN compares false with everything: ``delay < 0`` let it into the heap."""
        simulator, network, _ = make_network()
        Recorder(1, frozenset(), runtime=SimRuntime(simulator, network))
        Recorder(2, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.add_rule(DelayBy(lambda envelope: bad_delay))
        with pytest.raises(ValueError, match="non-negative"):
            network.send(1, 2, "x")
        assert simulator.pending_events() == 0

    def test_model_is_told_who_is_correct(self):
        """Faulty and crashed processes reach the model as incorrect; a crashed sender never does."""
        seen = []

        class Spy(SynchronousModel):
            def delay(self, *, sender_correct, receiver_correct, **kwargs):
                seen.append((kwargs["sender"], kwargs["receiver"], sender_correct, receiver_correct))
                return 1.0

        simulator, network, _ = make_network(model=Spy(), faulty=frozenset({3}))
        for process_id in (1, 2, 3, 4):
            Recorder(process_id, frozenset(), runtime=SimRuntime(simulator, network))
        network.gate.crash(4)
        for sender, receiver in ((1, 2), (3, 1), (1, 3), (1, 4), (4, 1)):
            network.send(sender, receiver, "x")
        assert seen == [
            (1, 2, True, True),
            (3, 1, False, True),
            (1, 3, True, False),
            (1, 4, True, False),
        ]

    def test_is_correct_tracks_faults_and_crashes(self):
        """A crash mid-run makes a correct process incorrect for every later send."""
        seen = []

        class Spy(SynchronousModel):
            def delay(self, *, sender_correct, receiver_correct, **kwargs):
                seen.append((kwargs["sender"], kwargs["receiver"], sender_correct, receiver_correct))
                return 1.0

        simulator, network, trace = make_network(model=Spy(), faulty=frozenset({3}))
        trace.record_messages = True
        for process_id in (1, 2, 3):
            Recorder(process_id, frozenset(), runtime=SimRuntime(simulator, network))
        network.send(2, 1, "before")
        network.send(2, 3, "before")
        simulator.run()
        network.gate.crash(1)
        network.send(2, 1, "after")
        network.send(1, 2, "after")
        assert seen == [(2, 1, True, True), (2, 3, True, False), (2, 1, True, False)]
        assert trace.events[-1][1].startswith("drop (sender crashed)")


class TestDeliveryBatching:
    def test_same_instant_fan_out_occupies_one_heap_instant(self):
        simulator, network, trace = make_network()
        network.gate.add_rule(DelayBy(lambda envelope: 1.0))
        nodes = {pid: Recorder(pid, frozenset(), runtime=SimRuntime(simulator, network)) for pid in range(1, 12)}
        network.broadcast(1, frozenset(nodes), "hello")
        # Ten same-instant deliveries, one bucket, one instant on the heap.
        assert simulator.pending_events() == 10
        assert simulator._instants == [1.0]
        simulator.run()
        received = [pid for pid, node in nodes.items() if node.received]
        assert sorted(received) == [pid for pid in range(2, 12)]
        assert all(node.received[0].payload == "hello" for pid, node in nodes.items() if pid != 1)
        assert trace.messages_delivered == 10

    def test_batched_delivery_respects_crashes(self):
        simulator, network, trace = make_network()
        network.gate.add_rule(DelayBy(lambda envelope: 1.0))
        nodes = {pid: Recorder(pid, frozenset(), runtime=SimRuntime(simulator, network)) for pid in (1, 2, 3)}
        network.broadcast(1, frozenset(nodes), "hello")
        network.gate.crash(2)
        simulator.run()
        assert nodes[2].received == []
        assert [env.payload for env in nodes[3].received] == ["hello"]

    def test_distinct_delays_still_deliver_in_time_order(self):
        simulator, network, trace = make_network()
        delays = {2: 3.0, 3: 1.0, 4: 2.0}
        network.gate.add_rule(DelayBy(lambda envelope: delays[envelope.receiver]))
        order = []

        class Logger(Recorder):
            def receive(self, envelope):
                super().receive(envelope)
                order.append((simulator.now, self.process_id))

        nodes = {pid: Logger(pid, frozenset(), runtime=SimRuntime(simulator, network)) for pid in (1, 2, 3, 4)}
        network.broadcast(1, frozenset(nodes), "hello")
        simulator.run()
        assert order == [(1.0, 3), (2.0, 4), (3.0, 2)]
