"""Tests for the Runtime seam: SimRuntime and runtime-based construction.

The protocol state machines talk to the world only through the
:class:`~repro.runtime.base.Runtime` interface; these tests pin the
simulator-backed implementation of it.
"""

from dataclasses import dataclass

from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network, SynchronousModel
from repro.sim.process import Process


@dataclass(frozen=True)
class Ping:
    payload: str = "ping"


def make_world():
    simulator = Simulator()
    network = Network(simulator, SynchronousModel(delta=1.0), seed=0)
    return simulator, network


class TestSimRuntime:
    def test_delegates_to_simulator_and_network(self):
        simulator, network = make_world()
        runtime = SimRuntime(simulator, network)
        assert runtime.simulator is simulator
        assert runtime.network is network
        assert runtime.trace is network.trace
        assert runtime.now == simulator.now

    def test_schedule_and_timers(self):
        simulator, network = make_world()
        runtime = SimRuntime(simulator, network)
        fired = []
        handle = runtime.schedule(2.0, lambda: fired.append(runtime.now), label="tick")
        cancelled = runtime.schedule(3.0, lambda: fired.append("never"))
        cancelled.cancel()
        assert cancelled.cancelled
        simulator.run()
        assert fired == [2.0]
        assert not handle.cancelled

    def test_crash_gates_delivery(self):
        simulator, network = make_world()
        runtime = SimRuntime(simulator, network)
        received = []
        alice = Process(1, frozenset({2}), runtime=runtime)
        bob = Process(2, frozenset({1}), runtime=runtime)
        bob.on(Ping, lambda sender, message: received.append(sender))
        runtime.crash(2)
        alice.send(2, Ping())
        simulator.run()
        assert received == []


class TestProcessConstruction:
    def test_consensus_node_runtime_construction(self):
        from repro.core.config import ProtocolConfig
        from repro.core.node import ConsensusNode
        from repro.crypto.signatures import KeyRegistry

        simulator, network = make_world()
        runtime = SimRuntime(simulator, network)
        registry = KeyRegistry(seed=0)
        node = ConsensusNode(
            1,
            frozenset({1, 2}),
            runtime=runtime,
            registry=registry,
            key=registry.generate(1),
            config=ProtocolConfig(),
        )
        assert node.runtime is runtime
        assert node.trace is network.trace
