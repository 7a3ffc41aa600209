"""Tests for the Runtime seam: SimRuntime, the closed seam, the one run path.

The protocol state machines and the run driver talk to the world only
through the :class:`~repro.runtime.base.Runtime` interface; these tests pin
the simulator-backed implementation of it, that nothing behind the seam is
reachable through it, and that one driver and one schedule installer serve
both runtimes.
"""

import gc
import warnings
from dataclasses import dataclass

import pytest

from repro.adversary.schedule import (
    CrashRule,
    DelayRule,
    NetworkSchedule,
    PartitionRule,
    ScheduleContractError,
)
from repro.analysis.harness import drive, run_consensus
from repro.core.config import ProtocolMode
from repro.crypto.signatures import KeyRegistry
from repro.graphs.figures import figure_4b
from repro.runtime.asyncio_runtime import AsyncioRuntime, LiveRunError
from repro.runtime.base import Runtime
from repro.runtime.harness import run_live_consensus
from repro.runtime.sim import SimRuntime, build_sim_runtime
from repro.sim.engine import Simulator
from repro.sim.gate import WITHHOLD, NetworkRule
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import SynchronousModel
from repro.workloads.builders import graph_run_config


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
        assert runtime.trace is network.trace
        assert runtime.now == simulator.now
        assert runtime.model is network.model
        assert runtime.faulty == network.faulty
        Process(1, frozenset(), runtime=runtime)
        assert runtime.process_ids == network.gate.process_ids == frozenset({1})

    def test_schedule_and_timers(self):
        simulator, network = make_world()
        runtime = SimRuntime(simulator, network)
        fired = []
        handle = runtime.schedule(2.0, lambda: fired.append(runtime.now))
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


class TestClosedSeam:
    def test_runtime_exposes_no_substrate(self):
        simulator, network = make_world()
        live = AsyncioRuntime(max_time=1.0)
        for runtime in (Runtime, SimRuntime(simulator, network), live):
            assert not hasattr(runtime, "simulator")
            assert not hasattr(runtime, "network")
        assert not hasattr(live, "install_schedule")

    @pytest.mark.parametrize(
        "make_runtime",
        [lambda: SimRuntime(*make_world()), lambda: AsyncioRuntime(max_time=1.0)],
        ids=["sim", "live"],
    )
    def test_both_runtimes_implement_the_run_surface(self, make_runtime):
        runtime = make_runtime()  # instantiable: no abstract method left open
        assert isinstance(runtime, Runtime)
        for name in ("run", "add_rule", "result_fields"):
            assert callable(getattr(runtime, name)), name
        assert runtime.process_ids == frozenset()
        assert runtime.faulty == frozenset()
        assert runtime.model is not None


def _sim_runtime(config):
    return build_sim_runtime(
        max_time=config.horizon, synchrony=config.synchrony, faulty=frozenset(config.faulty)
    )


def _live_runtime(config):
    return AsyncioRuntime(
        max_time=config.horizon,
        time_scale=0.001,
        synchrony=config.synchrony,
        faulty=frozenset(config.faulty),
    )


class TestOneDriver:
    @pytest.mark.parametrize("make_runtime", [_sim_runtime, _live_runtime])
    def test_one_installer_serves_both_runtimes(self, make_runtime, monkeypatch):
        """Delay + healing partition + crash of a declared-faulty process.

        The same RunConfig goes down the one run path on either runtime and
        must leave the same ordered rules on the send gate and an armed
        crash timer.
        """
        scenario = figure_4b()
        (faulty_id,) = scenario.faulty
        schedule = NetworkSchedule(
            rules=(
                DelayRule(src="faulty", delay=3.0, name="slow-faulty"),
                PartitionRule(
                    groups=(frozenset({1, 2, 3}), frozenset({5, 6, 7, 8})),
                    t_to=5.0,
                    name="early-split",
                ),
                CrashRule(process=faulty_id, at=2.0, name="crash-faulty"),
            )
        )
        config = graph_run_config(scenario, mode=ProtocolMode.BFT_CUP, schedule=schedule)
        runtime = make_runtime(config)
        rules, timers = [], []
        add_rule, arm = runtime.add_rule, runtime.schedule

        def recording_add_rule(rule):
            rules.append(rule.name)
            add_rule(rule)

        def recording_schedule(delay, callback):
            timers.append(delay)
            return arm(delay, callback)

        monkeypatch.setattr(runtime, "add_rule", recording_add_rule)
        monkeypatch.setattr(runtime, "schedule", recording_schedule)
        result = drive(config, runtime, KeyRegistry(seed=config.seed))
        assert rules == ["slow-faulty", "early-split"]
        # The schedule is installed before any process proposes, so the
        # crash rule's timer is the first one armed.
        assert timers[0] == pytest.approx(2.0, abs=0.5)  # live: minus the elapsed start-up
        assert result.consensus_solved

    def test_rejected_schedule_leaks_no_socket(self):
        """A schedule the model forbids fails both run paths alike, sockets closed."""
        scenario = figure_4b()
        correct_id = min(scenario.graph.processes - scenario.faulty)
        config = graph_run_config(
            scenario,
            mode=ProtocolMode.BFT_CUPFT,
            schedule=NetworkSchedule(rules=(CrashRule(process=correct_id, at=1.0),)),
        )
        with pytest.raises(ScheduleContractError) as simulated:
            run_consensus(config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScheduleContractError) as live:
                run_live_consensus(config, time_scale=0.01)
            gc.collect()
        assert str(live.value) == str(simulated.value)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class Fixed(NetworkRule):
    """A rule that makes one decision for every message."""

    def __init__(self, name, decision):
        self.name = name
        self.decision = decision

    def decide(self, envelope, *, now):
        return self.decision


class Inbox(Process):
    def __init__(self, process_id, runtime):
        super().__init__(process_id, frozenset(), runtime=runtime)
        self.received = []
        self.on(str, lambda sender, payload: self.received.append(payload))


def _send_from_crashed(runtime, alice):
    runtime.crash(1)
    alice.send(2, "x")


def _send_then_crash_receiver(runtime, alice):
    alice.send(2, "x")
    runtime.crash(2)


#: case id -> (rule or None, what ``start`` does, what bob receives, trace events).
GATE_CASES = {
    "sender-crashed": (None, _send_from_crashed, [], ["drop (sender crashed): 1 -> 2: str"]),
    "unknown-receiver": (
        None,
        lambda runtime, alice: alice.send(99, "x"),
        [],
        ["drop (unknown receiver): 1 -> 99: str"],
    ),
    "withholding-rule": (
        Fixed("blackout", WITHHOLD),
        lambda runtime, alice: alice.send(2, "x"),
        [],
        ["drop (withheld by rule 'blackout'): 1 -> 2: str"],
    ),
    "delaying-rule": (
        Fixed("slow", 1.0),
        lambda runtime, alice: alice.send(2, "x"),
        ["x"],
        ["delay (rule 'slow', 1): 1 -> 2: str"],
    ),
    "receiver-crashed-before-delivery": (
        None,
        _send_then_crash_receiver,
        [],
        ["drop (receiver crashed): 1 -> 2: str"],
    ),
}

#: A synchronous model keeps every simulated delivery inside the horizon.
_GATE_RUNTIMES = {
    "sim": lambda: build_sim_runtime(max_time=20.0, synchrony=SynchronousModel()),
    "live": lambda: AsyncioRuntime(max_time=20.0, time_scale=0.01, synchrony=SynchronousModel()),
}


def _gate_outcome(make_runtime, case):
    rule, start, _, _ = GATE_CASES[case]
    runtime = make_runtime()
    runtime.trace.record_messages = True
    alice, bob = Inbox(1, runtime), Inbox(2, runtime)
    if rule is not None:
        runtime.add_rule(rule)
    runtime.run(lambda: start(runtime, alice), until=lambda: False)
    trace = runtime.trace
    return {
        "counts": (trace.messages_sent, trace.messages_dropped),
        "dropped_by_rule": dict(trace.dropped_by_rule),
        "delayed_by_rule": dict(trace.delayed_by_rule),
        "events": [event for _, event in trace.events],
        "received": bob.received + alice.received,
    }


class TestSendGateParity:
    """One send gate: both runtimes trace and drop the same way, for the same reasons."""

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_both_runtimes_agree(self, case):
        rule, _, received, events = GATE_CASES[case]
        simulated = _gate_outcome(_GATE_RUNTIMES["sim"], case)
        live = _gate_outcome(_GATE_RUNTIMES["live"], case)
        assert live == simulated
        assert simulated["counts"] == (1, 0 if received else 1)
        assert simulated["events"] == events
        assert simulated["received"] == received

    @pytest.mark.parametrize("bad_delay", [float("nan"), -0.5])
    def test_live_runtime_rejects_nan_or_negative_rule_delay(self, bad_delay):
        """The simulator always raised; the live runtime clamped -0.5 and passed NaN to call_later."""
        runtime = AsyncioRuntime(max_time=20.0, time_scale=0.01)
        alice, _ = Inbox(1, runtime), Inbox(2, runtime)
        runtime.add_rule(Fixed("bad", bad_delay))
        with pytest.raises(LiveRunError) as failure:
            runtime.run(
                lambda: runtime.schedule(0.0, lambda: alice.send(2, "x")),
                until=lambda: bool(runtime.errors),
            )
        assert isinstance(failure.value.__cause__, ValueError)
        assert "non-negative" in str(failure.value.__cause__)


class TestTimerDelays:
    """``Runtime.schedule`` rejects a delay that is negative or NaN on both runtimes."""

    @pytest.mark.parametrize("runtime_name", sorted(_GATE_RUNTIMES))
    @pytest.mark.parametrize("bad_delay", [-1.0, float("nan")])
    def test_schedule_rejects_negative_or_nan_delay(self, runtime_name, bad_delay):
        runtime = _GATE_RUNTIMES[runtime_name]()
        Inbox(1, runtime)
        fired = []
        with pytest.raises(ValueError, match="non-negative"):
            runtime.run(
                lambda: runtime.schedule(bad_delay, lambda: fired.append(True)),
                until=lambda: False,
            )
        assert fired == []


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
        node._decide("v")  # a node reports to the trace of its runtime
        assert network.trace.decisions == {1: ("v", 0.0)}
