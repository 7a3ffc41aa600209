"""Tests for declarative network fault schedules (repro.adversary.schedule)."""

import json
import math
import pickle

import pytest

from repro.adversary.schedule import (
    ALL,
    CORRECT,
    FAULTY,
    CrashRule,
    DelayRule,
    NetworkSchedule,
    PartitionRule,
    ScheduleContractError,
    ScheduleError,
    install_schedule,
)
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import AsynchronousModel, PartialSynchronyModel, SynchronousModel
from repro.sim.tracing import SimulationTrace

PROCESSES = frozenset({1, 2, 3, 4})
FAULTY_SET = frozenset({4})


class Recorder(Process):
    """Test process that records every delivered envelope with its time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def receive(self, envelope):
        self.received.append((self.now, envelope))


def make_world(model=None, faulty=FAULTY_SET, processes=PROCESSES):
    simulator = Simulator()
    trace = SimulationTrace()
    network = Network(
        simulator, model or SynchronousModel(delta=1.0), trace=trace, seed=1, faulty=faulty
    )
    nodes = {
        pid: Recorder(pid, frozenset(processes) - {pid}, runtime=SimRuntime(simulator, network))
        for pid in sorted(processes)
    }
    return simulator, network, trace, nodes


def install(network, *rules, name=""):
    schedule = NetworkSchedule(rules=tuple(rules), name=name)
    install_schedule(schedule, SimRuntime(network.simulator, network))
    return schedule


class TestDelayRuleSemantics:
    def test_fixed_delay_overrides_the_model(self):
        simulator, network, trace, nodes = make_world()
        install(network, DelayRule(src=frozenset({4}), delay=7.0, name="slow-4"))
        network.send(4, 1, "late")
        network.send(2, 1, "organic")
        simulator.run()
        times = {env.payload: at for at, env in nodes[1].received}
        assert times["late"] == 7.0
        assert times["organic"] < 1.5  # model-scheduled, within delta
        assert trace.delayed_by_rule == {"slow-4": 1}

    def test_until_delivers_at_an_absolute_time(self):
        simulator, network, trace, nodes = make_world()
        install(network, DelayRule(src=frozenset({4}), until=12.0))
        network.send(4, 1, "frozen")
        simulator.run()
        (at, envelope), = nodes[1].received
        assert at == 12.0 and envelope.payload == "frozen"

    def test_until_in_the_past_delivers_immediately(self):
        simulator, network, trace, nodes = make_world()
        install(network, DelayRule(src=frozenset({4}), until=1.0))
        simulator.schedule(5.0, lambda: network.send(4, 1, "thawed"))
        simulator.run()
        (at, _), = nodes[1].received
        assert at == 5.0

    def test_withhold_drops_forever_with_the_rule_name_traced(self):
        simulator, network, trace, nodes = make_world()
        trace.record_messages = True
        install(network, DelayRule(src=frozenset({4}), name="gag-4"))
        network.send(4, 1, "never")
        simulator.run()
        assert nodes[1].received == []
        assert trace.dropped_by_rule == {"gag-4": 1}
        assert any("withheld by rule 'gag-4'" in event for _, event in trace.events)

    def test_window_bounds_are_half_open(self):
        simulator, network, trace, nodes = make_world()
        install(network, DelayRule(src=frozenset({4}), t_from=2.0, t_to=4.0, delay=50.0))
        for at in (0.0, 2.0, 3.9, 4.0):
            simulator.schedule(at, lambda at=at: network.send(4, 1, f"at-{at}"))
        simulator.run()
        delayed = {env.payload for at, env in nodes[1].received if at > 10.0}
        assert delayed == {"at-2.0", "at-3.9"}  # sent inside [t_from, t_to)

    def test_first_matching_rule_wins(self):
        simulator, network, trace, nodes = make_world()
        install(
            network,
            DelayRule(src=frozenset({4}), dst=frozenset({1}), delay=3.0, name="specific"),
            DelayRule(src=frozenset({4}), delay=9.0, name="broad"),
        )
        network.send(4, 1, "x")
        network.send(4, 2, "y")
        simulator.run()
        assert [at for at, _ in nodes[1].received] == [3.0]
        assert [at for at, _ in nodes[2].received] == [9.0]
        assert trace.delayed_by_rule == {"specific": 1, "broad": 1}

    def test_symbolic_targets_resolve_against_membership(self):
        simulator, network, trace, nodes = make_world()
        install(network, DelayRule(src=FAULTY, dst=CORRECT, name="mute-faulty"))
        network.send(4, 1, "cut")
        network.send(1, 2, "kept")
        simulator.run()
        assert nodes[1].received == []
        assert [env.payload for _, env in nodes[2].received] == ["kept"]

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ScheduleError):
            DelayRule(delay=1.0, until=2.0)
        with pytest.raises(ScheduleError):
            DelayRule(delay=-1.0)
        with pytest.raises(ScheduleError):
            # Withholding is spelled by omitting both effects; an infinite
            # effect would also leak Infinity into strict-JSON job files.
            DelayRule(until=math.inf)
        with pytest.raises(ScheduleError):
            DelayRule(delay=math.inf)
        with pytest.raises(ScheduleError):
            DelayRule(t_from=5.0, t_to=5.0)
        with pytest.raises(ScheduleError):
            DelayRule(src="everyone")
        with pytest.raises(ScheduleError):
            DelayRule(src=frozenset())


class TestPartitionRuleSemantics:
    def test_cross_group_messages_heal_at_t_to(self):
        simulator, network, trace, nodes = make_world()
        install(
            network,
            PartitionRule(
                groups=(frozenset({1, 2}), frozenset({3, 4})),
                t_to=20.0,
                heal_delay=0.5,
                # Healing at 20.5 > delta breaks the synchronous contract on
                # purpose here; semantics are under test, not validation.
                adversarial=True,
                name="split",
            ),
        )
        simulator.schedule(3.0, lambda: network.send(1, 3, "cross"))
        simulator.schedule(3.0, lambda: network.send(1, 2, "within"))
        simulator.run()
        times = {env.payload: at for at, env in nodes[3].received}
        times.update({env.payload: at for at, env in nodes[2].received})
        assert times["cross"] == 20.5  # parked until the heal, then delivered
        assert times["within"] < 5.0
        assert trace.delayed_by_rule == {"split": 1}

    def test_messages_after_heal_are_unaffected(self):
        simulator, network, trace, nodes = make_world()
        install(
            network,
            PartitionRule(
                groups=(frozenset({1}), frozenset({3})),
                t_to=10.0,
                adversarial=True,
            ),
        )
        simulator.schedule(10.0, lambda: network.send(1, 3, "post-heal"))
        simulator.run()
        (at, _), = nodes[3].received
        assert at < 11.5
        assert trace.delayed_by_rule == {}

    def test_unlisted_processes_are_unaffected(self):
        simulator, network, trace, nodes = make_world()
        install(
            network,
            PartitionRule(groups=(frozenset({1}), frozenset({2})), t_to=30.0, adversarial=True),
        )
        network.send(3, 1, "bystander")
        simulator.run()
        assert [env.payload for _, env in nodes[1].received] == ["bystander"]

    def test_infinite_partition_withholds(self):
        simulator, network, trace, nodes = make_world()
        install(
            network,
            PartitionRule(
                groups=(frozenset({1}), frozenset({3})), adversarial=True, name="forever"
            ),
        )
        network.send(1, 3, "lost")
        simulator.run()
        assert nodes[3].received == []
        assert trace.dropped_by_rule == {"forever": 1}

    def test_traced_events_carry_the_real_time(self):
        # Rule decisions are stamped with the send instant, the crashed-receiver
        # drop with the delivery instant — never the historical 0.0.
        simulator, network, trace, nodes = make_world()
        trace.record_messages = True
        install(
            network,
            PartitionRule(groups=(frozenset({1}), frozenset({3})), adversarial=True, name="cut"),
            DelayRule(src=frozenset({4}), delay=2.0, name="slow-4"),
        )
        for at in (1.0, 2.5, 4.0):
            simulator.schedule(at, lambda: network.send(1, 3, "lost"))
        simulator.schedule(5.0, lambda: network.send(4, 2, "late"))
        simulator.schedule(6.0, lambda: network.gate.crash(2))
        simulator.run()
        drops = [at for at, event in trace.events if "withheld by rule 'cut'" in event]
        assert drops == [1.0, 2.5, 4.0]
        assert [(at, event) for at, event in trace.events if "slow-4" in event] == [
            (5.0, "delay (rule 'slow-4', 2): 4 -> 2: str")
        ]
        assert [at for at, event in trace.events if "receiver crashed" in event] == [7.0]
        assert trace.messages_dropped == 4 and trace.dropped_by_rule == {"cut": 3}

    def test_validation_rejects_bad_groups(self):
        with pytest.raises(ScheduleError):
            PartitionRule(groups=(frozenset({1, 2}),))
        with pytest.raises(ScheduleError):
            PartitionRule(groups=(frozenset({1, 2}), frozenset({2, 3})))
        with pytest.raises(ScheduleError):
            PartitionRule(groups=(frozenset({1}), frozenset()))
        with pytest.raises(ScheduleError):
            PartitionRule(groups=(frozenset({1}), frozenset({2})), heal_delay=0.0)


class TestCrashRuleSemantics:
    def test_crashes_the_process_at_the_scheduled_time(self):
        simulator, network, trace, nodes = make_world()
        trace.record_messages = True
        install(network, CrashRule(process=4, at=5.0))
        simulator.schedule(1.0, lambda: network.send(4, 1, "before"))
        simulator.schedule(6.0, lambda: network.send(4, 1, "after"))
        simulator.run()
        assert [env.payload for _, env in nodes[1].received] == ["before"]
        assert [at for at, event in trace.events if "sender crashed" in event] == [6.0]


class TestModelContractValidation:
    MODEL = PartialSynchronyModel(gst=50.0, delta=1.0)

    def check(self, *rules):
        NetworkSchedule(rules=tuple(rules)).validate(
            self.MODEL, processes=PROCESSES, faulty=FAULTY_SET
        )

    def test_withholding_correct_traffic_raises(self):
        with pytest.raises(ScheduleContractError, match="withholds correct"):
            self.check(DelayRule())

    def test_adversarial_marker_opts_out(self):
        self.check(DelayRule(adversarial=True))

    def test_faulty_only_traffic_is_always_admissible(self):
        self.check(DelayRule(src=FAULTY))
        self.check(DelayRule(dst=frozenset({4})))
        self.check(CrashRule(process=4, at=3.0))

    def test_delay_past_the_deadline_raises(self):
        self.check(DelayRule(delay=1.0))  # within delta: fine at any time
        with pytest.raises(ScheduleContractError, match="past the model deadline"):
            self.check(DelayRule(delay=1.5))
        # A pre-GST-only window has until-GST+delta slack.
        self.check(DelayRule(t_to=10.0, delay=41.0))
        with pytest.raises(ScheduleContractError):
            self.check(DelayRule(t_to=10.0, delay=42.0))

    def test_until_past_the_deadline_raises(self):
        self.check(DelayRule(t_to=50.0, until=51.0))
        with pytest.raises(ScheduleContractError, match="until"):
            self.check(DelayRule(t_to=50.0, until=51.5))

    def test_partition_must_heal_by_gst_plus_delta(self):
        groups = (frozenset({1, 2}), frozenset({3}))
        self.check(PartitionRule(groups=groups, t_to=50.0, heal_delay=1.0))
        with pytest.raises(ScheduleContractError, match="heals at"):
            self.check(PartitionRule(groups=groups, t_to=50.0, heal_delay=1.5))
        with pytest.raises(ScheduleContractError, match="never heals"):
            self.check(PartitionRule(groups=groups))

    def test_partition_of_faulty_only_groups_is_admissible(self):
        self.check(PartitionRule(groups=(frozenset({4}), frozenset({1, 2, 3}))))

    def test_crashing_a_correct_process_raises(self):
        with pytest.raises(ScheduleContractError, match="does not declare faulty"):
            self.check(CrashRule(process=1, at=3.0))
        self.check(CrashRule(process=1, at=3.0, adversarial=True))

    def test_synchronous_model_is_the_gst_zero_case(self):
        schedule = NetworkSchedule(rules=(DelayRule(delay=0.5),))
        schedule.validate(
            SynchronousModel(delta=1.0), processes=PROCESSES, faulty=FAULTY_SET
        )
        with pytest.raises(ScheduleContractError):
            NetworkSchedule(rules=(DelayRule(delay=1.5),)).validate(
                SynchronousModel(delta=1.0), processes=PROCESSES, faulty=FAULTY_SET
            )

    def test_asynchronous_model_has_no_delivery_contract(self):
        schedule = NetworkSchedule(rules=(DelayRule(), PartitionRule(groups=(frozenset({1}), frozenset({2})))))
        schedule.validate(AsynchronousModel(), processes=PROCESSES, faulty=FAULTY_SET)
        # ... but the fault-model guard on crashes still applies.
        with pytest.raises(ScheduleContractError):
            NetworkSchedule(rules=(CrashRule(process=1),)).validate(
                AsynchronousModel(), processes=PROCESSES, faulty=FAULTY_SET
            )

    def test_install_validates_against_the_network(self):
        simulator, network, trace, nodes = make_world(model=self.MODEL)
        with pytest.raises(ScheduleContractError):
            install(network, DelayRule())
        # Nothing was installed: the withhold-everything rule never fires.
        network.send(1, 2, "x")
        simulator.run()
        assert [env.payload for _, env in nodes[2].received] == ["x"]
        assert trace.dropped_by_rule == {}


class TestScheduleCodec:
    SCHEDULE = NetworkSchedule(
        name="storm",
        rules=(
            DelayRule(src=frozenset({1}), dst=frozenset({2, 3}), t_from=1.0, t_to=9.0, delay=2.5),
            DelayRule(src=FAULTY, dst=ALL),
            DelayRule(t_to=50.0, until=50.5),
            PartitionRule(groups=(frozenset({1, 2}), frozenset({3, 4})), t_to=20.0),
            CrashRule(process=4, at=10.0, adversarial=True),
        ),
    )

    def test_json_round_trip_is_lossless(self):
        payload = json.loads(json.dumps(self.SCHEDULE.to_dict()))
        rebuilt = NetworkSchedule.from_dict(payload)
        assert rebuilt == self.SCHEDULE
        assert rebuilt.key == self.SCHEDULE.key

    def test_infinite_windows_survive_strict_json(self):
        schedule = NetworkSchedule(rules=(DelayRule(src=FAULTY, t_to=math.inf),))
        text = json.dumps(schedule.to_dict(), allow_nan=False)  # strict JSON
        assert NetworkSchedule.from_dict(json.loads(text)) == schedule

    def test_picklable_and_hashable(self):
        assert pickle.loads(pickle.dumps(self.SCHEDULE)) == self.SCHEDULE
        assert hash(self.SCHEDULE) == hash(pickle.loads(pickle.dumps(self.SCHEDULE)))

    def test_unknown_rule_kind_is_rejected(self):
        with pytest.raises(ScheduleError):
            NetworkSchedule.from_dict({"rules": [{"kind": "teleport"}]})

    def test_empty_schedule_is_rejected(self):
        with pytest.raises(ScheduleError):
            NetworkSchedule(rules=())

    def test_key_distinguishes_distinct_schedules(self):
        keys = {
            NetworkSchedule(rules=(DelayRule(delay=1.0),)).key,
            NetworkSchedule(rules=(DelayRule(delay=2.0),)).key,
            NetworkSchedule(rules=(DelayRule(until=2.0),)).key,
            NetworkSchedule(rules=(DelayRule(),)).key,
        }
        assert len(keys) == 4
