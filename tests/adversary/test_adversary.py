"""Tests for the fault specifications, adversary mixes and faulty node behaviours."""

import pickle

import pytest

from repro.adversary.mix import INSIDE_CORE, OUTSIDE_CORE, REST, AdversaryMix, MixEntry
from repro.adversary.spec import FaultSpec
from repro.adversary.nodes import build_faulty_node
from repro.analysis import run_consensus
from repro.core import ProtocolMode
from repro.core.config import ProtocolConfig
from repro.core.messages import GetPds
from repro.crypto.signatures import KeyRegistry
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import SynchronousModel
from repro.sim.tracing import SimulationTrace
from repro.workloads import figure_run_config


class TestFaultSpec:
    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(behaviour="teleport")

    def test_constructors(self):
        assert FaultSpec.silent().behaviour == "silent"
        assert FaultSpec.crash(at=10.0).crash_time == 10.0
        assert FaultSpec.lying_pd(frozenset({1, 2})).claimed_pd == {1, 2}
        equivocating = FaultSpec.equivocating_pd(frozenset({1}), frozenset({2}))
        assert equivocating.alternate_pd == {2}
        assert FaultSpec.wrong_value("bad").poison_value == "bad"


class TestAdversaryMix:
    def test_of_preserves_entry_order(self):
        mix = AdversaryMix.of(equivocating_pd=1, silent=REST)
        assert [entry.behaviour for entry in mix.entries] == ["equivocating_pd", "silent"]
        assert mix.key == "mix(equivocating_pd:1,silent:rest)"
        assert AdversaryMix.of("combo", lying_pd=2, crash=1).key == "mix:combo(lying_pd:2,crash:1)"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversaryMix.of()  # no entries
        with pytest.raises(ValueError):
            AdversaryMix.of(teleport=1)  # unknown behaviour
        with pytest.raises(ValueError):
            AdversaryMix.of(silent=REST, crash=REST)  # two rests
        with pytest.raises(ValueError):
            MixEntry(behaviour="silent", count=-1)
        with pytest.raises(ValueError):
            MixEntry(behaviour="silent", count="half")
        with pytest.raises(ValueError):
            MixEntry(behaviour="silent", count=True)
        with pytest.raises(ValueError):
            # Misspelled override: must fail the declaration, not silently
            # run the experiment with the default crash time.
            MixEntry(behaviour="crash", params=(("crash_at", 10.0),))
        with pytest.raises(ValueError):
            MixEntry(behaviour="lying_pd", params=(("at", 5.0),))
        assert MixEntry(behaviour="crash", params=(("at", 10.0),)).params == (("at", 10.0),)

    def test_assign_covers_every_faulty_process(self):
        mix = AdversaryMix.of(equivocating_pd=1, crash=1, silent=REST)
        faulty = frozenset({4, 7, 9, 12})
        assignment = mix.assign(faulty, seed=3)
        assert set(assignment) == faulty
        behaviours = sorted(entry.behaviour for entry in assignment.values())
        assert behaviours == ["crash", "equivocating_pd", "silent", "silent"]

    def test_assign_is_deterministic_per_seed_and_varies_across_seeds(self):
        mix = AdversaryMix.of(equivocating_pd=1, silent=REST)
        faulty = frozenset(range(10))
        first = mix.assign(faulty, seed=1)
        assert first == mix.assign(faulty, seed=1)
        placements = {
            next(p for p, e in mix.assign(faulty, seed=s).items() if e.behaviour == "equivocating_pd")
            for s in range(12)
        }
        assert len(placements) > 1  # the equivocator is not pinned to one process

    def test_assign_rejects_impossible_mixes(self):
        with pytest.raises(ValueError):
            AdversaryMix.of(crash=3, silent=REST).assign(frozenset({1, 2}), seed=0)
        with pytest.raises(ValueError):
            # No rest entry to absorb the second faulty process.
            AdversaryMix.of(crash=1).assign(frozenset({1, 2}), seed=0)

    def test_rest_may_be_empty(self):
        mix = AdversaryMix.of(lying_pd=1, silent=REST)
        assignment = mix.assign(frozenset({4}), seed=0)
        assert [entry.behaviour for entry in assignment.values()] == ["lying_pd"]

    def test_json_round_trip_and_pickle(self):
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="crash", count=1, params=(("at", 10.0),)),
                MixEntry(behaviour="silent", count=REST),
            ),
            name="late-crash",
        )
        assert AdversaryMix.from_dict(mix.to_dict()) == mix
        assert pickle.loads(pickle.dumps(mix)) == mix
        import json

        assert AdversaryMix.from_dict(json.loads(json.dumps(mix.to_dict()))) == mix


class TestMixTargeting:
    FAULTY = frozenset({4, 7, 9, 12})
    INSIDE = frozenset({4, 9})

    def test_inside_and_outside_core_placement(self):
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="equivocating_pd", target=INSIDE_CORE),
                MixEntry(behaviour="lying_pd", target=OUTSIDE_CORE),
                MixEntry(behaviour="silent", count=REST),
            )
        )
        for seed in range(8):
            assignment = mix.assign(self.FAULTY, seed=seed, inside_core=self.INSIDE)
            assert set(assignment) == self.FAULTY
            equivocator = next(
                p for p, e in assignment.items() if e.behaviour == "equivocating_pd"
            )
            liar = next(p for p, e in assignment.items() if e.behaviour == "lying_pd")
            assert equivocator in self.INSIDE
            assert liar not in self.INSIDE

    def test_explicit_id_targeting(self):
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="crash", target=(7,)),
                MixEntry(behaviour="silent", count=REST),
            )
        )
        assignment = mix.assign(self.FAULTY, seed=5)
        assert assignment[7].behaviour == "crash"

    def test_explicit_ids_must_be_faulty(self):
        mix = AdversaryMix(entries=(MixEntry(behaviour="crash", target=(99,)),))
        with pytest.raises(ValueError, match="does not declare faulty"):
            mix.assign(self.FAULTY, seed=0)

    def test_placement_is_deterministic_and_varies_across_seeds(self):
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="equivocating_pd", target=INSIDE_CORE),
                MixEntry(behaviour="silent", count=REST),
            )
        )
        first = mix.assign(self.FAULTY, seed=2, inside_core=self.INSIDE)
        assert first == mix.assign(self.FAULTY, seed=2, inside_core=self.INSIDE)
        placements = {
            next(
                p
                for p, e in mix.assign(self.FAULTY, seed=s, inside_core=self.INSIDE).items()
                if e.behaviour == "equivocating_pd"
            )
            for s in range(16)
        }
        assert placements == set(self.INSIDE)  # rotates within the eligible set

    def test_targeting_requires_an_exposed_core(self):
        mix = AdversaryMix(entries=(MixEntry(behaviour="silent", target=INSIDE_CORE),))
        with pytest.raises(ValueError, match="does not expose one"):
            mix.assign(self.FAULTY, seed=0)

    def test_untargeted_counts_cannot_starve_later_targeted_entries(self):
        # Targeted entries place first: even when an earlier untargeted
        # fixed count could swallow the only eligible inside-core process,
        # every seed must yield a valid assignment (placement succeeds
        # whenever one exists, independent of the shuffle).
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="silent", count=3),
                MixEntry(behaviour="equivocating_pd", target=INSIDE_CORE),
            )
        )
        for seed in range(20):
            assignment = mix.assign(self.FAULTY, seed=seed, inside_core=frozenset({4}))
            assert assignment[4].behaviour == "equivocating_pd"

    def test_not_enough_eligible_processes(self):
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="silent", count=3, target=INSIDE_CORE),
                MixEntry(behaviour="silent", count=REST),
            )
        )
        with pytest.raises(ValueError, match="eligible"):
            mix.assign(self.FAULTY, seed=0, inside_core=self.INSIDE)

    def test_untargeted_mixes_place_exactly_as_before_targeting_existed(self):
        # Pinned: the shuffled-prefix placement (and therefore every recorded
        # mix trajectory) is unchanged by the targeting refactor.
        mix = AdversaryMix.of(equivocating_pd=1, crash=1, silent=REST)
        assignment = mix.assign(frozenset({4, 7, 9, 12}), seed=3)
        assert {p: e.behaviour for p, e in assignment.items()} == {
            9: "equivocating_pd",
            7: "crash",
            4: "silent",
            12: "silent",
        }

    def test_validation(self):
        with pytest.raises(ValueError, match="cannot be targeted"):
            MixEntry(behaviour="silent", count=REST, target=INSIDE_CORE)
        with pytest.raises(ValueError, match="unknown target"):
            MixEntry(behaviour="silent", target="near_core")
        with pytest.raises(ValueError, match="must not be empty"):
            MixEntry(behaviour="silent", target=())

    def test_key_and_codec_round_trip(self):
        import json

        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="equivocating_pd", target=INSIDE_CORE),
                MixEntry(behaviour="crash", target=(7, 4), params=(("at", 10.0),)),
                MixEntry(behaviour="silent", count=REST),
            ),
            name="targeted",
        )
        assert "@inside_core" in mix.key
        rebuilt = AdversaryMix.from_dict(json.loads(json.dumps(mix.to_dict())))
        assert rebuilt == mix
        assert rebuilt.entries[1].target == (4, 7)  # canonicalised order
        # Untargeted entries keep their pre-targeting keys and payloads.
        plain = MixEntry(behaviour="silent", count=REST)
        assert plain.key == "silent:rest"
        assert "target" not in plain.to_dict()


def build_world(figures, behaviour_spec):
    scenario = figures["fig1b"]
    simulator = Simulator()
    trace = SimulationTrace()
    network = Network(simulator, SynchronousModel(), trace=trace, seed=0, faulty=frozenset({4}))
    registry = KeyRegistry(seed=0)
    node = build_faulty_node(
        behaviour_spec,
        process_id=4,
        participant_detector=scenario.graph.participant_detector(4),
        runtime=SimRuntime(simulator, network),
        registry=registry,
        key=registry.generate(4),
        config=ProtocolConfig.bft_cup(1),
    )
    return scenario, simulator, network, registry, trace, node


class TestFaultyNodeBehaviours:
    def test_silent_node_never_sends(self, figures):
        scenario, simulator, network, registry, trace, node = build_world(figures, FaultSpec.silent())
        trace.record_messages = True
        node.propose("x")
        observer = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        network.send(1, 4, GetPds())
        simulator.run()
        assert [envelope.sender for envelope in trace.message_log] == [1]

    def test_lying_pd_node_advertises_the_claim(self, figures):
        spec = FaultSpec.lying_pd(frozenset({1, 2, 3, 5, 6, 7, 8}))
        scenario, simulator, network, registry, trace, node = build_world(figures, spec)
        assert node.discovery.records[4].message.pd == {1, 2, 3, 5, 6, 7, 8}
        assert registry.verify(node.discovery.records[4])

    def test_equivocating_pd_node_shows_different_records(self, figures):
        spec = FaultSpec.equivocating_pd(frozenset({1, 2}), frozenset({3, 5}))
        scenario, simulator, network, registry, trace, node = build_world(figures, spec)
        low = node._set_pds_entries(1)     # repr("1") < repr("4")
        high = node._set_pds_entries(7)    # repr("7") > repr("4")
        pd_low = {entry.message.pd for entry in low if entry.message.owner == 4}
        pd_high = {entry.message.pd for entry in high if entry.message.owner == 4}
        assert pd_low == {frozenset({1, 2})}
        assert pd_high == {frozenset({3, 5})}

    def test_crash_node_stops_at_crash_time(self, figures):
        spec = FaultSpec.crash(at=5.0)
        scenario, simulator, network, registry, trace, node = build_world(figures, spec)
        node.propose("x")
        simulator.run(until=lambda: simulator.now > 10.0)
        assert node.stopped
        # The network crashed 4 too: its sends are dropped at the gate.
        trace.record_messages = True
        network.send(4, 1, GetPds())
        assert trace.events[-1][1].startswith("drop (sender crashed)")

    def test_wrong_value_node_poisons_replies(self, figures):
        from repro.core.messages import DecidedValue, GetDecidedValue

        spec = FaultSpec.wrong_value("poison")
        scenario, simulator, network, registry, trace, node = build_world(figures, spec)
        received = []
        observer = Process(1, frozenset(), runtime=SimRuntime(simulator, network))
        observer.on(DecidedValue, lambda sender, message: received.append(message.value))
        network.send(1, 4, GetDecidedValue())
        simulator.run()
        assert received == ["poison"]

    def test_build_faulty_node_rejects_unknown_behaviour(self, figures):
        scenario = figures["fig1b"]
        spec = FaultSpec.silent()
        object.__setattr__(spec, "behaviour", "weird")
        simulator = Simulator()
        network = Network(simulator, SynchronousModel(), seed=0)
        registry = KeyRegistry(seed=0)
        with pytest.raises(ValueError):
            build_faulty_node(
                spec,
                process_id=4,
                participant_detector=frozenset(),
                runtime=SimRuntime(simulator, network),
                registry=registry,
                key=registry.generate(4),
                config=ProtocolConfig.bft_cup(1),
            )


class TestAdversaryEndToEnd:
    def test_equivocating_pd_does_not_break_consensus(self, figures):
        scenario = figures["fig1b"]
        config = figure_run_config(scenario, mode=ProtocolMode.BFT_CUP, behaviour="silent")
        config.faulty = {
            4: FaultSpec.equivocating_pd(frozenset({1, 2, 3}), frozenset({1, 2, 3, 5, 6}))
        }
        result = run_consensus(config)
        assert result.agreement and result.validity and result.termination

    def test_byzantine_cannot_forge_a_correct_process_pd(self, figures):
        """Even a lying process can only lie about itself (signature layer)."""
        scenario = figures["fig1b"]
        config = figure_run_config(scenario, mode=ProtocolMode.BFT_CUP, behaviour="lying_pd")
        result = run_consensus(config)
        assert result.consensus_solved
        # The identified sink still matches the oracle's expectation.
        assert set(result.identified.values()) == {frozenset({1, 2, 3, 4})}
