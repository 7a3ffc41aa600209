"""Tests for the workload builders, the model-subtlety finding, and the example scripts."""

import runpy
from pathlib import Path

import pytest

from repro.core import ProtocolMode
from repro.graphs.figures import figure_1b
from repro.graphs.generators import generate_bft_cupft_graph
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.requirements import StaticOracle, satisfies_bft_cupft
from repro.workloads import default_fault_spec, figure_run_config, generated_run_config

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestWorkloadBuilders:
    def test_figure_run_config_defaults(self):
        config = figure_run_config(figure_1b(), mode=ProtocolMode.BFT_CUP)
        assert config.protocol.fault_threshold == 1
        assert set(config.faulty) == {4}
        assert config.faulty[4].behaviour == "silent"

    def test_figure_run_config_cupft_mode(self):
        config = figure_run_config(figure_1b(), mode=ProtocolMode.BFT_CUPFT)
        assert config.protocol.fault_threshold is None

    def test_generated_run_config(self):
        scenario = generate_bft_cupft_graph(f=1, non_core_size=2, seed=1)
        config = generated_run_config(scenario, behaviour="lying_pd")
        assert set(config.faulty) == set(scenario.faulty)
        assert all(spec.behaviour == "lying_pd" for spec in config.faulty.values())

    def test_default_fault_spec_variants(self):
        processes = frozenset({1, 2, 3})
        assert default_fault_spec("silent", processes).behaviour == "silent"
        assert default_fault_spec("crash", processes).crash_time > 0
        assert default_fault_spec("lying_pd", processes).claimed_pd == processes
        with pytest.raises(ValueError):
            default_fault_spec("nonsense", processes)

    def test_default_fault_spec_covers_every_known_behaviour(self):
        # Regression: "equivocating_pd" is in KNOWN_BEHAVIOURS and has a
        # faulty-node implementation, but the builder used to raise on it,
        # crashing any matrix sweep over all known behaviours.
        from repro.adversary.spec import KNOWN_BEHAVIOURS

        processes = frozenset(range(1, 9))
        for behaviour in sorted(KNOWN_BEHAVIOURS):
            spec = default_fault_spec(behaviour, processes)
            assert spec.behaviour == behaviour

    def test_default_equivocating_pd_tells_two_different_stories(self):
        processes = frozenset(range(1, 9))
        spec = default_fault_spec("equivocating_pd", processes)
        assert spec.claimed_pd and spec.alternate_pd
        assert spec.claimed_pd != spec.alternate_pd
        assert spec.claimed_pd | spec.alternate_pd == processes
        # Degenerate single-process graphs still build (both halves equal).
        tiny = default_fault_spec("equivocating_pd", frozenset({1}))
        assert tiny.claimed_pd == tiny.alternate_pd == frozenset({1})

    def test_default_fault_spec_param_overrides(self):
        processes = frozenset({1, 2, 3})
        assert default_fault_spec("crash", processes, at=99.0).crash_time == 99.0
        assert default_fault_spec("wrong_value", processes, poison_value="zz").poison_value == "zz"

    def test_default_fault_spec_rejects_unknown_params(self):
        processes = frozenset({1, 2, 3})
        with pytest.raises(ValueError):
            default_fault_spec("crash", processes, crash_at=99.0)  # typo for "at"
        with pytest.raises(ValueError):
            default_fault_spec("silent", processes, at=1.0)

    def test_sweep_over_all_known_behaviours_runs(self):
        # End-to-end: every known behaviour materialises and simulates.
        from repro.adversary.spec import KNOWN_BEHAVIOURS
        from repro.analysis import run_consensus

        scenario = figure_1b()
        for behaviour in sorted(KNOWN_BEHAVIOURS):
            config = figure_run_config(scenario, mode=ProtocolMode.BFT_CUP, behaviour=behaviour)
            result = run_consensus(config)
            assert result.consensus_solved, (behaviour, result.summary())


class TestMixBuilders:
    def test_generated_run_config_accepts_a_mix(self):
        from repro.adversary.mix import AdversaryMix

        scenario = generate_bft_cupft_graph(f=2, non_core_size=3, seed=1)
        mix = AdversaryMix.of(equivocating_pd=1, silent="rest")
        config = generated_run_config(scenario, behaviour=mix, seed=7)
        assert set(config.faulty) == set(scenario.faulty)
        behaviours = sorted(spec.behaviour for spec in config.faulty.values())
        assert behaviours == ["equivocating_pd", "silent"]
        # Placement is part of the run seed: same seed, same assignment.
        again = generated_run_config(scenario, behaviour=mix, seed=7)
        assert {p: s.behaviour for p, s in config.faulty.items()} == {
            p: s.behaviour for p, s in again.faulty.items()
        }

    def test_mix_run_solves_consensus(self):
        from repro.adversary.mix import AdversaryMix
        from repro.analysis import run_consensus

        scenario = generate_bft_cupft_graph(f=2, non_core_size=3, seed=1)
        mix = AdversaryMix.of(equivocating_pd=1, silent="rest")
        result = run_consensus(generated_run_config(scenario, behaviour=mix, seed=3))
        assert result.consensus_solved, result.summary()


class TestCoreAttachment:
    def test_sink_placed_byzantine_processes_are_inside(self):
        from repro.graphs.generators import generate_bft_cup_graph
        from repro.workloads import core_attached_faulty

        scenario = generate_bft_cup_graph(
            f=2, non_sink_size=3, byzantine_placement="mixed", seed=1
        )
        attached = core_attached_faulty(scenario)
        # "mixed" placement alternates sink/non_sink: exactly one of the two
        # Byzantine processes is known by every sink member.
        assert len(scenario.faulty) == 2
        assert len(attached) == 1

    def test_figure_byzantine_attachment(self):
        from repro.graphs.figures import figure_3b
        from repro.workloads import core_attached_faulty

        # Fig. 3b: processes 5 and 7 are faulty, the safe core is the 3-OSR
        # clique {1,2,3,4,6}; attachment follows the f+1-knowers rule.
        scenario = figure_3b()
        attached = core_attached_faulty(scenario)
        assert attached <= scenario.faulty

    @pytest.mark.parametrize("placement", ["sink", "mixed", "non_sink"])
    def test_attachment_is_what_the_oracle_adds_to_the_core(self, placement):
        from repro.workloads import core_attached_faulty

        # One rule (graphs.requirements.known_by_more_than), two readers: the
        # builders' ground truth and the oracle's expected answer.
        for seed in range(36):
            scenario = generate_bft_cupft_graph(
                f=1 + seed % 3,
                non_core_size=3 + seed % 4,
                byzantine_placement=placement,
                seed=seed,
            )
            oracle = StaticOracle(scenario.graph, scenario.faulty)
            assert oracle.safe_core == scenario.core_of_safe_graph
            assert core_attached_faulty(scenario) == oracle.expected_core - oracle.safe_core, seed

    def test_targeted_mix_through_the_builders(self):
        from repro.adversary.mix import REST, AdversaryMix, MixEntry
        from repro.graphs.generators import generate_bft_cup_graph
        from repro.workloads import core_attached_faulty

        scenario = generate_bft_cup_graph(
            f=2, non_sink_size=3, byzantine_placement="mixed", seed=1
        )
        inside = core_attached_faulty(scenario)
        mix = AdversaryMix(
            entries=(
                MixEntry(behaviour="equivocating_pd", target="inside_core"),
                MixEntry(behaviour="silent", count=REST),
            )
        )
        config = generated_run_config(
            scenario, mode=ProtocolMode.BFT_CUP, behaviour=mix, seed=11
        )
        equivocator = next(
            p for p, s in config.faulty.items() if s.behaviour == "equivocating_pd"
        )
        assert equivocator in inside


class TestScheduleBuilders:
    def test_scenario_run_config_installs_the_schedule(self):
        from repro.analysis import run_consensus
        from repro.experiments import (
            DelayRule,
            GraphSpec,
            NetworkSchedule,
            Scenario,
            SynchronySpec,
        )
        from repro.workloads import scenario_run_config

        schedule = NetworkSchedule(
            name="freeze", rules=(DelayRule(t_to=50.0, until=50.5),)
        )
        scenario = Scenario(
            name="s",
            graph=GraphSpec.figure("fig4b"),
            schedule=schedule,
            synchrony=SynchronySpec.partial(gst=50.0, delta=1.0, pre_gst_max_delay=2.0),
            seed=5,
            horizon=2_000.0,
        )
        config = scenario_run_config(scenario)
        assert config.schedule is schedule
        result = run_consensus(config)
        assert result.consensus_solved, result.summary()
        # The freeze bites: nothing can be identified before the thaw.
        assert result.identification_latency() > 50.0
        # And the trace attributes every delayed message to the named rule.
        assert result.trace.delayed_by_rule[schedule.rules[0].rule_name] > 0

    def test_contract_violating_scenarios_fail_at_materialisation(self):
        from repro.adversary.schedule import ScheduleContractError
        from repro.analysis import run_consensus
        from repro.experiments import DelayRule, GraphSpec, NetworkSchedule, Scenario
        from repro.workloads import scenario_run_config

        scenario = Scenario(
            name="s",
            graph=GraphSpec.figure("fig4b"),
            # Withholds correct→correct traffic under partial synchrony.
            schedule=NetworkSchedule(rules=(DelayRule(),)),
        )
        with pytest.raises(ScheduleContractError):
            run_consensus(scenario_run_config(scenario))


class TestModelSubtlety:
    """The DESIGN.md finding ("Fig. 4a caption"): a core strictly inside the safe sink component is fragile.

    The graph below has a 5-clique ``{1,...,5}`` (the core, connectivity 3)
    whose members 4 and 5 also know process 6, which points back into the
    clique; the sink component of ``Gsafe`` is therefore ``{1,...,6}``
    (connectivity 2) and strictly contains the core.  With ``f = 1`` and
    process 7 Byzantine the BFT-CUPFT requirements hold -- yet:

    * a correct process that has received every PD except core member 1's
      finds ``{1,...,6}`` as its strongest visible sink and (under the
      natural Theorem 8 termination rule) would return it, while processes
      with full knowledge return ``{1,...,5}``;
    * it cannot wait for 1's PD either, because a world in which process 1
      is the Byzantine-silent one is indistinguishable at that point (and in
      that world no unique core exists at all).

    This is why the reproduction pins the random BFT-CUPFT workloads (and
    the Fig. 4 reconstructions) to cores that coincide with the sink
    component of ``Gsafe``.
    """

    def _fragile_graph(self) -> KnowledgeGraph:
        graph = KnowledgeGraph(
            {i: [j for j in range(1, 6) if j != i] for i in range(1, 6)}
        )
        graph.add_edges([(4, 6), (5, 6), (6, 3), (6, 4), (6, 5)])
        graph.add_edges([(7, 1), (7, 2), (7, 3)])
        graph.add_edges([(8, 1), (8, 2), (8, 3), (8, 7)])
        return graph

    def test_world_one_satisfies_requirements_with_core_inside_sink(self):
        graph = self._fragile_graph()
        assert satisfies_bft_cupft(graph, 1, {7})
        oracle = StaticOracle(graph, frozenset({7}))
        assert oracle.safe_core == {1, 2, 3, 4, 5}
        assert oracle.safe_sink == {1, 2, 3, 4, 5, 6}
        assert oracle.safe_core < oracle.safe_sink

    def test_removing_one_core_member_destroys_core_uniqueness(self):
        graph = self._fragile_graph()
        world_two = StaticOracle(graph, frozenset({1}))
        assert world_two.safe_core == frozenset()
        assert not satisfies_bft_cupft(graph, 1, {1})

    def test_partial_view_misidentifies_the_core(self):
        from repro.graphs.predicates import KnowledgeView
        from repro.graphs.sink_search import find_core_candidate

        graph = self._fragile_graph()
        received = [2, 3, 4, 5, 6]
        pds = {node: graph.participant_detector(node) for node in received}
        known = set(received)
        for pd in pds.values():
            known |= pd
        premature = find_core_candidate(KnowledgeView(known=frozenset(known), pds=pds))
        complete = find_core_candidate(
            KnowledgeView.full(graph.safe_subgraph({7, 8}))
        )
        assert premature is not None and complete is not None
        assert premature.members == {1, 2, 3, 4, 5, 6}
        assert complete.members == {1, 2, 3, 4, 5}
        assert premature.members != complete.members


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "live_quickstart.py",
        "unknown_fault_threshold.py",
        "blockchain_membership.py",
        "custom_topology.py",
    ],
)
def test_examples_run_to_completion(script, capsys):
    """Every example script must run end-to-end without raising."""
    path = EXAMPLES_DIR / script
    assert path.exists()
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip()
