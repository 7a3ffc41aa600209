"""Tests for the declarative scenario layer: specs, matrices and seeding."""

import pickle

import pytest

from repro.adversary.mix import AdversaryMix
from repro.adversary.schedule import DelayRule, NetworkSchedule, PartitionRule
from repro.core import ProtocolMode
from repro.core.seeding import derive_seed
from repro.experiments import (
    GraphSpec,
    Scenario,
    ScenarioMatrix,
    SynchronySpec,
    chain_matrices,
)
from repro.graphs.figures import figure_1b
from repro.sim.synchrony import AsynchronousModel, PartialSynchronyModel, SynchronousModel


class TestDeriveSeed:
    def test_deterministic_across_calls(self):
        assert derive_seed(0, "network") == derive_seed(0, "network")
        assert derive_seed(17, "a", 3) == derive_seed(17, "a", 3)

    def test_labels_give_independent_streams(self):
        assert derive_seed(0, "network") != derive_seed(0, "keys")
        assert derive_seed(0, "network") != derive_seed(1, "network")

    def test_stable_pinned_values(self):
        # Guards against accidental changes to the derivation: these values
        # seed every recorded experiment trajectory.
        assert derive_seed(0, "network") == 1138526620357936901
        assert derive_seed(0, "keys") == 4823106652617646619

    def test_range(self):
        for base in range(5):
            seed = derive_seed(base, "x")
            assert 0 <= seed < 2**63


class TestGraphSpec:
    def test_figure_build(self):
        spec = GraphSpec.figure("fig1b")
        built = spec.build()
        assert built.graph == figure_1b().graph
        assert built.fault_threshold == 1

    def test_generator_build_is_deterministic(self):
        spec = GraphSpec.bft_cup(f=1, non_sink_size=4, seed=3)
        assert spec.build().graph == spec.build().graph

    def test_params_are_canonicalised(self):
        assert GraphSpec.bft_cup(f=1, seed=2) == GraphSpec.bft_cup(seed=2, f=1)

    def test_sweep_expands_cartesian_product(self):
        specs = GraphSpec.sweep("bft_cup", f=[1, 2], non_sink_size=[4, 8])
        assert len(specs) == 4
        assert len(set(specs)) == 4

    def test_unknown_family_and_figure(self):
        with pytest.raises(KeyError):
            GraphSpec(family="nope").build()
        with pytest.raises(KeyError):
            GraphSpec.figure("fig9z").build()

    def test_picklable(self):
        spec = GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSynchronySpec:
    @pytest.mark.parametrize(
        "spec, model_type",
        [
            (SynchronySpec.synchronous(delta=2.0), SynchronousModel),
            (SynchronySpec.partial(gst=10.0), PartialSynchronyModel),
            (SynchronySpec.asynchronous(starvation_probability=0.0), AsynchronousModel),
        ],
    )
    def test_build_dispatch(self, spec, model_type):
        model = spec.build()
        assert isinstance(model, model_type)

    def test_params_forwarded(self):
        model = SynchronySpec.partial(gst=42.0, delta=2.0).build()
        assert model.gst == 42.0 and model.delta == 2.0

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            SynchronySpec(kind="quantum").build()


class TestScenario:
    def test_labels_lookup(self):
        scenario = Scenario(
            name="s", graph=GraphSpec.figure("fig1b"), labels=(("mode", "bft-cup"),)
        )
        assert scenario.label("mode") == "bft-cup"
        assert scenario.label("missing", "fallback") == "fallback"

    def test_to_dict_is_json_friendly(self):
        import json

        scenario = Scenario(name="s", graph=GraphSpec.bft_cup(f=1, seed=0), seed=5)
        payload = json.dumps(scenario.to_dict())
        assert '"bft_cup"' in payload

    def test_picklable(self):
        scenario = Scenario(name="s", graph=GraphSpec.figure("fig4b"))
        assert pickle.loads(pickle.dumps(scenario)) == scenario


class TestScenarioCodec:
    MIX = AdversaryMix.of("one-equivocator", equivocating_pd=1, silent="rest")

    def test_plain_round_trip(self):
        scenario = Scenario(name="s", graph=GraphSpec.bft_cup(f=1, seed=0), seed=5)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_mix_round_trip_is_lossless(self):
        import json

        scenario = Scenario(
            name="s", graph=GraphSpec.figure("fig4b"), mix=self.MIX, behaviour=self.MIX.key
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt == scenario
        assert rebuilt.mix == self.MIX
        assert rebuilt.cell_digest() == scenario.cell_digest()

    def test_plain_scenarios_have_no_mix_key(self):
        # The absence of the key is what keeps plain digests byte-identical
        # across the introduction of the mix axis.
        assert "mix" not in Scenario(name="s", graph=GraphSpec.figure("fig1b")).to_dict()

    def test_plain_digests_are_byte_identical_to_pre_mix_releases(self):
        # Pinned against the seed implementation (before mixes existed):
        # these digests key every previously journaled outcome and job file.
        scenario = Scenario(name="s", graph=GraphSpec.figure("fig1b"), seed=5)
        assert (
            scenario.cell_digest()
            == "1c5422632c9964bbf16b2304a9e0b2d18241ac6b28388a9f992f0ab745dcbd5b"
        )

    def test_mix_changes_the_digest(self):
        plain = Scenario(name="s", graph=GraphSpec.figure("fig4b"))
        mixed = Scenario(name="s", graph=GraphSpec.figure("fig4b"), mix=self.MIX)
        assert plain.cell_digest() != mixed.cell_digest()

    def test_directly_constructed_mix_scenario_reports_the_mix_not_silent(self):
        # The constructor default behaviour ("silent") must not leak into
        # reports for cells whose adversary is actually a mix.
        mixed = Scenario(name="s", graph=GraphSpec.figure("fig4b"), mix=self.MIX)
        assert mixed.behaviour == self.MIX.key
        assert Scenario.from_dict(mixed.to_dict()) == mixed


class TestScenarioMatrix:
    def matrix(self):
        return ScenarioMatrix(
            name="m",
            graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cup(f=1, seed=0)),
            modes=(ProtocolMode.BFT_CUP,),
            behaviours=("silent", "crash"),
            synchrony=(SynchronySpec.partial(), SynchronySpec.synchronous()),
            replicates=2,
            base_seed=11,
        )

    def test_size(self):
        assert len(self.matrix()) == 2 * 1 * 2 * 2 * 2 == len(self.matrix().scenarios())

    def test_expansion_is_deterministic(self):
        # Two independent expansions of equal matrices are identical,
        # including every derived seed.
        assert self.matrix().scenarios() == self.matrix().scenarios()

    def test_cells_get_distinct_seeds_and_names(self):
        cells = self.matrix().scenarios()
        assert len({cell.seed for cell in cells}) == len(cells)
        assert len({cell.name for cell in cells}) == len(cells)

    def test_base_seed_changes_every_cell(self):
        matrix = self.matrix()
        matrix.base_seed = 12
        reseeded = matrix.scenarios()
        for before, after in zip(self.matrix().scenarios(), reseeded, strict=True):
            assert before.seed != after.seed
            assert before.name == after.name

    def test_labels_record_axes(self):
        cell = self.matrix().scenarios()[0]
        assert cell.label("matrix") == "m"
        assert cell.label("mode") == "bft-cup"
        assert cell.label("replicate") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioMatrix(name="m", graphs=())
        with pytest.raises(ValueError):
            ScenarioMatrix(name="m", graphs=(GraphSpec.figure("fig1b"),), replicates=0)

    def test_chain_matrices(self):
        first = self.matrix()
        second = ScenarioMatrix(name="n", graphs=(GraphSpec.figure("fig4b"),))
        chained = chain_matrices(first, second)
        assert len(chained) == len(first) + len(second)
        assert chained[-1].label("matrix") == "n"

    def test_pinned_expansion_is_stable_across_the_mix_axis_introduction(self):
        # Pinned against the seed implementation: a behaviours-only matrix
        # must expand to byte-identical names, seeds and digests with the
        # mixes axis present (these values key recorded trajectories).
        cells = self.matrix().scenarios()
        assert [cell.seed for cell in cells[:3]] == [
            4641119065187493931,
            8681879224742414831,
            2003822327597889422,
        ]
        assert cells[0].name == "m[figure(name='fig1b')|bft-cup|silent|partial()|0]"
        assert [cell.cell_digest() for cell in cells[:3]] == [
            "b6a9609478b771f36093e1b6635ddc81fac7d212ea36957e80cf696219eb13a5",
            "b21e352e06d1026d8911eb0e332e9bc114b1bf586ff7efc27f2324b2d7a8c56a",
            "b1079746c43c3276f45e88c39f11d356cb405ef6cd16798752d5f79d5176e540",
        ]


class TestScheduleAxis:
    SCHEDULES = (
        None,
        NetworkSchedule(
            name="partition-until-gst",
            rules=(
                PartitionRule(groups=(frozenset({1, 2}), frozenset({3, 4, 5})), t_to=50.0),
            ),
        ),
        NetworkSchedule(name="mute-faulty", rules=(DelayRule(src="faulty"),)),
    )

    def matrix(self, schedules=SCHEDULES):
        return ScenarioMatrix(
            name="sx",
            graphs=(GraphSpec.figure("fig4b"),),
            behaviours=("silent",),
            schedules=schedules,
            replicates=2,
            base_seed=9,
        )

    def test_size_counts_the_schedule_axis(self):
        assert len(self.matrix()) == 1 * 1 * 1 * 1 * 3 * 2 == len(self.matrix().scenarios())

    def test_scheduled_cells_carry_the_schedule_and_its_label(self):
        cells = self.matrix().scenarios()
        scheduled = [cell for cell in cells if cell.schedule is not None]
        assert len(scheduled) == 4
        for cell in scheduled:
            assert cell.label("schedule") == cell.schedule.name
            assert cell.schedule.key in cell.name
        for cell in cells:
            if cell.schedule is None:
                assert cell.label("schedule") is None

    def test_expansion_is_deterministic_and_distinctly_seeded(self):
        cells = self.matrix().scenarios()
        assert cells == self.matrix().scenarios()
        assert len({cell.seed for cell in cells}) == len(cells)
        assert len({cell.cell_digest() for cell in cells}) == len(cells)

    def test_unscripted_cells_are_identical_to_a_schedule_less_matrix(self):
        # The None entries of a schedule sweep are byte-identical (name,
        # seed, digest) to the cells of a matrix without the axis, so
        # reference columns join up with previously journaled outcomes.
        swept = [cell for cell in self.matrix().scenarios() if cell.schedule is None]
        plain = self.matrix(schedules=(None,)).scenarios()
        assert [c.name for c in swept] == [c.name for c in plain]
        assert [c.seed for c in swept] == [c.seed for c in plain]
        assert [c.cell_digest() for c in swept] == [c.cell_digest() for c in plain]

    def test_schedule_changes_the_digest_and_the_seed(self):
        cells = self.matrix().scenarios()
        by_schedule = {cell.label("schedule"): cell for cell in cells if cell.label("replicate") == 0}
        digests = {cell.cell_digest() for cell in by_schedule.values()}
        seeds = {cell.seed for cell in by_schedule.values()}
        assert len(digests) == len(by_schedule) == 3
        assert len(seeds) == 3

    def test_validation_rejects_an_empty_schedule_axis(self):
        with pytest.raises(ValueError):
            self.matrix(schedules=())


class TestScheduleCodec:
    SCHEDULE = NetworkSchedule(
        name="split",
        rules=(PartitionRule(groups=(frozenset({1}), frozenset({2, 3})), t_to=40.0),),
    )

    def test_round_trip_is_lossless(self):
        import json

        scenario = Scenario(
            name="s", graph=GraphSpec.figure("fig4b"), schedule=self.SCHEDULE
        )
        payload = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt == scenario
        assert rebuilt.schedule == self.SCHEDULE
        assert rebuilt.cell_digest() == scenario.cell_digest()

    def test_plain_scenarios_have_no_schedule_key(self):
        # The absence of the key is what keeps plain digests byte-identical
        # across the introduction of the schedule axis.
        assert "schedule" not in Scenario(name="s", graph=GraphSpec.figure("fig1b")).to_dict()

    def test_schedule_changes_the_digest(self):
        plain = Scenario(name="s", graph=GraphSpec.figure("fig4b"))
        scheduled = Scenario(name="s", graph=GraphSpec.figure("fig4b"), schedule=self.SCHEDULE)
        assert plain.cell_digest() != scheduled.cell_digest()

    def test_round_trip_through_a_work_queue_job_file(self, tmp_path):
        # The real boundary: the schedule must survive the exact JSON job
        # file a work-queue (or TCP) worker rebuilds its scenario from.
        import json

        from repro.experiments import WorkQueue

        scenario = Scenario(
            name="s", graph=GraphSpec.figure("fig4b"), schedule=self.SCHEDULE
        )
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue([(0, scenario)], "repro.experiments.runner:execute_scenario")
        (job_file,) = (tmp_path / "q" / "pending").glob("*.json")
        job = json.loads(job_file.read_text())
        rebuilt = Scenario.from_dict(job["scenario"])
        assert rebuilt == scenario
        assert rebuilt.cell_digest() == scenario.cell_digest() == job["digest"]


class TestMixAxis:
    MIXES = (
        AdversaryMix.of("one-equivocator", equivocating_pd=1, silent="rest"),
        AdversaryMix.of(lying_pd=1, crash="rest"),
    )

    def matrix(self):
        return ScenarioMatrix(
            name="mx",
            graphs=(GraphSpec.figure("fig4b"),),
            behaviours=("silent",),
            mixes=self.MIXES,
            replicates=2,
            base_seed=7,
        )

    def test_size_counts_both_axes(self):
        assert len(self.matrix()) == 1 * 1 * (1 + 2) * 1 * 2 == len(self.matrix().scenarios())

    def test_mix_cells_carry_the_mix_and_its_labels(self):
        cells = self.matrix().scenarios()
        mixed = [cell for cell in cells if cell.mix is not None]
        assert len(mixed) == 4
        for cell in mixed:
            assert cell.label("mix") == cell.mix.key
            assert cell.label("behaviour") == cell.mix.key
            assert cell.mix.key in cell.name
        plain = [cell for cell in cells if cell.mix is None]
        for cell in plain:
            assert cell.label("mix") is None
            assert cell.label("behaviour") == "silent"

    def test_mixes_only_matrix(self):
        matrix = ScenarioMatrix(
            name="mx", graphs=(GraphSpec.figure("fig4b"),), behaviours=(), mixes=self.MIXES
        )
        assert len(matrix.scenarios()) == 2
        with pytest.raises(ValueError):
            ScenarioMatrix(name="mx", graphs=(GraphSpec.figure("fig4b"),), behaviours=())

    def test_expansion_is_deterministic_and_distinctly_seeded(self):
        cells = self.matrix().scenarios()
        assert cells == self.matrix().scenarios()
        assert len({cell.seed for cell in cells}) == len(cells)
        for cell in cells:
            assert Scenario.from_dict(cell.to_dict()) == cell
