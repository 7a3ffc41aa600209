"""Tests for the suite runner and the result aggregation/export layer."""

import json
from pathlib import Path

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    PoolBackend,
    Scenario,
    ScenarioMatrix,
    SuiteExecutionError,
    SuiteRunner,
)


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="small",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=3,
    )


# Module-level so it is picklable for the pool tests.
def flaky_executor(scenario: Scenario) -> dict:
    if scenario.label("replicate") == 1:
        raise RuntimeError("boom")
    return {"terminated": True, "agreement": True, "validity": True, "messages": 1, "latency": 1.0}


def cheap_executor(scenario: Scenario) -> dict:
    return {
        "terminated": True,
        "agreement": True,
        "validity": True,
        "messages": 10,
        "latency": float(scenario.label("replicate")) + 1.0,
    }


def no_messages_executor(scenario: Scenario) -> dict:
    return {"terminated": True, "agreement": True, "validity": True}


def nan_latency_executor(scenario: Scenario) -> dict:
    return {**cheap_executor(scenario), "latency": float("nan")}


def one_more_message_executor(scenario: Scenario) -> dict:
    return {**cheap_executor(scenario), "messages": 11}


def no_agreement_executor(scenario: Scenario) -> dict:
    return {**cheap_executor(scenario), "agreement": False}


def nudged_latency_executor(scenario: Scenario) -> dict:
    summary = cheap_executor(scenario)
    return {**summary, "latency": summary["latency"] + 1e-12}


def no_latency_executor(scenario: Scenario) -> dict:
    summary = cheap_executor(scenario)
    del summary["latency"]
    return summary


BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


class TestSuiteRunner:
    def test_serial_runs_every_scenario_in_order(self):
        cells = small_matrix(replicates=1).scenarios()
        suite = SuiteRunner().run(cells)
        assert [outcome.scenario for outcome in suite] == cells
        assert suite.solved_rate == 1.0
        assert not suite.errors

    def test_serial_and_pool_results_are_identical(self):
        # The acceptance bar of the experiments layer: a process pool must
        # yield byte-identical per-scenario summary dicts to the serial path.
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner().run(cells)
        pooled = SuiteRunner(backend=PoolBackend(2)).run(cells)
        assert serial.summaries() == pooled.summaries()
        assert [o.scenario for o in serial] == [o.scenario for o in pooled]

    def test_collect_all_records_errors(self):
        cells = small_matrix(replicates=2).scenarios()
        suite = SuiteRunner(executor=flaky_executor).run(cells)
        assert len(suite) == len(cells)
        assert len(suite.errors) == 2  # one failing replicate per graph
        assert all("boom" in outcome.error for outcome in suite.errors)
        assert all(not outcome.solved for outcome in suite.errors)

    def test_fail_fast_raises(self):
        cells = small_matrix(replicates=2).scenarios()
        with pytest.raises(SuiteExecutionError, match="boom"):
            SuiteRunner(executor=flaky_executor, fail_fast=True).run(cells)

    def test_pool_collects_errors_too(self):
        cells = small_matrix(replicates=2).scenarios()
        suite = SuiteRunner(executor=flaky_executor, backend=PoolBackend(2)).run(cells)
        assert len(suite.errors) == 2

    def test_progress_callback(self):
        cells = small_matrix(replicates=1).scenarios()
        seen = []
        runner = SuiteRunner(
            executor=cheap_executor,
            progress=lambda done, total, outcome: seen.append((done, total, outcome.scenario.name)),
        )
        runner.run(cells)
        assert [done for done, _total, _name in seen] == list(range(1, len(cells) + 1))
        assert all(total == len(cells) for _done, total, _name in seen)


class TestSuiteResult:
    def suite(self):
        return SuiteRunner(executor=cheap_executor).run(small_matrix(replicates=3).scenarios())

    def test_group_stats_by_label(self):
        stats = self.suite().group_stats("graph")
        assert len(stats) == 2
        for group in stats.values():
            assert group.runs == 3
            assert group.solved_rate == 1.0
            assert group.total_messages == 30
            assert group.mean_latency == pytest.approx(2.0)
            assert group.median_latency == pytest.approx(2.0)
            assert group.p95_latency == pytest.approx(3.0)

    def test_group_stats_by_callable(self):
        stats = self.suite().group_stats(lambda scenario: scenario.label("replicate"))
        assert sorted(stats) == [0, 1, 2]

    def test_json_export_round_trip(self):
        suite = self.suite()
        payload = json.loads(json.dumps(suite.to_dict(group_by="graph")))
        assert payload["runs"] == len(suite)
        assert payload["solved_rate"] == 1.0
        assert len(payload["outcomes"]) == len(suite)
        assert len(payload["groups"]) == 2

    def test_json_export_carries_every_outcome_field(self):
        suite = self.suite()
        records = suite.to_dict()["outcomes"]
        assert len(records) == len(suite)
        for record, outcome in zip(records, suite, strict=True):
            scenario = record["scenario"]
            assert scenario["name"] == outcome.scenario.name
            assert scenario["seed"] == outcome.scenario.seed
            assert {"matrix", "graph", "mode", "replicate"} <= set(scenario["labels"])
            assert record["summary"]["messages"] == 10
            assert record["summary"]["latency"] == scenario["labels"]["replicate"] + 1.0
            assert record["solved"] is True
            assert record["error"] is None

    def test_json_export_records_the_error_of_a_failed_cell(self):
        suite = SuiteRunner(executor=flaky_executor).run(small_matrix(replicates=2).scenarios())
        payload = suite.to_dict()
        assert payload["errors"] == 2
        failed = [record for record in payload["outcomes"] if record["error"] is not None]
        assert len(failed) == 2
        for record in failed:
            assert "boom" in record["error"]
            assert record["summary"] is None
            assert record["solved"] is False
            assert record["scenario"]["labels"]["replicate"] == 1

    def test_render_mentions_groups(self):
        table = self.suite().render(group_by="graph")
        assert "fig1b" in table

    def test_mean_messages_is_none_without_the_metric(self):
        # A custom executor that never reports "messages" must not fabricate
        # a zero-message statistic.
        suite = SuiteRunner(executor=no_messages_executor).run(
            small_matrix(replicates=1).scenarios()
        )
        for stats in suite.group_stats("graph").values():
            assert stats.mean_messages is None
            assert stats.total_messages == 0

    def test_numeric_group_keys_sort_numerically(self):
        suite = SuiteRunner(executor=cheap_executor).run(small_matrix(replicates=12).scenarios())
        payload = suite.to_dict(group_by="replicate")
        keys = [group["key"] for group in payload["groups"]]
        assert keys == list(range(12))  # not 0, 1, 10, 11, 2, ...


class TestTrajectoryJson:
    def test_holds_only_the_gated_metrics(self):
        cells = small_matrix(replicates=1).scenarios()
        assert len(cells) == 2
        trajectory = json.loads(SuiteRunner(executor=cheap_executor).run(cells).trajectory_json("graph"))
        assert set(trajectory) == {"runs", "errors", "solved_rate", "groups"}
        assert (trajectory["runs"], trajectory["errors"], trajectory["solved_rate"]) == (2, 0, 1.0)
        assert len(trajectory["groups"]) == 2
        for row in trajectory["groups"]:
            assert "wall_time" not in row
            assert row["runs"] == 1 and row["total_messages"] == 10

    def test_a_non_finite_metric_raises(self):
        suite = SuiteRunner(executor=nan_latency_executor).run(small_matrix(replicates=1).scenarios())
        with pytest.raises(ValueError):
            suite.trajectory_json("graph")

    def test_serial_and_pool_write_the_same_bytes(self):
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner().run(cells).trajectory_json("graph")
        pooled = SuiteRunner(backend=PoolBackend(2)).run(cells).trajectory_json("graph")
        assert serial == pooled

    def trajectory(self, executor=cheap_executor, replicates: int = 1, group_by="graph") -> str:
        cells = small_matrix(replicates=replicates).scenarios()
        return SuiteRunner(executor=executor).run(cells).trajectory_json(group_by)

    def test_is_canonical_json_with_one_trailing_newline(self):
        text = self.trajectory(replicates=2)
        canonical = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert text == canonical
        assert not text.endswith("\n\n")

    def test_wall_times_do_not_reach_the_bytes(self):
        cells = small_matrix(replicates=2).scenarios()
        suite = SuiteRunner(executor=cheap_executor).run(cells)
        before = suite.trajectory_json("graph")
        for index, outcome in enumerate(suite.outcomes):
            outcome.wall_time = 1000.0 + index
        suite.wall_time = 12345.0
        assert suite.trajectory_json("graph") == before

    @pytest.mark.parametrize(
        "executor",
        [one_more_message_executor, no_agreement_executor, nudged_latency_executor, no_latency_executor],
        ids=["messages", "solved", "latency-below-any-tolerance", "metric-disappears"],
    )
    def test_a_changed_metric_changes_the_bytes(self, executor):
        assert self.trajectory(executor) != self.trajectory()

    def test_a_changed_group_set_changes_the_bytes(self):
        assert self.trajectory(replicates=2, group_by="replicate") != self.trajectory(
            replicates=1, group_by="replicate"
        )

    def test_errors_are_pinned_per_suite_and_per_group(self):
        trajectory = json.loads(self.trajectory(flaky_executor, replicates=2))
        assert (trajectory["runs"], trajectory["errors"], trajectory["solved_rate"]) == (4, 2, 0.5)
        assert [(row["runs"], row["errors"], row["solved"]) for row in trajectory["groups"]] == [
            (2, 1, 1),
            (2, 1, 1),
        ]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")], ids=["inf", "-inf"])
    def test_an_infinite_metric_raises(self, value):
        def executor(scenario: Scenario) -> dict:
            return {**cheap_executor(scenario), "latency": value}

        with pytest.raises(ValueError):
            self.trajectory(executor)

    def test_a_non_json_group_key_is_written_as_its_repr(self):
        trajectory = json.loads(self.trajectory(group_by=lambda scenario: ProtocolMode.BFT_CUPFT))
        assert [row["key"] for row in trajectory["groups"]] == [repr(ProtocolMode.BFT_CUPFT)]
        assert trajectory["groups"][0]["runs"] == 2

    def test_committed_baselines_are_canonical(self):
        paths = sorted(BASELINES.glob("BENCH_*.json"))
        assert len(paths) == 11
        for path in paths:
            text = path.read_text()
            payload = json.loads(text)
            assert set(payload) == {"runs", "errors", "solved_rate", "groups"}, path.name
            canonical = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
            assert text == canonical, path.name


@pytest.mark.parametrize("path", sorted(BASELINES.glob("BENCH_*.json")), ids=lambda path: path.stem)
def test_committed_baseline_rows_add_up(path):
    """Each pinned group row agrees with the suite totals it was grouped from."""
    trajectory = json.loads(path.read_text())
    groups = trajectory["groups"]
    assert groups, path.name
    assert sum(row["runs"] for row in groups) == trajectory["runs"]
    assert sum(row["errors"] for row in groups) == trajectory["errors"]
    assert sum(row["solved"] for row in groups) / trajectory["runs"] == pytest.approx(
        trajectory["solved_rate"]
    )
    assert len({json.dumps(row["key"]) for row in groups}) == len(groups)
    for row in groups:
        assert "wall_time" not in row
        assert row["solved"] + row["errors"] <= row["runs"]
        assert row["solved_rate"] == row["solved"] / row["runs"]
        if row["median_latency"] is not None:
            assert row["median_latency"] <= row["p95_latency"]
