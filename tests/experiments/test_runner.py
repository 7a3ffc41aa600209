"""Tests for the suite runner and the result aggregation/export layer."""

import json

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
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
        pooled = SuiteRunner(processes=2).run(cells)
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
        suite = SuiteRunner(executor=flaky_executor, processes=2).run(cells)
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

    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            SuiteRunner(processes=0)


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

    def test_json_export_round_trip(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = self.suite()
        suite.to_json(path, group_by="graph")
        payload = json.loads(path.read_text())
        assert payload["runs"] == len(suite)
        assert payload["solved_rate"] == 1.0
        assert len(payload["outcomes"]) == len(suite)
        assert len(payload["groups"]) == 2

    def test_json_export_carries_every_outcome_field(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = self.suite()
        suite.to_json(path)
        records = json.loads(path.read_text())["outcomes"]
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

    def test_json_export_records_the_error_of_a_failed_cell(self, tmp_path):
        path = tmp_path / "suite.json"
        suite = SuiteRunner(executor=flaky_executor).run(small_matrix(replicates=2).scenarios())
        suite.to_json(path)
        payload = json.loads(path.read_text())
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
