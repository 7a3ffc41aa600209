"""Tests for the durable outcome records (round-trips, corruption tolerance).

Two things are durable: the result lake (the checkpoint a re-run sweep
resumes from) and the per-worker outcome shards of a queue directory.  Both
must survive the debris of a crashed writer.
"""

import json
import warnings

import pytest

from repro.experiments import (
    GraphSpec,
    ResultStore,
    Scenario,
    SuiteRunner,
    WorkQueue,
    WorkQueueBackend,
    executor_identity,
)
from repro.experiments.lake import outcome_payload


@executor_identity("1")
def store_executor(scenario: Scenario) -> dict:
    return {"terminated": True, "messages": scenario.seed, "latency": 34.5}


def cells(count: int = 2) -> list[Scenario]:
    return [
        Scenario(name=f"cell-{seed}", graph=GraphSpec.figure("fig1b"), seed=seed)
        for seed in range(count)
    ]


class TestRoundTrip:
    def test_record_and_load_preserves_types(self, tmp_path):
        summary = {"terminated": True, "messages": 12, "latency": 34.5}
        ResultStore(tmp_path / "lake").put("k1", outcome_payload("cell", summary, 0.25))
        record = ResultStore(tmp_path / "lake").get("k1")
        assert record["summary"] == summary
        assert record["error"] is None
        assert record["wall_time"] == 0.25
        assert record["scenario"] == "cell"
        assert set(record) == {"scenario", "summary", "error", "wall_time"}

    def test_duplicate_digest_keeps_latest_record(self, tmp_path):
        # Two shard records for one cell (reclaimed and finished twice): the
        # coordinator stitches the later one.
        (scenario,) = cells(1)
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue([(0, scenario)], "test_store:store_executor")
        job = queue.claim("w1")
        queue.report("w1", job, summary={"messages": 1}, error=None, wall_time=0.1)
        queue.report("w1", job, summary={"messages": 2}, error=None, wall_time=0.1)
        backend = WorkQueueBackend(tmp_path / "q", workers=0, timeout=30.0, poll_interval=0.01)
        suite = SuiteRunner(backend=backend, executor=store_executor).run([scenario])
        assert suite.summaries() == [{"messages": 2}]

    def test_missing_journal_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope")
        assert len(store) == 0 and store.keys() == []
        assert store.get("k1") is None
        assert WorkQueue(tmp_path / "q").read_new_outcomes({}) == []

    def test_non_json_summary_degrades_with_warning(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with pytest.warns(UserWarning, match="not JSON-serialisable"):
            queue.report(
                "w1", {"digest": "d1"}, summary={"value": object()}, error=None, wall_time=0.0
            )
        (record,) = queue.read_new_outcomes({})
        assert record["digest"] == "d1"
        assert record["summary"]["value"].startswith("<object object")


class TestCorruptionTolerance:
    def good_line(self, key: str, store: ResultStore) -> str:
        return json.dumps({"key": key, "object": store.put(key, {"summary": {"cell": key}})})

    def test_corrupt_lines_are_skipped_with_warning(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        lines = [
            self.good_line("k1", store),
            "{{{ this is not json",
            json.dumps([1, 2, 3]),  # valid JSON, but not an object
            json.dumps({"key": "k-incomplete"}),  # names no object
            self.good_line("k2", store),
        ]
        store.index_path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            keys = ResultStore(tmp_path / "lake").keys()
        assert keys == ["k1", "k2"]
        assert sum("corrupt lake line" in str(w.message) for w in caught) == 1

    def test_truncated_final_line_is_skipped(self, tmp_path):
        # The classic crash signature: the last checkpoint append was cut
        # short.  The re-run resumes the intact cell and re-executes the other.
        scenarios = cells(2)
        baseline = SuiteRunner(executor=store_executor).run(scenarios, store=str(tmp_path / "lake"))
        index = tmp_path / "lake" / "index.jsonl"
        index.write_text(index.read_text()[:-25])
        with pytest.warns(UserWarning, match="corrupt"):
            resumed = SuiteRunner(executor=store_executor).run(scenarios, store=str(tmp_path / "lake"))
        assert (resumed.cache_hits, resumed.cache_misses) == (1, 1)
        assert resumed.summaries() == baseline.summaries()

    def test_blank_lines_are_ignored_silently(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.index_path.write_text(self.good_line("k1", store) + "\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            assert ResultStore(tmp_path / "lake").keys() == ["k1"]

    def test_len_and_contains(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.index_path.write_text(self.good_line("k1", store) + "\n")
        fresh = ResultStore(tmp_path / "lake")
        assert len(fresh) == 1
        assert "k1" in fresh
        assert "k2" not in fresh
