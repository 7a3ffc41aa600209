"""Tests for the content-addressable result lake and its runner wiring.

Executors are referenced as ``test_lake:<name>`` (pytest imports this file
as a top-level module), so they resolve both in-process and in spawned
queue workers.
"""

import hashlib
import json
import threading
from pathlib import Path

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    RemoteWorkQueueBackend,
    ResultStore,
    ScenarioMatrix,
    SerialBackend,
    SuiteRunner,
    WorkQueueBackend,
    executor_digest_of,
    executor_identity,
    result_key,
)
from repro.experiments.lake import canonical_json


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="lake",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=23,
    )


# Module-level so queue workers can resolve it as "test_lake:lake_executor".
@executor_identity("1")
def lake_executor(scenario) -> dict:
    return {
        "terminated": True,
        "agreement": True,
        "validity": True,
        "messages": scenario.seed % 97,
        "latency": float(scenario.label("replicate", 0)) + 1.0,
    }


def undigested_executor(scenario) -> dict:
    return {"terminated": True, "agreement": True, "validity": True}


class CountingSerialBackend(SerialBackend):
    """A serial backend that counts how many cells it actually executes."""

    def __init__(self):
        self.executed = 0

    def execute(self, cells, executor):
        self.executed += len(cells)
        yield from super().execute(cells, executor)


def volatile_stripped(payload: dict) -> dict:
    payload = dict(payload)
    for key in ("wall_time", "sink_search_memo", "cache_hits", "cache_misses"):
        payload.pop(key, None)
    return payload


class TestStoreRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        payload = {"summary": {"messages": 4}, "error": None, "wall_time": 0.25}
        digest = store.put("k1", payload)
        assert digest == hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert store.get("k1") == payload
        assert "k1" in store
        assert len(store) == 1 and store.keys() == ["k1"]
        assert store.get("missing") is None

    def test_put_is_idempotent_and_last_writer_wins(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k", {"v": 1})
        before = (tmp_path / "lake" / "index.jsonl").read_text()
        store.put("k", {"v": 1})
        assert (tmp_path / "lake" / "index.jsonl").read_text() == before
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        # A fresh instance replays the append-only index identically.
        assert ResultStore(tmp_path / "lake").get("k") == {"v": 2}

    def test_non_serialisable_payload_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="not JSON-serialisable"):
            assert store.put("k", {"bad": object()}) is None
        assert store.get("k") is None

    def test_concurrent_put_of_one_object_does_not_collide(self, tmp_path, monkeypatch):
        # Another writer sharing the lake storing the same object between
        # this writer's staging write and its rename must not take the
        # staging file from under it.
        payload = {"summary": {"messages": 3}}
        original_replace = Path.replace
        interleaved = []

        def replace(staging, target):
            if not interleaved:
                interleaved.append(staging.name)
                other = ResultStore(tmp_path / "lake")
                worker = threading.Thread(target=other.put, args=("k", payload))
                worker.start()
                worker.join()
            return original_replace(staging, target)

        monkeypatch.setattr(Path, "replace", replace)
        store = ResultStore(tmp_path / "lake")
        digest = store.put("k", payload)
        assert interleaved and store.get("k") == payload
        assert not list(store._object_path(digest).parent.glob(".*.tmp"))

    def test_objects_are_content_addressed_and_shared_across_keys(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        first = store.put("k1", {"a": 1, "b": [2, 3]})
        # Key order does not change the canonical bytes, so both keys share
        # one object stored at objects/<aa>/<rest-of-digest>.
        second = store.put("k2", {"b": [2, 3], "a": 1})
        assert first == second
        path = store._object_path(first)
        assert path == tmp_path / "lake" / "objects" / first[:2] / first[2:]
        assert path.read_text() == canonical_json({"a": 1, "b": [2, 3]})
        assert [p for p in store.objects_dir.rglob("*") if p.is_file()] == [path]
        assert store.keys() == ["k1", "k2"]

    def test_store_on_a_missing_root_is_empty_until_first_put(self, tmp_path):
        store = ResultStore(tmp_path / "absent")
        assert len(store) == 0 and store.keys() == [] and "k" not in store
        assert store.get("k") is None
        assert not (tmp_path / "absent").exists()
        store.put("k", {"v": 1})
        assert store.index_path.exists()
        assert ResultStore(tmp_path / "absent").keys() == ["k"]

    def test_many_threads_putting_one_object_all_succeed(self, tmp_path):
        payload = {"summary": {"messages": 9}}
        digests: list = []
        errors: list = []

        def put(index):
            try:
                digests.append(ResultStore(tmp_path / "lake").put(f"k{index}", payload))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=put, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(set(digests)) == 1 and len(digests) == 8
        fresh = ResultStore(tmp_path / "lake")
        assert fresh.keys() == [f"k{i}" for i in range(8)]
        assert all(fresh.get(f"k{i}") == payload for i in range(8))
        assert not list(fresh.objects_dir.rglob("*.tmp"))


class TestCorruptionRecovery:
    def test_corrupt_loose_object_degrades_to_miss_and_heals(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        payload = {"summary": {"messages": 7}}
        digest = store.put("k", payload)
        path = store._object_path(digest)
        path.write_text('{"summary": {"messages": 8}}')
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.get("k") is None
        assert not path.exists()  # quarantined
        # Re-putting the true payload heals the store in place.
        assert store.put("k", payload) == digest
        assert store.get("k") == payload
        assert path.exists()

    def test_corrupt_index_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k", {"v": 1})
        with open(store.index_path, "a") as handle:
            handle.write('{"key": "trunc')
        fresh = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="corrupt lake line"):
            assert fresh.get("k") == {"v": 1}

    def test_index_line_naming_a_path_outside_the_lake_is_skipped(self, tmp_path):
        # An object digest is a path under objects/: a non-digest could make
        # the corrupt-object quarantine unlink an arbitrary file.
        victim = tmp_path / "victim.txt"
        victim.write_text("not a lake object")
        store = ResultStore(tmp_path / "lake")
        store.index_path.parent.mkdir(parents=True, exist_ok=True)
        store.index_path.write_text(json.dumps({"key": "k", "object": f"xx{victim}"}) + "\n")
        with pytest.warns(UserWarning, match="corrupt lake line"):
            assert store.get("k") is None
        assert victim.read_text() == "not a lake object"

    def test_truncated_object_degrades_to_miss_and_heals(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        payload = {"summary": {"messages": 11}}
        digest = store.put("k", payload)
        path = store._object_path(digest)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.get("k") is None
        assert not path.exists()
        assert store.put("k", payload) == digest
        assert ResultStore(tmp_path / "lake").get("k") == payload

    def test_missing_object_is_a_silent_miss_and_heals(self, tmp_path, recwarn):
        store = ResultStore(tmp_path / "lake")
        digest = store.put("k", {"v": 1})
        store._object_path(digest).unlink()
        assert store.get("k") is None
        assert not recwarn.list
        assert "k" in store  # the index entry survives; only the object is gone
        assert store.put("k", {"v": 1}) == digest
        assert store.get("k") == {"v": 1}

    def test_well_formed_but_foreign_index_lines_are_ignored(self, tmp_path, recwarn):
        store = ResultStore(tmp_path / "lake")
        store.put("k", {"v": 1})
        with open(store.index_path, "a") as handle:
            handle.write("\n[1, 2]\n")
            handle.write('{"key": 3, "object": "abc"}\n')
            handle.write('{"key": "other"}\n')
        fresh = ResultStore(tmp_path / "lake")
        assert fresh.keys() == ["k"]
        assert fresh.get("k") == {"v": 1}
        assert not recwarn.list

    def test_put_after_a_truncated_index_tail_is_replayed(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k1", {"v": 1})
        with open(store.index_path, "a") as handle:
            handle.write('{"key": "k2", "obj\n')
        with pytest.warns(UserWarning, match="corrupt lake line"):
            resumed = ResultStore(tmp_path / "lake")
            assert resumed.get("k2") is None
        resumed.put("k2", {"v": 2})
        with pytest.warns(UserWarning, match="corrupt lake line"):
            fresh = ResultStore(tmp_path / "lake")
            assert fresh.keys() == ["k1", "k2"]
        assert fresh.get("k2") == {"v": 2}


class TestCacheIdentity:
    def test_executor_identity_digest(self):
        assert executor_digest_of(lake_executor) == "test_lake:lake_executor@1"
        assert executor_digest_of(undigested_executor) is None
        assert result_key("cell", "a@1") != result_key("cell", "a@2")
        with pytest.raises(ValueError):
            executor_identity("")

    def test_undigested_executor_bypasses_the_lake_with_a_warning(self, tmp_path):
        scenarios = small_matrix(replicates=1).scenarios()
        runner = SuiteRunner(executor=undigested_executor)
        store = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="cache identity"):
            suite = runner.run(scenarios, store=store)
        assert suite.cache_hits is None and suite.cache_misses is None
        assert len(store) == 0
        # And the export carries no lake keys, keeping baselines byte-stable.
        assert "cache_hits" not in suite.to_dict(group_by="mode")


class TestRunnerIntegration:
    def test_cold_then_warm_run_is_bit_identical_with_zero_executions(self, tmp_path):
        scenarios = small_matrix().scenarios()
        store = ResultStore(tmp_path / "lake")
        cold_backend = CountingSerialBackend()
        cold = SuiteRunner(executor=lake_executor, backend=cold_backend).run(
            scenarios, store=store
        )
        assert cold.cache_hits == 0 and cold.cache_misses == len(scenarios)
        assert cold_backend.executed == len(scenarios)

        warm_backend = CountingSerialBackend()
        warm = SuiteRunner(executor=lake_executor, backend=warm_backend).run(
            scenarios, store=store
        )
        assert warm.cache_hits == len(scenarios) and warm.cache_misses == 0
        assert warm_backend.executed == 0  # every cell came from the lake
        cold_payload = volatile_stripped(cold.to_dict(group_by="mode"))
        warm_payload = volatile_stripped(warm.to_dict(group_by="mode"))
        assert canonical_json(warm_payload) == canonical_json(cold_payload)
        # Hit outcomes reuse the recorded wall time, so even the per-outcome
        # export (inside the stripped payload above) is bit-identical.
        assert [o.wall_time for o in warm.outcomes] == [o.wall_time for o in cold.outcomes]

    def test_default_executor_has_a_digest(self, tmp_path):
        scenarios = small_matrix(replicates=1).scenarios()[:1]
        store = ResultStore(tmp_path / "lake")
        suite = SuiteRunner().run(scenarios, store=store)
        assert suite.cache_misses == 1
        warm = SuiteRunner().run(scenarios, store=store)
        assert warm.cache_hits == 1
        assert warm.outcomes[0].summary == suite.outcomes[0].summary

    def test_failed_outcomes_are_not_cached(self, tmp_path):
        scenarios = small_matrix(replicates=1).scenarios()[:1]
        store = ResultStore(tmp_path / "lake")

        calls = {"n": 0}

        @executor_identity("1")
        def flaky(scenario):
            calls["n"] += 1
            raise RuntimeError("boom")

        suite = SuiteRunner(executor=flaky).run(scenarios, store=store)
        assert suite.errors and len(store) == 0
        retry = SuiteRunner(executor=flaky).run(scenarios, store=store)
        assert retry.cache_hits == 0 and calls["n"] == 2  # re-executed, not served


class TestQueueBackendLake:
    """A queue sweep is checkpointed by the coordinator, not its workers."""

    def cold_then_warm(self, tmp_path, backend_class):
        cells = small_matrix(replicates=1).scenarios()
        lake = ResultStore(tmp_path / "lake")
        cold_backend = backend_class(tmp_path / "q1", workers=1, poll_interval=0.02, timeout=120.0)
        cold = SuiteRunner(backend=cold_backend, executor=lake_executor).run(cells, store=lake)
        assert cold.cache_misses == len(cells) and len(lake) == len(cells)
        assert not cold.errors

        warm_backend = backend_class(tmp_path / "q2", workers=1, poll_interval=0.02, timeout=120.0)
        warm = SuiteRunner(backend=warm_backend, executor=lake_executor).run(cells, store=lake)
        assert warm.cache_hits == len(cells)
        assert warm_backend.procs == []  # no worker spawned
        assert list((tmp_path / "q2").rglob("*.json")) == []  # no job file written
        assert warm.summaries() == cold.summaries()
        assert [o.wall_time for o in warm.outcomes] == [o.wall_time for o in cold.outcomes]

    def test_coordinator_alone_reads_and_writes_the_lake(self, tmp_path):
        self.cold_then_warm(tmp_path, RemoteWorkQueueBackend)

    def test_directory_queue_coordinator_alone_reads_and_writes_the_lake(self, tmp_path):
        self.cold_then_warm(tmp_path, WorkQueueBackend)
