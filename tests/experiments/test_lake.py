"""Tests for the content-addressable result lake and its runner/worker wiring.

Executors are referenced as ``test_lake:<name>`` (pytest imports this file
as a top-level module), so they resolve both in-process and in worker
drains.
"""

import json

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    QueueServer,
    RemoteQueueClient,
    ResultStore,
    ScenarioMatrix,
    SerialBackend,
    SuiteRunner,
    WorkQueue,
    executor_digest_of,
    executor_identity,
    result_key,
)
from repro.experiments.backends.queue import QueueWorker
from repro.experiments.lake import canonical_json, object_hash
from repro.experiments.worker import drain


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="lake",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=23,
    )


# Module-level so worker drains can resolve it as "test_lake:lake_executor".
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


EXECUTOR_REF = "test_lake:lake_executor"


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
        assert digest == object_hash(payload)
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

    def test_history_append_and_tail(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        for index in range(3):
            store.append_history("bench-a", f"c{index}", {"runs": index}, python="3.12")
        store.append_history("bench-b", "c9", {"runs": 99})
        records = store.history("bench-a")
        assert [r["commit"] for r in records] == ["c0", "c1", "c2"]
        assert records[0]["payload"] == {"runs": 0}
        assert records[0]["python"] == "3.12"
        assert [r["commit"] for r in store.history("bench-a", last=2)] == ["c1", "c2"]


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
        assert store.verify() == []

    def test_corrupt_pack_entry_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        digest = store.put("k", {"v": 1})
        assert store.pack() == 1
        pack = next(store.packs_dir.glob("*.pack"))
        pack.write_text(json.dumps({"hash": digest, "object": {"v": 2}}) + "\n")
        fresh = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="corrupt"):
            assert fresh.get("k") is None
        assert any("mismatch" in problem for problem in fresh.verify())

    def test_truncated_pack_tail_only_loses_the_partial_line(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k1", {"v": 1})
        store.put("k2", {"v": 2})
        assert store.pack() == 2
        pack = next(store.packs_dir.glob("*.pack"))
        lines = pack.read_text().splitlines()
        pack.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        fresh = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="corrupt lake line"):
            values = {key: fresh.get(key) for key in ("k1", "k2")}
        survivors = {key: v for key, v in values.items() if v is not None}
        # Entries are digest-ordered in the pack, so either key may survive —
        # but exactly one does, and its payload is intact.
        assert len(survivors) == 1
        (key, payload), = survivors.items()
        assert payload == {"v": int(key[1])}

    def test_corrupt_index_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k", {"v": 1})
        with open(store.index_path, "a") as handle:
            handle.write('{"key": "trunc')
        fresh = ResultStore(tmp_path / "lake")
        with pytest.warns(UserWarning, match="corrupt lake line"):
            assert fresh.get("k") == {"v": 1}


class TestPackAndGc:
    def test_pack_folds_loose_objects_and_reads_still_hit(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        digests = [store.put(f"k{i}", {"v": i}) for i in range(4)]
        assert store.pack() == 4
        assert not any(store._object_path(d).exists() for d in digests)
        for i in range(4):
            assert store.get(f"k{i}") == {"v": i}
        assert store.verify() == []

    def test_gc_drops_superseded_objects_and_keeps_history(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        old = store.put("k", {"v": "old"})
        kept_by_history = store.put("h", {"v": "snapshot"})
        store.append_history("bench", "c1", {"v": "snapshot"})
        store.put("k", {"v": "new"})
        stats = store.gc()
        assert stats["keys"] == 2
        assert stats["objects_dropped"] == 1
        assert not store._object_path(old).exists()
        assert store._object_path(kept_by_history).exists()
        assert store.get("k") == {"v": "new"}
        assert store.history("bench")[0]["payload"] == {"v": "snapshot"}
        assert store.verify() == []

    def test_gc_rewrites_packs_dropping_unreferenced_entries(self, tmp_path):
        store = ResultStore(tmp_path / "lake")
        store.put("k", {"v": "old"})
        store.pack()
        store.put("k", {"v": "new"})
        stats = store.gc()
        assert stats["objects_dropped"] == 1
        fresh = ResultStore(tmp_path / "lake")
        assert fresh.get("k") == {"v": "new"}
        assert fresh.verify() == []


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


class TestWorkerLake:
    def test_directory_worker_serves_and_feeds_the_lake(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        store = ResultStore(tmp_path / "lake")
        exec_digest = executor_digest_of(lake_executor)
        keys = {
            s.cell_digest(): result_key(s.cell_digest(), exec_digest) for s in cells
        }

        queue = WorkQueue(tmp_path / "q1")
        queue.enqueue(list(enumerate(cells)), EXECUTOR_REF, keys)
        assert drain(QueueWorker(queue, "w1", lake=store), idle_timeout=0.2) == len(cells)
        assert len(store) == len(cells)
        stored = {key: store.get(key) for key in keys.values()}

        # A second queue over the same cells is served entirely from the lake:
        # summaries and wall times equal the stored outcomes bit-for-bit.
        queue2 = WorkQueue(tmp_path / "q2")
        queue2.enqueue(list(enumerate(cells)), EXECUTOR_REF, keys)
        assert drain(QueueWorker(queue2, "w2", lake=store), idle_timeout=0.2) == len(cells)
        records = queue2.read_new_outcomes({})
        assert len(records) == len(cells)
        for record in records:
            payload = stored[keys[record["digest"]]]
            assert record["summary"] == payload["summary"]
            assert record["wall_time"] == payload["wall_time"]


class TestRemoteSharedHits:
    def test_tcp_fleet_shares_hits_through_the_queue_server(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        store = ResultStore(tmp_path / "lake")
        exec_digest = executor_digest_of(lake_executor)
        keys = {
            s.cell_digest(): result_key(s.cell_digest(), exec_digest) for s in cells
        }

        queue1 = WorkQueue(tmp_path / "q1")
        queue1.enqueue(list(enumerate(cells)), EXECUTOR_REF, keys)
        with QueueServer(queue1, store=store) as server:
            drained = drain(RemoteQueueClient(server.address, "w1"), idle_timeout=0.5)
        assert drained == len(cells)
        assert len(store) == len(cells)
        stored = {key: store.get(key) for key in keys.values()}

        queue2 = WorkQueue(tmp_path / "q2")
        queue2.enqueue(list(enumerate(cells)), EXECUTOR_REF, keys)
        with QueueServer(queue2, store=store) as server:
            drained = drain(RemoteQueueClient(server.address, "w2"), idle_timeout=0.5)
        assert drained == len(cells)
        records = queue2.read_new_outcomes({})
        assert len(records) == len(cells)
        for record in records:
            payload = stored[keys[record["digest"]]]
            assert record["summary"] == payload["summary"]
            assert record["wall_time"] == payload["wall_time"]
