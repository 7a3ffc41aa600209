"""Tests for the filesystem work queue, the worker CLI and the queue backend.

The in-process tests reference executors by ``test_workqueue:<name>``: the
queue ships executors as importable references, and pytest imports this
file as a top-level module, so the references resolve both in this process
and in spawned workers (the backend propagates ``sys.path``).
"""

import json

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    ScenarioMatrix,
    SuiteRunner,
    WorkQueue,
    WorkQueueBackend,
    WorkQueueError,
)
from repro.experiments.backends.queue import (
    QueueWorker,
    executor_reference,
    resolve_executor,
    sanitize_worker_id,
)
from repro.experiments.backends.base import execute_cell
from repro.experiments.worker import drain, main


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="wq",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=11,
    )


# Module-level so workers can resolve it as "test_workqueue:queue_executor".
def queue_executor(scenario) -> dict:
    return {
        "terminated": True,
        "agreement": True,
        "validity": True,
        "messages": scenario.seed % 97,
        "latency": float(scenario.label("replicate", 0)) + 1.0,
    }


def raising_executor(scenario) -> dict:
    raise RuntimeError(f"cell {scenario.name} always fails")


def slow_executor(scenario) -> dict:
    import time as _time

    _time.sleep(0.5)
    return queue_executor(scenario)


EXECUTOR_REF = "test_workqueue:queue_executor"
RAISING_REF = "test_workqueue:raising_executor"
SLOW_REF = "test_workqueue:slow_executor"


def run_by_hand(queue: WorkQueue, worker_id: str, jobs: int) -> None:
    """Claim, execute and report ``jobs`` jobs as ``worker_id``, no drain loop."""
    for _ in range(jobs):
        job = queue.claim(worker_id)
        assert job is not None
        _index, summary, error, wall_time = execute_cell(
            (job["index"], job["scenario"], job["executor"])
        )
        queue.report(worker_id, job, summary=summary, error=error, wall_time=wall_time)


class TestQueuePrimitives:
    def test_enqueue_claim_report_cycle(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cells = list(enumerate(small_matrix(replicates=1).scenarios()))
        index_of = queue.enqueue(cells, EXECUTOR_REF)
        assert len(index_of) == len(cells)
        assert queue.snapshot() == {"pending": len(cells), "claimed": 0, "done": 0}

        job = queue.claim("worker-a")
        assert job is not None
        assert queue.snapshot()["claimed"] == 1
        assert job["executor"] == EXECUTOR_REF

        queue.report("worker-a", job, summary={"ok": True}, error=None, wall_time=0.1)
        snapshot = queue.snapshot()
        assert snapshot["done"] == 1 and snapshot["claimed"] == 0
        records = queue.read_new_outcomes({})
        assert len(records) == 1
        assert records[0]["digest"] == job["digest"]
        assert records[0]["summary"] == {"ok": True}

    def test_enqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        cells = list(enumerate(small_matrix(replicates=1).scenarios()))
        queue.enqueue(cells, EXECUTOR_REF)
        queue.enqueue(cells, EXECUTOR_REF)
        assert queue.snapshot()["pending"] == len(cells)

    def test_duplicate_scenarios_share_one_job(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        scenario = small_matrix(replicates=1).scenarios()[0]
        index_of = queue.enqueue([(0, scenario), (1, scenario)], EXECUTOR_REF)
        assert queue.snapshot()["pending"] == 1
        assert list(index_of.values()) == [[0, 1]]

    def test_partial_outcome_lines_are_not_consumed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        shard = queue.outcomes / "w.jsonl"
        complete = json.dumps({"digest": "d1", "summary": None, "error": None, "wall_time": 0})
        shard.write_text(complete + "\n" + '{"digest": "d2", "summ')
        offsets: dict[str, int] = {}
        records = queue.read_new_outcomes(offsets)
        assert [r["digest"] for r in records] == ["d1"]
        # Completing the line later makes it visible from the saved offset.
        with open(shard, "a") as handle:
            handle.write('ary": null, "error": null, "wall_time": 0}\n')
        records = queue.read_new_outcomes(offsets)
        assert [r["digest"] for r in records] == ["d2"]

    def test_sanitize_worker_id(self):
        assert sanitize_worker_id("host-1.example/pid:7") == "host-1.example_pid_7"
        assert "--" not in sanitize_worker_id("a--b")
        with pytest.raises(ValueError):
            sanitize_worker_id("")


class TestExecutorReferences:
    def test_reference_round_trips(self):
        assert executor_reference(queue_executor) == EXECUTOR_REF
        assert resolve_executor(EXECUTOR_REF) is queue_executor

    def test_lambda_is_rejected(self):
        with pytest.raises(WorkQueueError, match="module-level"):
            executor_reference(lambda scenario: {})

    def test_nested_function_is_rejected(self):
        def nested(scenario):
            return {}

        with pytest.raises(WorkQueueError, match="module-level"):
            executor_reference(nested)

    def test_malformed_reference_is_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_executor("no-colon-here")


class TestDrainAndCollect:
    def test_two_sequential_workers_match_serial(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner(executor=queue_executor).run(cells)

        root = tmp_path / "q"
        queue = WorkQueue(root)
        queue.enqueue(list(enumerate(cells)), EXECUTOR_REF)
        run_by_hand(queue, "w1", 2)
        assert drain(QueueWorker(queue, "w2"), idle_timeout=0.2) == len(cells) - 2
        assert queue.is_drained()
        # Each worker journaled its own shard.
        assert sorted(p.name for p in queue.outcomes.glob("*.jsonl")) == ["w1.jsonl", "w2.jsonl"]

        backend = WorkQueueBackend(root, workers=0, timeout=30.0, poll_interval=0.01)
        collected = SuiteRunner(backend=backend, executor=queue_executor).run(cells)
        assert collected.summaries() == serial.summaries()
        assert [o.scenario for o in collected] == [o.scenario for o in serial]
        assert collected.backend == "work-queue"

    def test_duplicate_cells_each_get_an_outcome(self, tmp_path):
        scenario = small_matrix(replicates=1).scenarios()[0]
        cells = [scenario, scenario]
        root = tmp_path / "q"
        WorkQueue(root).enqueue(list(enumerate(cells)), EXECUTOR_REF)
        drain(QueueWorker(root, "w1"), idle_timeout=0.2)
        backend = WorkQueueBackend(root, workers=0, timeout=30.0, poll_interval=0.01)
        suite = SuiteRunner(backend=backend, executor=queue_executor).run(cells)
        assert len(suite) == 2
        assert suite.summaries()[0] == suite.summaries()[1]

    def test_live_worker_errors_are_collected(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        backend = WorkQueueBackend(tmp_path / "q", workers=1, timeout=60.0, poll_interval=0.02)
        suite = SuiteRunner(backend=backend, executor=raising_executor).run(cells)
        assert len(suite.errors) == len(cells)
        assert all("always fails" in outcome.error for outcome in suite.errors)

    def test_journaled_failures_heal_on_queue_resume(self, tmp_path):
        # A previous life journaled errors (unresolvable executor); a new
        # coordinator with a working executor re-enqueues and heals them.
        cells = small_matrix(replicates=1).scenarios()
        root = tmp_path / "q"
        WorkQueue(root).enqueue(list(enumerate(cells)), "definitely_not_a_module:nope")
        assert drain(QueueWorker(root, "w1"), idle_timeout=0.2) == len(cells)
        backend = WorkQueueBackend(root, workers=1, timeout=60.0, poll_interval=0.02)
        suite = SuiteRunner(backend=backend, executor=queue_executor).run(cells)
        assert not suite.errors
        serial = SuiteRunner(executor=queue_executor).run(cells)
        assert suite.summaries() == serial.summaries()

    def test_lease_reclaims_jobs_of_dead_workers(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()[:1]
        root = tmp_path / "q"
        queue = WorkQueue(root)
        queue.enqueue(list(enumerate(cells)), EXECUTOR_REF)
        # A worker claims the job and dies without ever heartbeating.
        dead_job = queue.claim("dead-worker")
        assert dead_job is not None and queue.snapshot()["claimed"] == 1
        # A live worker reclaims and executes it.
        assert drain(QueueWorker(queue, "live", lease=0.0), idle_timeout=0.3) == 1
        assert queue.is_drained()
        records = queue.read_new_outcomes({})
        assert [r["worker"] for r in records] == ["live"]

    def test_long_cell_is_not_reclaimed_from_a_live_worker(self, tmp_path):
        # The heartbeat thread beats during execution, so a cell that runs
        # longer than the lease is NOT stolen from a healthy worker.
        import threading
        import time as _time

        cells = small_matrix(replicates=1).scenarios()[:1]
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(list(enumerate(cells)), SLOW_REF)
        reclaimed: list[str] = []
        worker = threading.Thread(
            target=lambda: drain(QueueWorker(queue, "steady", lease=0.2), idle_timeout=0.2),
            daemon=True,
        )
        worker.start()
        deadline = _time.monotonic() + 5.0
        while _time.monotonic() < deadline and not queue.snapshot()["done"]:
            reclaimed.extend(queue.reclaim_expired(0.2))  # a competing reclaimer
            _time.sleep(0.05)
        worker.join(timeout=5.0)
        assert queue.snapshot()["done"] == 1
        assert reclaimed == []  # the 0.5s cell outlived the 0.2s lease, unreclaimed
        assert len(queue.read_new_outcomes({})) == 1

    def test_collect_timeout_raises(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        backend = WorkQueueBackend(tmp_path / "q", workers=0, timeout=0.2, poll_interval=0.02)
        with pytest.raises(WorkQueueError, match="exceeded"):
            SuiteRunner(backend=backend, executor=queue_executor).run(cells)

    def test_worker_cli_parses_and_runs(self, tmp_path, capsys):
        root = tmp_path / "q"
        WorkQueue(root)  # create the directory layout
        assert main(["--queue", str(root), "--worker-id", "cli", "--idle-timeout", "0"]) == 0
        assert "executed 0 jobs" in capsys.readouterr().out


class TestConcurrentWorkers:
    """End-to-end acceptance: real sweeps, real subprocess workers."""

    def test_two_subprocess_workers_match_serial(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner().run(cells)  # default executor: full simulation
        backend = WorkQueueBackend(
            tmp_path / "q", workers=2, poll_interval=0.02, lease=60.0, timeout=120.0
        )
        sharded = SuiteRunner(backend=backend).run(cells)
        assert sharded.summaries() == serial.summaries()
        assert [o.scenario for o in sharded] == [o.scenario for o in serial]
        assert not sharded.errors and not sharded.skipped

    def test_killed_mid_run_then_resumed_matches_serial(self, tmp_path):
        """Acceptance: a sweep killed mid-run, resumed over the same queue dir."""
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner(executor=queue_executor).run(cells)

        root = tmp_path / "q"
        queue = WorkQueue(root)
        queue.enqueue(list(enumerate(cells)), EXECUTOR_REF)
        # The first coordinator's worker executes half the suite, then the
        # whole sweep is "killed" (nothing is collected).
        run_by_hand(queue, "first-life", len(cells) // 2)
        assert queue.snapshot()["done"] == len(cells) // 2

        # A fresh coordinator over the same directory re-enqueues only the
        # missing cells, spawns a worker to finish them, and stitches the
        # pre-crash outcomes from the existing shards.
        backend = WorkQueueBackend(root, workers=1, poll_interval=0.02, timeout=120.0)
        resumed = SuiteRunner(backend=backend, executor=queue_executor).run(cells)
        assert resumed.summaries() == serial.summaries()
        assert [o.scenario for o in resumed] == [o.scenario for o in serial]
        # The second life only executed the other half.
        first_shard = (queue.outcomes / "first-life.jsonl").read_text().strip().splitlines()
        assert len(first_shard) == len(cells) // 2
