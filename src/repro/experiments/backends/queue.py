"""A filesystem-backed work queue that shards suites across processes.

The queue is a directory any number of independent worker processes (on
any machine sharing the filesystem) can drain concurrently::

    <root>/
      pending/<digest>.json            one JSON job file per scenario cell
      claimed/<digest>--<worker>.json  jobs being executed (atomic-rename claims)
      done/<digest>.json               jobs whose outcome has been journaled
      outcomes/<worker>.jsonl          per-worker outcome shards, one line per cell
      workers/<worker>.alive           heartbeat files (mtime = last sign of life)
      workers/<worker>.log             stdout/stderr of coordinator-spawned workers

The protocol needs no locks beyond the filesystem's atomic rename:

* **Claiming** — a worker claims a job by renaming it from ``pending/``
  into ``claimed/`` with its own id in the filename; whoever's rename
  succeeds owns the cell, losers simply move on.
* **Reporting** — the worker appends the outcome to its own JSONL shard
  (flushed + fsynced), *then* moves the claim to ``done/``; a crash between
  the two at worst re-executes a cell, and the coordinator deduplicates
  outcomes by digest.
* **Reclamation** — workers refresh a heartbeat file continuously (a
  background thread beats every quarter lease, even while a long cell is
  executing); a claim whose worker heartbeat is older than the lease is
  renamed back to ``pending/``, so cells owned by *dead* workers are
  re-executed instead of stranding the sweep.

Because job files are digest-named and outcomes are journaled in the queue
directory itself, the directory doubles as a checkpoint: re-running a
coordinator over the same directory re-enqueues only the cells that never
completed and stitches the rest from the existing shards — that is how a
sweep killed mid-run is resumed.  Only cells and outcomes travel through the
queue: the cross-sweep cache behind ``SuiteRunner.run(store=...)`` is read
and written by the coordinator alone.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time  # lint: allow-file[DET-SEED-CLOCK] operational timing: lease deadlines and heartbeats are wall-clock by design
import warnings
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.experiments.backends.base import CellResult, CellTask, Executor, resolve_executor

#: Separator between digest and worker id in claimed-job filenames.  Safe
#: because digests are hex and worker ids are sanitised.
_CLAIM_SEP = "--"

_WORKER_ID_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


class WorkQueueError(RuntimeError):
    """A work-queue sweep cannot make progress (stalled, misconfigured...)."""


def sanitize_worker_id(worker_id: str) -> str:
    """Make a worker id safe to embed in filenames."""
    cleaned = _WORKER_ID_SAFE.sub("_", worker_id).replace(_CLAIM_SEP, "_")
    if not cleaned:
        raise ValueError("worker id must contain at least one filename-safe character")
    return cleaned


def executor_reference(executor: Executor) -> str:
    """Encode an executor as an importable ``module:qualname`` reference.

    Work-queue workers are independent processes that cannot unpickle
    closures, so the executor must be a module-level callable importable by
    every worker; this validates that by resolving the reference back and
    checking it names the same object.
    """
    module = getattr(executor, "__module__", None)
    qualname = getattr(executor, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise WorkQueueError(
            f"executor {executor!r} is not a module-level callable; work-queue "
            "executors must be importable as module:name from every worker"
        )
    if module == "__main__":
        raise WorkQueueError(
            "executor is defined in __main__, which workers cannot import; "
            "move it into a module"
        )
    reference = f"{module}:{qualname}"
    if resolve_executor(reference) is not executor:
        raise WorkQueueError(f"executor reference {reference!r} does not round-trip to the same callable")
    return reference


#: One claimed cell, exactly as its job file (and the TCP ``claim`` reply)
#: carries it: ``digest``, ``index``, the declarative ``scenario`` dict and the
#: ``executor`` reference.
Job = dict[str, Any]


def outcome_record(
    job: Job,
    worker_id: str,
    *,
    summary: dict[str, Any] | None,
    error: str | None,
    wall_time: float,
) -> dict[str, Any]:
    """The journal record of one finished job.

    The single owner of the record shape: directory workers append it to
    their shard, TCP workers upload it for the server to append, and the
    coordinator reads it back — identical across transports apart from
    ``worker``.
    """
    scenario = job.get("scenario")
    return {
        "digest": job["digest"],
        "scenario": scenario.get("name") if isinstance(scenario, dict) else None,
        "summary": summary,
        "error": error,
        "wall_time": wall_time,
        "worker": sanitize_worker_id(worker_id),
    }


class WorkQueue:
    """Coordinator- and worker-side operations on one queue directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.pending = self.root / "pending"
        self.claimed = self.root / "claimed"
        self.done = self.root / "done"
        self.outcomes = self.root / "outcomes"
        self.workers = self.root / "workers"
        for directory in (self.pending, self.claimed, self.done, self.outcomes, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    # Coordinator side ------------------------------------------------------
    def enqueue(self, cells: Sequence[CellTask], executor_ref: str) -> dict[str, list[int]]:
        """Write one job file per cell not already queued, claimed or done.

        Returns the digest -> suite indexes mapping the collector needs to
        stitch outcomes back (duplicate scenarios share one job).
        """
        index_of: dict[str, list[int]] = {}
        for index, scenario in cells:
            digest = scenario.cell_digest()
            indexes = index_of.setdefault(digest, [])
            first_sighting = not indexes
            indexes.append(index)
            if not first_sighting or self._job_known(digest):
                continue
            job = {
                "digest": digest,
                "index": index,
                "scenario": scenario.to_dict(),
                "executor": executor_ref,
            }
            staging = self.pending / f".{digest}.tmp"
            staging.write_text(json.dumps(job, indent=2) + "\n")
            staging.replace(self.pending / f"{digest}.json")
        return index_of

    def _job_known(self, digest: str) -> bool:
        if (self.pending / f"{digest}.json").exists() or (self.done / f"{digest}.json").exists():
            return True
        return any(self.claimed.glob(f"{digest}{_CLAIM_SEP}*.json"))

    def read_new_outcomes(self, offsets: dict[str, int]) -> list[dict[str, Any]]:
        """Tail every outcome shard past the byte offsets seen so far.

        Only complete (newline-terminated) lines are consumed, so a shard
        mid-append is simply picked up on the next poll.
        """
        records: list[dict[str, Any]] = []
        for shard in sorted(self.outcomes.glob("*.jsonl")):
            key = shard.name
            offset = offsets.get(key, 0)
            with open(shard, encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
            complete, _, _partial = chunk.rpartition("\n")
            if not complete:
                continue
            offsets[key] = offset + len(complete.encode()) + 1
            for line in complete.splitlines():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # blank or corrupt line: skip it, keep the rest
                if isinstance(record, dict) and "digest" in record:
                    records.append(record)
        return records

    def reclaim_expired(self, lease: float) -> list[str]:
        """Move claims of dead workers (stale/missing heartbeat) back to pending."""
        now = time.time()
        reclaimed: list[str] = []
        for claim in sorted(self.claimed.glob("*.json")):
            digest, sep, worker = claim.stem.partition(_CLAIM_SEP)
            if not sep:
                continue
            heartbeat = self.workers / f"{worker}.alive"
            try:
                age = now - heartbeat.stat().st_mtime
            except FileNotFoundError:
                age = float("inf")
            if age <= lease:
                continue
            try:
                claim.rename(self.pending / f"{digest}.json")
            except FileNotFoundError:
                continue  # the worker finished (or another reclaimer won) meanwhile
            reclaimed.append(digest)
        return reclaimed

    def is_drained(self) -> bool:
        """True when no job is pending or claimed (all executed or reclaimable)."""
        return not any(self.pending.glob("*.json")) and not any(self.claimed.glob("*.json"))

    def requeue_done(self, digest: str, executor_ref: str | None = None) -> bool:
        """Move a completed job back to pending (to retry a journaled failure).

        Optionally rewrites the job's executor reference to the current
        coordinator's, so a failure caused by a broken executor heals once
        the executor is fixed.  Returns ``False`` when the job is not in
        ``done/`` (e.g. it is pending or claimed right now).
        """
        done_path = self.done / f"{digest}.json"
        try:
            job = json.loads(done_path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        if executor_ref is not None:
            job["executor"] = executor_ref
        staging = self.pending / f".{digest}.tmp"
        staging.write_text(json.dumps(job, indent=2) + "\n")
        staging.replace(self.pending / f"{digest}.json")
        done_path.unlink(missing_ok=True)
        return True

    def snapshot(self) -> dict[str, int]:
        """Queue-state counters for progress reports and error messages."""
        return {
            "pending": sum(1 for _ in self.pending.glob("*.json")),
            "claimed": sum(1 for _ in self.claimed.glob("*.json")),
            "done": sum(1 for _ in self.done.glob("*.json")),
        }

    # Worker side -----------------------------------------------------------
    def heartbeat(self, worker_id: str) -> None:
        """Record that ``worker_id`` is alive (leases key off this file's mtime)."""
        path = self.workers / f"{sanitize_worker_id(worker_id)}.alive"
        path.write_text(f"{time.time()}\n")

    def claim(self, worker_id: str) -> Job | None:
        """Atomically claim one pending job, or return ``None`` if none won."""
        worker = sanitize_worker_id(worker_id)
        for candidate in sorted(self.pending.glob("*.json")):
            digest = candidate.stem
            claim_path = self.claimed / f"{digest}{_CLAIM_SEP}{worker}.json"
            try:
                candidate.rename(claim_path)
            except FileNotFoundError:
                continue  # another worker won the rename race
            try:
                job = json.loads(claim_path.read_text())
                return {
                    "digest": job["digest"],
                    "index": int(job.get("index", -1)),
                    "scenario": job["scenario"],
                    "executor": job["executor"],
                }
            except (ValueError, KeyError, TypeError, AttributeError, OSError):
                # Unreadable job file: report it as a failed cell (keyed by the
                # filename digest) so the coordinator is not left waiting.  A
                # readable job with a corrupt scenario or executor reference
                # fails later, inside execute_cell's envelope.
                self.report(
                    worker,
                    {"digest": digest},
                    summary=None,
                    error=f"corrupt job file {candidate.name}",
                    wall_time=0.0,
                )
                continue
        return None

    def report(
        self,
        worker_id: str,
        job: Job,
        *,
        summary: dict[str, Any] | None,
        error: str | None,
        wall_time: float,
    ) -> None:
        """Durably journal one outcome, then mark the job done."""
        record = outcome_record(job, worker_id, summary=summary, error=error, wall_time=wall_time)
        self.journal_record(worker_id, record)

    def journal_record(self, worker_id: str, record: dict[str, Any]) -> None:
        """Durably append one outcome record to ``worker_id``'s shard.

        The record must carry at least a ``digest``; the matching claim (if
        this worker still holds one) is moved to ``done/``.  This is the
        single write path for outcomes: local workers call it through
        :meth:`report`, and the TCP :class:`QueueServer` journals uploaded
        records through it — so the on-disk format, durability (flush +
        fsync) and claim bookkeeping are identical across transports.
        """
        worker = sanitize_worker_id(worker_id)
        digest = record["digest"]
        try:
            line = json.dumps(record)
        except TypeError:
            # A custom executor returned non-JSON values: the shard stays
            # usable, but the coordinator reads the values back as strings.
            warnings.warn(
                f"outcome of job {digest} is not JSON-serialisable; journaling "
                "a repr-encoded record (the coordinator will see strings)",
                stacklevel=2,
            )
            line = json.dumps(record, default=repr)
        shard = self.outcomes / f"{worker}.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        claim_path = self.claimed / f"{digest}{_CLAIM_SEP}{worker}.json"
        try:
            claim_path.rename(self.done / f"{digest}.json")
        except FileNotFoundError:
            pass  # claim was reclaimed while we executed; the outcome still counts


class QueueWorker:
    """One worker's side of a queue directory.

    The surface :func:`repro.experiments.worker.drain` is written against
    (:class:`~repro.experiments.backends.remote.RemoteQueueClient` is its TCP
    twin): claim / report / heartbeat / idle / close.  What is particular to
    the directory transport lives here — the heartbeat file refreshed before
    every claim, and reclaiming the expired claims of dead workers while idle
    (so a fleet is self-healing).
    """

    def __init__(
        self,
        queue: WorkQueue | str | Path,
        worker_id: str,
        *,
        lease: float = 60.0,
        poll_interval: float = 0.1,
    ) -> None:
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self.worker_id = worker_id
        self.lease = lease
        self.poll_interval = poll_interval
        #: A quarter lease, so a claim is only reclaimed when the worker
        #: process actually died, not because one cell outran the lease.
        self.heartbeat_interval = max(min(lease / 4.0, 15.0), 0.05)

    def heartbeat(self) -> None:
        self.queue.heartbeat(self.worker_id)

    def claim(self) -> Job | None:
        self.heartbeat()
        return self.queue.claim(self.worker_id)

    def report(
        self, job: Job, *, summary: dict[str, Any] | None, error: str | None, wall_time: float
    ) -> None:
        self.queue.report(self.worker_id, job, summary=summary, error=error, wall_time=wall_time)

    def idle(self) -> None:
        """Nothing to claim: heal the queue, then wait one poll interval."""
        self.queue.reclaim_expired(self.lease)
        time.sleep(self.poll_interval)

    def close(self) -> None:
        """Nothing buffered: every report is durable before it returns."""


def _cell_results(indexes: Sequence[int], record: dict[str, Any]) -> Iterator[CellResult]:
    """One :data:`CellResult` per suite index sharing ``record``'s digest."""
    for index in indexes:
        yield (
            index,
            record.get("summary"),
            record.get("error"),
            float(record.get("wall_time") or 0.0),
        )


class WorkQueueBackend:
    """Run a suite by enqueuing cells and collecting journaled outcomes.

    Parameters
    ----------
    root:
        The queue directory.  Reusing a directory resumes it: cells whose
        outcomes are already journaled there are not re-enqueued.
    workers:
        Number of local worker processes to spawn (``python -m
        repro.experiments.worker``).  ``0`` means the queue is drained
        entirely by externally launched workers (other machines, cron, a
        cluster scheduler).
    poll_interval / lease / idle_timeout:
        Collector poll cadence, heartbeat lease after which a dead worker's
        claim is reclaimed (live workers heartbeat every quarter lease even
        while executing a long cell), and how long spawned workers linger
        on an idle queue.
    timeout:
        Optional overall deadline in seconds for the sweep.
    """

    name = "work-queue"

    def __init__(
        self,
        root: str | Path,
        *,
        workers: int = 0,
        poll_interval: float = 0.1,
        lease: float = 60.0,
        idle_timeout: float = 10.0,
        timeout: float | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.root = Path(root)
        self.workers = workers
        self.poll_interval = poll_interval
        self.lease = lease
        self.idle_timeout = idle_timeout
        self.timeout = timeout
        #: The worker processes spawned by the current execute() call, exposed
        #: so harnesses (e.g. the CI chaos smoke) can kill one mid-sweep.
        self.procs: list[subprocess.Popen[bytes]] = []

    @property
    def processes(self) -> int:
        return self.workers if self.workers else 1

    def execute(self, cells: Sequence[CellTask], executor: Executor) -> Iterator[CellResult]:
        queue = WorkQueue(self.root)
        reference = executor_reference(executor)
        index_of = queue.enqueue(cells, reference)
        outstanding = set(index_of)
        offsets: dict[str, int] = {}

        # Stitch outcomes journaled by a previous life of this queue
        # directory: successes are yielded straight away; failures are
        # re-enqueued (with the current executor reference) so transient
        # errors heal on resume.
        journaled: dict[str, dict[str, Any]] = {}
        for record in queue.read_new_outcomes(offsets):
            if record["digest"] in outstanding:
                journaled[record["digest"]] = record  # later records win
        for digest, record in journaled.items():
            if record.get("error") is None or not queue.requeue_done(digest, reference):
                outstanding.discard(digest)
                yield from _cell_results(index_of[digest], record)

        procs: list[subprocess.Popen[bytes]] = []
        started = time.monotonic()
        dead_worker_strikes = 0
        try:
            if outstanding:
                self._setup(queue)
                procs = self.procs = [self._spawn(queue, worker) for worker in range(self.workers)]
            while outstanding:
                progressed = False
                for record in queue.read_new_outcomes(offsets):
                    digest = record["digest"]
                    if digest not in outstanding:
                        continue  # duplicate report (reclaimed + finished twice)
                    outstanding.discard(digest)
                    progressed = True
                    yield from _cell_results(index_of[digest], record)
                if not outstanding:
                    break
                reclaimed = queue.reclaim_expired(self.lease)
                if (
                    procs
                    and not progressed
                    and not reclaimed
                    and all(proc.poll() is not None for proc in procs)
                ):
                    # A worker may have journaled its final outcome and exited
                    # between our shard read and this liveness check: loop one
                    # more time (re-reading the shards) before declaring a
                    # stall, to avoid a spurious failure on a completed sweep.
                    dead_worker_strikes += 1
                    if dead_worker_strikes >= 2:
                        raise WorkQueueError(
                            f"all {len(procs)} local workers exited with {len(outstanding)} "
                            f"cells outstanding ({queue.snapshot()}); see {queue.workers}/*.log"
                        )
                else:
                    dead_worker_strikes = 0
                if self.timeout is not None and time.monotonic() - started > self.timeout:
                    raise WorkQueueError(
                        f"work-queue sweep exceeded {self.timeout}s with "
                        f"{len(outstanding)} cells outstanding ({queue.snapshot()})"
                    )
                time.sleep(self.poll_interval)
        finally:
            self._shutdown(procs)
            self._teardown()

    # Transport hooks --------------------------------------------------------
    # The collect loop above is transport-agnostic; subclasses specialise
    # how workers reach the queue (RemoteWorkQueueBackend starts a TCP
    # server in _setup and hands workers --connect instead of --queue);
    # fresh outcome records come from the shards on every transport.
    def _setup(self, queue: WorkQueue) -> None:
        """Start transport infrastructure before any worker is spawned."""

    def _teardown(self) -> None:
        """Tear down whatever :meth:`_setup` started (always called)."""

    def _worker_command(self, queue: WorkQueue, worker_id: str) -> list[str]:
        """The argv used to spawn one local worker process."""
        return [
            sys.executable,
            "-m",
            "repro.experiments.worker",
            "--queue",
            str(self.root),
            "--worker-id",
            worker_id,
            "--poll-interval",
            str(self.poll_interval),
            "--lease",
            str(self.lease),
            "--idle-timeout",
            str(self.idle_timeout),
        ]

    # Local worker processes -------------------------------------------------
    def _spawn(self, queue: WorkQueue, number: int) -> "subprocess.Popen[bytes]":
        worker_id = f"local-{os.getpid()}-{number}"
        log = open(queue.workers / f"{worker_id}.log", "ab")
        command = self._worker_command(queue, worker_id)
        env = dict(os.environ)
        # Propagate the coordinator's import path so executors defined in
        # repo-local modules (benchmarks, tests, scripts) resolve in workers.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        try:
            return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()

    def _shutdown(self, procs: "list[subprocess.Popen[bytes]]") -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


__all__ = [
    "Job",
    "QueueWorker",
    "WorkQueue",
    "WorkQueueBackend",
    "WorkQueueError",
    "executor_reference",
    "outcome_record",
    "resolve_executor",
    "sanitize_worker_id",
]
