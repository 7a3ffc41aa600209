"""The experiment orchestration layer.

* :mod:`repro.experiments.scenario` -- declarative :class:`Scenario` cells,
  :class:`GraphSpec` / :class:`SynchronySpec` references and the
  :class:`ScenarioMatrix` cartesian sweep builder with deterministic
  per-cell seed derivation (scenarios serialise to JSON and carry a stable
  ``cell_digest`` for result-lake and job-queue identity);
* :mod:`repro.experiments.backends` -- the :class:`ExecutionBackend`
  protocol and its implementations: :class:`SerialBackend`,
  :class:`PoolBackend` (local ``multiprocessing``),
  :class:`WorkQueueBackend` (a filesystem job queue drained by independent
  worker processes) and :class:`RemoteWorkQueueBackend` (the same queue
  served over TCP to workers on any machine);
* :mod:`repro.experiments.runner` -- :class:`SuiteRunner`, executing suites
  on any backend with progress callbacks, fail-fast / collect-all error
  handling and the result lake as its checkpoint (``run(..., store=...)``);
* :mod:`repro.experiments.worker` -- the ``python -m
  repro.experiments.worker`` CLI that drains a work-queue directory
  (``--queue DIR``) or a TCP queue server (``--connect HOST:PORT``) through
  one loop;
* :mod:`repro.experiments.queue_server` -- the ``python -m
  repro.experiments.queue_server`` CLI serving a queue directory over TCP;
* :mod:`repro.experiments.lake` -- the content-addressable
  :class:`ResultStore` behind ``SuiteRunner.run(..., store=...)``: a
  digest-keyed cell cache shared across sweeps and backends, read and
  written by the coordinator alone — re-running a killed sweep against it
  resumes the sweep;
* :mod:`repro.experiments.regression` -- benchmark-trajectory comparison
  against committed ``BENCH_*.json`` baselines (the CI regression gate);
* :mod:`repro.experiments.results` -- :class:`SuiteResult` aggregation
  (per-group mean/median/p95 latency, message totals, solved-rate) with
  JSON export.
"""

from repro.core.seeding import derive_seed
from repro.experiments.backends import (
    ExecutionBackend,
    PoolBackend,
    QueueServer,
    RemoteQueueClient,
    RemoteQueueError,
    RemoteWorkQueueBackend,
    SerialBackend,
    WorkQueue,
    WorkQueueBackend,
    WorkQueueError,
    execute_cell,
)
from repro.experiments.lake import (
    ResultStore,
    executor_digest_of,
    executor_identity,
    result_key,
)
from repro.experiments.results import GroupStats, ScenarioOutcome, SuiteResult
from repro.experiments.runner import SuiteExecutionError, SuiteRunner, execute_scenario
from repro.adversary.schedule import (
    CrashRule,
    DelayRule,
    NetworkSchedule,
    PartitionRule,
    ScheduleContractError,
    ScheduleError,
)
from repro.experiments.scenario import (
    AdversaryMix,
    GraphSpec,
    Scenario,
    ScenarioMatrix,
    SynchronySpec,
    chain_matrices,
)

__all__ = [
    "AdversaryMix",
    "NetworkSchedule",
    "DelayRule",
    "PartitionRule",
    "CrashRule",
    "ScheduleError",
    "ScheduleContractError",
    "GraphSpec",
    "SynchronySpec",
    "Scenario",
    "ScenarioMatrix",
    "chain_matrices",
    "SuiteRunner",
    "SuiteExecutionError",
    "execute_scenario",
    "execute_cell",
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "WorkQueue",
    "WorkQueueBackend",
    "WorkQueueError",
    "QueueServer",
    "RemoteQueueClient",
    "RemoteQueueError",
    "RemoteWorkQueueBackend",
    "ResultStore",
    "executor_identity",
    "executor_digest_of",
    "result_key",
    "ScenarioOutcome",
    "GroupStats",
    "SuiteResult",
    "derive_seed",
]
