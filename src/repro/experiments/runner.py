"""Suite execution over pluggable backends, checkpointed by the result lake.

The runner is the only component that materialises scenarios: it turns each
declarative :class:`~repro.experiments.scenario.Scenario` into a
:class:`~repro.analysis.harness.RunConfig` (graph, nodes, network, keys)
*inside the executing process*, so scenarios cross process boundaries as
plain data and the per-run construction never needs to be pickled.

Where the cells execute is delegated to an
:class:`~repro.experiments.backends.ExecutionBackend`:
:class:`~repro.experiments.backends.SerialBackend` in-process (the default),
:class:`~repro.experiments.backends.PoolBackend` on a local process pool,
or :class:`~repro.experiments.backends.WorkQueueBackend` sharded across
independent worker processes through a filesystem job queue.  Execution is
deterministic: results are collected in scenario order and the per-scenario
summaries are identical across backends (each run is self-contained and
fully seeded by its scenario).  A run returns every cell's outcome or
raises; there is no partial result.

Passing ``store=`` (a :class:`~repro.experiments.lake.ResultStore` or its
root path) consults the content-addressable result lake *before* any cell
is dispatched to a backend, and stores every fresh successful outcome into
it the moment the cell finishes — so identical cells are computed once
**across sweeps**, and a killed sweep re-run with the same store continues
where it stopped: the resulting
:class:`~repro.experiments.results.SuiteResult` stitches stored and fresh
outcomes back into scenario order, indistinguishable from an uninterrupted
run.  Hits and misses surface as
``SuiteResult.cache_hits`` / ``cache_misses``.  Lake hits require the
executor to declare a cache identity
(:func:`~repro.experiments.lake.executor_identity`); undigested executors
bypass the store with a warning, so a hit can never return a result
computed by different code.
"""

from __future__ import annotations

import time  # lint: allow-file[DET-SEED-CLOCK] operational timing: per-cell wall-time reporting only; seeds come from derive_seed
import warnings
from collections.abc import Callable, Iterable
from typing import Any

from repro.experiments.backends.base import ExecutionBackend, Executor
from repro.experiments.backends.local import SerialBackend
from repro.experiments.lake import (
    ResultStore,
    executor_digest_of,
    executor_identity,
    outcome_payload,
    result_key,
)
from repro.experiments.results import ScenarioOutcome, SuiteResult
from repro.experiments.scenario import Scenario
from repro.graphs.search_memo import sink_search_memo

#: Progress callbacks receive (completed, total, outcome).
ProgressCallback = Callable[[int, int, ScenarioOutcome], None]


class SuiteExecutionError(RuntimeError):
    """Raised in fail-fast mode when a scenario execution fails."""

    def __init__(self, scenario: Scenario, error: str) -> None:
        super().__init__(f"scenario {scenario.name!r} failed: {error}")
        self.scenario = scenario
        self.error = error


# Version 2: summaries gained the crypto fast-path counters (verify_calls,
# verify_cache_hits, canonical_cache_hits), so lake entries computed by the
# counter-less executor must not be replayed as hits.
@executor_identity("2")
def execute_scenario(scenario: Scenario) -> dict[str, Any]:
    """Default executor: build the run config, simulate, return the summary.

    The returned dictionary is exactly ``RunResult.summary()``, which keeps
    serial, pool and work-queue executions byte-identical.
    """
    from repro.analysis.harness import run_consensus
    from repro.workloads.builders import scenario_run_config

    config = scenario_run_config(scenario)
    return run_consensus(config).summary()


class SuiteRunner:
    """Execute a list of scenarios on a pluggable execution backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.experiments.backends.ExecutionBackend`: the
        default ``None`` runs in-process on a :class:`SerialBackend`;
        ``PoolBackend(n)`` runs on a local pool of ``n`` processes, and a
        :class:`~repro.experiments.backends.WorkQueueBackend` shards the
        suite across independent worker processes.
    executor:
        The per-scenario executor (default: :func:`execute_scenario`, which
        runs the full consensus simulation).  Custom executors let suites
        drive other harnesses (e.g. the discovery-only baselines) through
        the same matrix/aggregation machinery; they must be module-level
        callables to cross process boundaries.
    fail_fast:
        When true, the first failing scenario raises
        :class:`SuiteExecutionError` (in-flight backend work is torn down);
        otherwise failures are collected as error outcomes and the suite
        completes.
    progress:
        Optional callback invoked after every completed scenario with
        ``(completed, total, outcome)``, in completion order.
    """

    def __init__(
        self,
        *,
        backend: ExecutionBackend | None = None,
        executor: Executor = execute_scenario,
        fail_fast: bool = False,
        progress: ProgressCallback | None = None,
    ) -> None:
        self.backend = backend
        self.executor = executor
        self.fail_fast = fail_fast
        self.progress = progress

    # ------------------------------------------------------------------
    def run(
        self,
        scenarios: Iterable[Scenario],
        *,
        store: ResultStore | str | None = None,
    ) -> SuiteResult:
        """Execute every scenario and return the aggregated suite result.

        With ``store`` (a :class:`ResultStore` or its root path), the result
        lake is the checkpoint: it is consulted before any cell reaches the
        backend, stored successful outcomes are stitched in bit-identically
        (same summary, same recorded wall time), and every freshly completed
        successful cell is stored the moment it finishes.  Failures are
        never stored, so a killed sweep re-run with the same store continues
        where it stopped and retries exactly the cells that failed.
        """
        cells = list(scenarios)
        backend = self.backend if self.backend is not None else SerialBackend()
        lake = self._resolve_lake(store)
        started = time.perf_counter()

        outcomes: list[ScenarioOutcome | None] = [None] * len(cells)
        cache_hits = 0
        keys: list[str] = []
        if lake is not None:
            exec_digest = executor_digest_of(self.executor)
            assert exec_digest is not None  # _resolve_lake dropped the store otherwise
            keys = [result_key(scenario.cell_digest(), exec_digest) for scenario in cells]
            for index, key in enumerate(keys):
                payload = lake.get(key)
                # Only successful outcomes are served from the lake (failures
                # are not stored, but stay defensive about foreign writers) —
                # and the recorded wall time is reused, so a warm export is
                # bit-identical to the cold one.
                if payload is None or payload.get("error") is not None:
                    continue
                outcomes[index] = ScenarioOutcome(
                    scenario=cells[index],
                    summary=payload.get("summary"),
                    error=None,
                    wall_time=float(payload.get("wall_time") or 0.0),
                )
                cache_hits += 1

        pending = [(index, cells[index]) for index in range(len(cells)) if outcomes[index] is None]
        completed = cache_hits
        if pending:
            results = backend.execute(pending, self.executor)
            try:
                for index, summary, error, wall in results:
                    completed += 1
                    outcome = self._finish(cells[index], summary, error, wall, completed, len(cells))
                    outcomes[index] = outcome
                    if lake is not None and outcome.error is None:
                        lake.put(
                            keys[index],
                            outcome_payload(
                                outcome.scenario.name,
                                outcome.summary,
                                outcome.wall_time,
                            ),
                        )
            finally:
                # Close generator backends promptly (fail-fast must tear down
                # in-flight pool/queue work now, not when the traceback that
                # references this frame is eventually collected).
                close = getattr(results, "close", None)
                if close is not None:
                    close()

        finished = [outcome for outcome in outcomes if outcome is not None]
        if len(finished) < len(cells):
            missing = next(cell for cell, outcome in zip(cells, outcomes) if outcome is None)
            raise RuntimeError(
                f"backend {backend.name!r} finished without an outcome for cell {missing.name!r}"
            )
        return SuiteResult(
            finished,
            wall_time=time.perf_counter() - started,
            processes=getattr(backend, "processes", 1),
            backend=backend.name,
            memo_stats=sink_search_memo().stats(),
            cache_hits=cache_hits if lake is not None else None,
            cache_misses=len(cells) - cache_hits if lake is not None else None,
        )

    # ------------------------------------------------------------------
    def _resolve_lake(self, store: ResultStore | str | None) -> ResultStore | None:
        if store is None:
            return None
        if executor_digest_of(self.executor) is None:
            # Cache-identity safety: without a declared executor digest a
            # lake key would be the bare cell digest, and a hit could return
            # a result computed by *different code*.  Bypass instead.
            warnings.warn(
                f"executor {getattr(self.executor, '__qualname__', self.executor)!r} declares "
                "no cache identity (see repro.experiments.lake.executor_identity); "
                "bypassing the result lake for this run",
                stacklevel=3,
            )
            return None
        return store if isinstance(store, ResultStore) else ResultStore(store)

    def _finish(
        self,
        scenario: Scenario,
        summary: dict[str, Any] | None,
        error: str | None,
        wall: float,
        completed: int,
        total: int,
    ) -> ScenarioOutcome:
        if error is not None and self.fail_fast:
            raise SuiteExecutionError(scenario, error)
        outcome = ScenarioOutcome(
            scenario=scenario,
            summary=summary,
            error=error,
            wall_time=wall,
        )
        if self.progress is not None:
            self.progress(completed, total, outcome)
        return outcome


__all__ = ["SuiteRunner", "SuiteExecutionError", "execute_scenario"]
