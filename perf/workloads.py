"""The four benchmark workloads.

Each workload is a closed loop driven by this one process: ``setup`` turns
the benchmark seed into the inputs the program sees (``Scenario`` /
``RunConfig`` objects — the program never sees the seed itself), and
``repetition`` pushes those inputs through the program once, checks the
outputs and returns what was measured.  A repetition starts cold (search
memo cleared, garbage collected), because a user's run is a fresh process.

Functions of the program are called through their modules
(``harness.run_consensus``), never imported by name, so a traced pass sees
the wrapped versions.

Why each workload exists is recorded in its docstring, in BENCHMARK.json
and at length in ``perf/README.md``.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perf.guard import OperationTimeout, deadline, reap_children
from repro.analysis import harness
from repro.core.config import ProtocolMode
from repro.core.seeding import derive_seed
from repro.experiments import backends as backend_classes
from repro.experiments import runner as suite_runner
from repro.experiments.lake import ResultStore
from repro.experiments.scenario import (
    GraphSpec,
    Scenario,
    ScenarioMatrix,
    SynchronySpec,
    chain_matrices,
)
from repro.graphs.search_memo import sink_search_memo
from repro.runtime import harness as live_harness
from repro.workloads import builders

SIM_TIMEOUT_S = 60
LIVE_TIMEOUT_S = 30
PASS_TIMEOUT_S = 60
WORKERS = min(2, os.cpu_count() or 1)

#: Counts that a deterministic simulator must reproduce exactly.
EXACT_COUNTS = ("events", "messages", "sink_searches", "verify_calls")


@dataclass
class Repetition:
    """What one pass of a workload through the program measured."""

    run_s: float
    #: Units of work per host second (the unit is the workload's ``work_unit``).
    work_per_s: float
    #: Latency samples (ms) of the workload's user-visible operation.
    ops_ms: list[float]
    attempted: int
    failed: int
    #: Counts that must repeat exactly for the same inputs.
    counts: dict[str, int] = field(default_factory=dict)
    #: Numbers taken at layer boundaries without the tracer (public counters,
    #: per-pass wall times); they feed the per-layer metrics.
    detail: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def start_cold() -> None:
    sink_search_memo().clear()
    gc.collect()


def _partial_scenario(name: str, graph: GraphSpec, mode: ProtocolMode, behaviour: str, seed: int) -> Scenario:
    return Scenario(
        name=name,
        graph=graph,
        mode=mode,
        behaviour=behaviour,
        synchrony=SynchronySpec(kind="partial"),
        seed=seed,
    )


def warm_up() -> None:
    """One untimed n=200 run, so imports and first-call costs are paid before timing."""
    scenario = _partial_scenario(
        "warm-up",
        GraphSpec.bft_cup(f=1, non_sink_size=196, extra_edge_probability=0.0, seed=7),
        ProtocolMode.BFT_CUP,
        "silent",
        1,
    )
    harness.run_consensus(builders.scenario_run_config(scenario))


def _memo_counts() -> dict[str, int]:
    stats = sink_search_memo().stats()
    return {"hits": stats["hits"], "misses": stats["misses"], "evictions": stats["evictions"]}


def _simulate(config: harness.RunConfig, what: str) -> tuple[harness.RunResult | None, str | None]:
    """One simulated run under the hard limit: (result, problem)."""
    try:
        with deadline(SIM_TIMEOUT_S, what):
            result = harness.run_consensus(config)
    except OperationTimeout as error:
        return None, str(error)
    if not (result.consensus_solved and result.agreement):
        return result, f"{what}: consensus not solved with agreement"
    return result, None


def _add_sim_counters(detail: dict[str, float], counts: dict[str, int], result: harness.RunResult) -> None:
    counts["events"] = counts.get("events", 0) + result.events_processed
    counts["messages"] = counts.get("messages", 0) + result.messages_sent
    counts["sink_searches"] = counts.get("sink_searches", 0) + result.sink_searches
    counts["verify_calls"] = counts.get("verify_calls", 0) + result.verify_calls
    for key, value in (
        ("search_skips", result.search_skips),
        ("verify_cache_hits", result.verify_cache_hits),
        ("canonical_cache_hits", result.canonical_cache_hits),
        ("compactions", result.compactions),
    ):
        detail[key] = detail.get(key, 0) + value
    detail["pending_peak"] = max(detail.get("pending_peak", 0), result.pending_peak)


def _run_sim_cells(configs: list[tuple[str, harness.RunConfig]]) -> Repetition:
    """Run simulated cells back to back; shared by the two simulator workloads."""
    start_cold()
    memo_before = _memo_counts()
    counts: dict[str, int] = {}
    detail: dict[str, float] = {}
    problems: list[str] = []
    started = time.perf_counter()
    for what, config in configs:
        result, problem = _simulate(config, what)
        if problem is not None:
            problems.append(problem)
        if result is not None:
            _add_sim_counters(detail, counts, result)
    run_s = time.perf_counter() - started
    for key, value in _memo_counts().items():
        detail[f"memo_{key}"] = value - memo_before[key]
    return Repetition(
        run_s=run_s,
        work_per_s=counts.get("events", 0) / run_s,
        # Per-cell times of a mixed cell list form no distribution worth a
        # percentile (and vary by a quarter across seeds): the operation of
        # the simulator workloads is the whole pass.
        ops_ms=[run_s * 1000.0],
        attempted=len(configs),
        failed=len(problems),
        counts=counts,
        detail=detail,
        problems=problems,
    )


class _SimulatorWorkload:
    """A workload whose inputs are simulated cells run back to back."""

    def repetition(self, inputs: list[tuple[str, harness.RunConfig]], scratch: Path) -> Repetition:
        del scratch
        return _run_sim_cells(inputs)


class CupLargePartial(_SimulatorWorkload):
    """One large BFT-CUP run: n=5000, sparse graph, partial synchrony, silent Byzantine process.

    Engine, network and ``DiscoveryState.absorb`` do the work; graphs does
    little (thousands of incremental searches over a huge sparse view).
    """

    name = "cup_large_partial"
    work_unit = "simulated events"
    operation = "one consensus run"

    def setup(self, seed: int) -> list[tuple[str, harness.RunConfig]]:
        graph = GraphSpec.bft_cup(
            f=1,
            non_sink_size=4996,
            extra_edge_probability=0.0,
            seed=derive_seed(seed, self.name, "graph"),
        )
        scenario = _partial_scenario(
            self.name, graph, ProtocolMode.BFT_CUP, "silent", derive_seed(seed, self.name, "run")
        )
        return [(self.name, builders.scenario_run_config(scenario))]


class CupftCoreSearch(_SimulatorWorkload):
    """BFT-CUPFT core search over small dense views (the generator's default extra edges).

    ``repro.graphs`` is most of the time, engine and network are noise: the
    same graphs layer as in :class:`CupLargePartial`, used the other way round
    (many enumerations over a small dense view), so a representation change
    that helps one and costs the other shows.

    The cliff: with a ``lying_pd`` process the search is bimodal across
    seeds — ``(f=1, non_core=30)`` and ``(f=2, non_core=12)`` take 0.1 s on
    some seeds and over 20 s (one over nine minutes) on others, and
    ``(f=1, non_core=12)`` left 3 of 400 seeds undecided at the horizon.
    ``lying_pd`` is therefore held at ``non_core <= 10`` (400 of 400 solved,
    each under 0.3 s); the cliff is left to a graphs issue.
    """

    name = "cupft_core_search"
    work_unit = "simulated events"
    operation = "one pass over the cell list"

    #: (f, non_core_size, behaviour, graph-seed replicates).  Core-search cost
    #: varies from one random graph and delay schedule to the next: over 20
    #: seeds a cell's standard deviation is 8% (f=5) to 25% (f=1) of its mean,
    #: and no cell size gets below ``0.16 * sqrt(mean seconds)``.  Only the
    #: sum of many cells is steady, so one pass fills the measuring window
    #: (about 23 s here) and leans on the larger f, where cells are steadier.
    CELLS: tuple[tuple[int, int, str, int], ...] = (
        (1, 60, "silent", 3),
        (2, 50, "silent", 3),
        (3, 35, "silent", 4),
        (4, 30, "silent", 3),
        (5, 25, "silent", 1),
        (1, 10, "lying_pd", 2),
        (1, 8, "lying_pd", 2),
    )

    def setup(self, seed: int) -> list[tuple[str, harness.RunConfig]]:
        configs = []
        for f, non_core, behaviour, replicates in self.CELLS:
            for replicate in range(replicates):
                what = f"{self.name}[f={f},non_core={non_core},{behaviour},{replicate}]"
                graph = GraphSpec.bft_cupft(
                    f=f, non_core_size=non_core, seed=derive_seed(seed, what, "graph")
                )
                scenario = _partial_scenario(
                    what, graph, ProtocolMode.BFT_CUPFT, behaviour, derive_seed(seed, what, "run")
                )
                configs.append((what, builders.scenario_run_config(scenario)))
        return configs


@dataclass
class SweepInputs:
    cells: list[Scenario]
    digests: list[str]


class SweepBackends:
    """120 cells of about 6 ms through every backend, then a cold and a warm result lake.

    Per-cell compute is tiny, so orchestration (digests, spawn, claims,
    frames, journals, lake) dominates; the Byzantine-leader behaviours make
    this the only workload where PBFT view changes run.  Every pass must
    give the summaries and the cell-digest sequence of the serial pass.
    """

    name = "sweep_backends"
    work_unit = "cells"
    operation = "one sweep of all cells through one backend"

    PASSES = ("serial", "pool", "dirqueue", "tcp_pull", "tcp_push", "lake_cold", "lake_warm")
    BEHAVIOURS = (
        "silent",
        "crash",
        "lying_pd",
        "equivocating_pd",
        "wrong_value",
        "equivocating_leader",
    )
    #: (f, extra processes).  f=1 and at most 8 extra processes: of 100 seeds,
    #: bft_cup(f=2, 8 extra) left 1-5% of the cells with an active Byzantine
    #: behaviour undecided at the horizon, and (1, 12) with lying_pd about 1%
    #: (some taking over 30 s); these sizes solved 24,000 of 24,000 cells.
    CUP_GRAPHS = ((1, 4), (1, 6), (1, 8))
    CUPFT_GRAPHS = ((1, 4), (1, 8))
    REPLICATES = 4

    def setup(self, seed: int) -> SweepInputs:
        cup = ScenarioMatrix(
            name="sweep-cup",
            graphs=tuple(
                GraphSpec.bft_cup(
                    f=f, non_sink_size=extra, seed=derive_seed(seed, self.name, "cup", f, extra)
                )
                for f, extra in self.CUP_GRAPHS
            ),
            modes=(ProtocolMode.BFT_CUP,),
            behaviours=self.BEHAVIOURS,
            replicates=self.REPLICATES,
            base_seed=derive_seed(seed, self.name, "cup"),
        )
        cupft = ScenarioMatrix(
            name="sweep-cupft",
            graphs=tuple(
                GraphSpec.bft_cupft(
                    f=f, non_core_size=extra, seed=derive_seed(seed, self.name, "cupft", f, extra)
                )
                for f, extra in self.CUPFT_GRAPHS
            ),
            modes=(ProtocolMode.BFT_CUPFT,),
            behaviours=self.BEHAVIOURS,
            replicates=self.REPLICATES,
            base_seed=derive_seed(seed, self.name, "cupft"),
        )
        cells = chain_matrices(cup, cupft)
        return SweepInputs(cells=cells, digests=[cell.cell_digest() for cell in cells])

    def _backend(self, pass_name: str, root: Path) -> Any:
        if pass_name == "pool":
            return backend_classes.PoolBackend(WORKERS)
        if pass_name == "dirqueue":
            return backend_classes.WorkQueueBackend(
                root / pass_name, workers=WORKERS, timeout=PASS_TIMEOUT_S
            )
        if pass_name == "tcp_pull":
            return backend_classes.RemoteWorkQueueBackend(
                root / pass_name, workers=WORKERS, timeout=PASS_TIMEOUT_S
            )
        if pass_name == "tcp_push":
            # claim_wait: with the default 5 s long-poll every sweep ends in one
            # stall of claim_wait, and in one to three sweeps of ten in two
            # (6.7 s or 11.9 s for the same 240 cells).  A two-valued pass time
            # would swamp every other change, so the stall is kept short here;
            # the default's cost is recorded in perf/README.md.
            return backend_classes.RemoteWorkQueueBackend(
                root / pass_name,
                workers=WORKERS,
                timeout=PASS_TIMEOUT_S,
                push=True,
                compress_min=1024,
                claim_wait=0.25,
            )
        return backend_classes.SerialBackend()

    def repetition(self, inputs: SweepInputs, scratch: Path) -> Repetition:
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        spawned: list[subprocess.Popen[bytes]] = []
        try:
            return self._passes(inputs, root, spawned)
        finally:
            reap_children(spawned)
            shutil.rmtree(root, ignore_errors=True)

    def _passes(
        self, inputs: SweepInputs, root: Path, spawned: "list[subprocess.Popen[bytes]]"
    ) -> Repetition:
        cells = inputs.cells
        lake = ResultStore(root / "lake")
        detail: dict[str, float] = {}
        counts: dict[str, int] = {}
        ops_ms: list[float] = []
        problems: list[str] = []
        failed = 0
        reference: list[dict[str, Any] | None] | None = None
        started = time.perf_counter()
        for pass_name in self.PASSES:
            start_cold()
            backend = self._backend(pass_name, root)
            first_outcome: list[float] = []
            pass_started = time.perf_counter()

            def on_progress(completed: int, total: int, outcome: Any) -> None:
                del completed, total, outcome
                if not first_outcome:
                    first_outcome.append(time.perf_counter() - pass_started)

            suite = None
            try:
                with deadline(PASS_TIMEOUT_S, f"{self.name} pass {pass_name}"):
                    suite = suite_runner.SuiteRunner(backend=backend, progress=on_progress).run(
                        cells, store=lake if pass_name.startswith("lake") else None
                    )
            except (OperationTimeout, backend_classes.WorkQueueError) as error:
                problems.append(f"pass {pass_name}: {error}")
            pass_s = time.perf_counter() - pass_started
            spawned.extend(getattr(backend, "procs", ()))
            ops_ms.append(pass_s * 1000.0)
            detail[f"pass_s.{pass_name}"] = pass_s
            detail[f"first_outcome_s.{pass_name}"] = first_outcome[0] if first_outcome else 0.0
            if suite is None:
                failed += len(cells)
                continue

            outcomes = list(suite)
            summaries = [outcome.summary for outcome in outcomes]
            executed_s = 0.0 if pass_name == "lake_warm" else sum(o.wall_time for o in outcomes)
            workers = getattr(backend, "processes", 1)
            detail[f"overhead_ms_per_cell.{pass_name}"] = (
                (pass_s - executed_s / workers) / len(cells) * 1000.0
            )
            if [outcome.scenario.cell_digest() for outcome in outcomes] != inputs.digests:
                problems.append(f"pass {pass_name}: cell digest sequence differs from the input")
                failed += len(cells)
                continue
            if reference is None:
                reference = summaries
                for summary in summaries:
                    for count in EXACT_COUNTS:
                        counts[count] = counts.get(count, 0) + int((summary or {}).get(count, 0))
                    for key in ("search_skips", "verify_cache_hits", "canonical_cache_hits", "compactions"):
                        detail[key] = detail.get(key, 0) + (summary or {}).get(key, 0)
            bad = sum(
                1
                for outcome, expected in zip(outcomes, reference, strict=True)
                if outcome.error is not None or not outcome.solved or outcome.summary != expected
            )
            if bad:
                problems.append(f"pass {pass_name}: {bad} cells failed or differ from serial")
                failed += bad
            if pass_name == "lake_warm" and suite.cache_hits != len(cells):
                problems.append(f"warm lake served {suite.cache_hits} of {len(cells)} cells")
                failed += 1
        run_s = time.perf_counter() - started
        attempted = len(cells) * len(self.PASSES)
        return Repetition(
            run_s=run_s,
            work_per_s=attempted / run_s,
            ops_ms=ops_ms,
            attempted=attempted,
            failed=failed,
            counts=counts,
            detail=detail,
            problems=problems,
        )


@dataclass
class LiveInputs:
    latency_config: harness.RunConfig
    latency_decisions: dict[Any, Any]
    throughput_config: harness.RunConfig
    throughput_decisions: dict[Any, Any]


class LiveSockets:
    """``run_live_consensus`` over localhost TCP: fig-4b decide latency, then f=2 throughput.

    Codec, framing and asyncio do the work; the simulator engine and
    ``sim.network`` are bypassed.  Every live run must decide what the
    simulator decides on the same ``RunConfig``.
    """

    name = "live_sockets"
    work_unit = "protocol messages"
    operation = "one fig-4b consensus run (start to last correct decision)"

    LATENCY_RUNS = 40
    LATENCY_TIME_SCALE = 0.005
    THROUGHPUT_RUNS = 4
    THROUGHPUT_TIME_SCALE = 0.01

    def setup(self, seed: int) -> LiveInputs:
        latency = builders.scenario_run_config(
            _partial_scenario(
                "live-fig4b",
                GraphSpec.figure("fig4b"),
                ProtocolMode.BFT_CUPFT,
                "silent",
                derive_seed(seed, self.name, "fig4b"),
            )
        )
        throughput = builders.scenario_run_config(
            _partial_scenario(
                "live-f2",
                GraphSpec.bft_cup(
                    f=2, non_sink_size=20, seed=derive_seed(seed, self.name, "graph")
                ),
                ProtocolMode.BFT_CUP,
                "silent",
                derive_seed(seed, self.name, "run"),
            )
        )
        # The expected outputs are part of the inputs: each live run must
        # decide what the simulator decides on the same RunConfig.
        return LiveInputs(
            latency_config=latency,
            latency_decisions=harness.run_consensus(latency).decisions,
            throughput_config=throughput,
            throughput_decisions=harness.run_consensus(throughput).decisions,
        )

    def _live_run(
        self, config: harness.RunConfig, expected: dict[Any, Any], time_scale: float, what: str
    ) -> tuple[harness.RunResult | None, str | None]:
        try:
            with deadline(LIVE_TIMEOUT_S, what):
                result = live_harness.run_live_consensus(config, time_scale=time_scale)
        except (OperationTimeout, live_harness.LiveRunError) as error:
            return None, f"{what}: {error}"
        if not result.consensus_solved:
            return result, f"{what}: consensus not solved"
        if result.decisions != expected:
            return result, f"{what}: decisions differ from the simulator's"
        if result.live.messages_lost:
            return result, f"{what}: {result.live.messages_lost} frames lost"
        return result, None

    def repetition(self, inputs: LiveInputs, scratch: Path) -> Repetition:
        del scratch
        start_cold()
        problems: list[str] = []
        ops_ms: list[float] = []
        detail: dict[str, float] = {}
        live_totals = {"sent": 0, "received": 0, "lost": 0, "reconnects": 0, "timer_fires": 0}

        def account(result: harness.RunResult | None) -> None:
            if result is None:
                return
            stats = result.live
            live_totals["sent"] += stats.messages_sent
            live_totals["received"] += stats.messages_received
            live_totals["lost"] += stats.messages_lost
            live_totals["reconnects"] += stats.reconnects
            live_totals["timer_fires"] += stats.timer_fires
            for key, value in (
                ("verify_calls", result.verify_calls),
                ("verify_cache_hits", result.verify_cache_hits),
                ("canonical_cache_hits", result.canonical_cache_hits),
            ):
                detail[key] = detail.get(key, 0) + value

        cpu_started = time.process_time()
        started = time.perf_counter()
        for index in range(self.LATENCY_RUNS):
            result, problem = self._live_run(
                inputs.latency_config,
                inputs.latency_decisions,
                self.LATENCY_TIME_SCALE,
                f"live fig-4b run {index}",
            )
            account(result)
            if problem is not None:
                problems.append(problem)
            elif result is not None and result.live.decide_wall_seconds is not None:
                ops_ms.append(result.live.decide_wall_seconds * 1000.0)
        throughput_started = time.perf_counter()
        throughput_messages = 0
        for index in range(self.THROUGHPUT_RUNS):
            result, problem = self._live_run(
                inputs.throughput_config,
                inputs.throughput_decisions,
                self.THROUGHPUT_TIME_SCALE,
                f"live f=2 run {index}",
            )
            account(result)
            if problem is not None:
                problems.append(problem)
            if result is not None:
                throughput_messages += result.live.messages_sent
        finished = time.perf_counter()
        cpu_s = time.process_time() - cpu_started
        for key, value in live_totals.items():
            detail[f"live_{key}"] = value
        detail["cpu_us_per_msg"] = cpu_s / max(live_totals["received"], 1) * 1e6
        attempted = self.LATENCY_RUNS + self.THROUGHPUT_RUNS
        return Repetition(
            run_s=finished - started,
            work_per_s=throughput_messages / (finished - throughput_started),
            ops_ms=ops_ms,
            attempted=attempted,
            failed=len(problems),
            # Message counts depend on wall-clock timer interleaving here, so
            # the live workload has no exact counts.
            detail=detail,
            problems=problems,
        )


WORKLOADS: dict[str, Callable[[], Any]] = {
    workload.name: workload
    for workload in (CupLargePartial, CupftCoreSearch, SweepBackends, LiveSockets)
}
