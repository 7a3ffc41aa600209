"""Suite-level result aggregation and export.

A :class:`SuiteResult` collects one :class:`ScenarioOutcome` per executed
scenario (in scenario order, independent of execution order) and offers:

* per-group statistics — mean/median/p95 latency, message totals and
  solved-rate, grouped by any axis label of the scenarios;
* one JSON export, so every benchmark's ``BENCH_*.json`` trajectory is
  produced by the same code path;
* plain-text rendering through :func:`repro.analysis.tables.render_table`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.tables import render_table
from repro.experiments.scenario import Scenario

GroupKey = Callable[[Scenario], Any]


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _group_order(key: Any) -> tuple[int, Any]:
    """Sort numeric group keys numerically, everything else by repr.

    A plain ``repr`` sort would order ``0, 1, 10, 2`` and scramble
    monotonic axes (GST sweeps, replicate counts) in reports and exports.
    """
    if isinstance(key, bool) or not isinstance(key, (int, float)):
        return (1, repr(key))
    return (0, key)


@dataclass
class ScenarioOutcome:
    """Result of executing one scenario (or the error that prevented it)."""

    scenario: Scenario
    #: Exactly ``RunResult.summary()`` for the default executor, or whatever
    #: dictionary a custom executor returned.
    summary: dict[str, Any] | None
    error: str | None = None
    #: Wall-clock seconds spent executing the scenario.
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def solved(self) -> bool:
        """Consensus solved: terminated with agreement and validity."""
        if self.summary is None:
            return False
        return bool(
            self.summary.get("terminated")
            and self.summary.get("agreement")
            and self.summary.get("validity")
        )

    def metric(self, name: str) -> Any:
        return None if self.summary is None else self.summary.get(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "summary": self.summary,
            "error": self.error,
            "solved": self.solved,
            "wall_time": self.wall_time,
        }


@dataclass
class GroupStats:
    """Aggregate statistics over the outcomes sharing one group key."""

    key: Any
    runs: int = 0
    errors: int = 0
    solved: int = 0
    total_messages: int = 0
    #: Number of outcomes that actually reported a numeric ``messages``
    #: metric; distinguishes "zero messages" from "metric not reported".
    message_observations: int = 0
    latencies: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    def observe(self, outcome: ScenarioOutcome) -> None:
        self.runs += 1
        self.wall_time += outcome.wall_time
        if not outcome.ok:
            self.errors += 1
            return
        if outcome.solved:
            self.solved += 1
        messages = outcome.metric("messages")
        if isinstance(messages, (int, float)):
            self.total_messages += int(messages)
            self.message_observations += 1
        latency = outcome.metric("latency")
        if isinstance(latency, (int, float)):
            self.latencies.append(float(latency))

    @property
    def solved_rate(self) -> float:
        return self.solved / self.runs if self.runs else 0.0

    @property
    def mean_latency(self) -> float | None:
        return sum(self.latencies) / len(self.latencies) if self.latencies else None

    @property
    def median_latency(self) -> float | None:
        return _percentile(sorted(self.latencies), 0.5) if self.latencies else None

    @property
    def p95_latency(self) -> float | None:
        return _percentile(sorted(self.latencies), 0.95) if self.latencies else None

    @property
    def mean_messages(self) -> float | None:
        if not self.message_observations:
            return None
        return self.total_messages / self.message_observations

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "runs": self.runs,
            "errors": self.errors,
            "solved": self.solved,
            "solved_rate": self.solved_rate,
            "total_messages": self.total_messages,
            "mean_messages": self.mean_messages,
            "mean_latency": self.mean_latency,
            "median_latency": self.median_latency,
            "p95_latency": self.p95_latency,
            "wall_time": self.wall_time,
        }


class SuiteResult:
    """Every outcome of one suite execution, plus aggregation and export."""

    def __init__(
        self,
        outcomes: list[ScenarioOutcome],
        *,
        wall_time: float = 0.0,
        processes: int = 1,
        backend: str = "serial",
        skipped: Sequence[str] = (),
        memo_stats: dict[str, Any] | None = None,
        cache_hits: int | None = None,
        cache_misses: int | None = None,
    ) -> None:
        self.outcomes = outcomes
        self.wall_time = wall_time
        self.processes = processes
        #: Name of the execution backend that produced the outcomes.
        self.backend = backend
        #: Names of cells the backend never reported an outcome for (e.g. a
        #: terminated pool) — recorded instead of silently truncating.
        self.skipped = tuple(skipped)
        #: Coordinator-process snapshot of the sink-search memo
        #: (:func:`repro.graphs.search_memo.sink_search_memo`), taken after
        #: the suite ran.  Meaningful for the serial backend, where every
        #: search goes through the coordinator's memo; with multiprocess
        #: backends the workers' memos are not aggregated, so the snapshot
        #: only reflects coordinator-side work.
        self.memo_stats = memo_stats
        #: Result-lake statistics: cells stitched from / missed in the
        #: :class:`~repro.experiments.lake.ResultStore` a run was given.
        #: Both stay ``None`` when no lake was used, which keeps exports
        #: (and the committed BENCH baselines) byte-identical to pre-lake
        #: runs.
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[ScenarioOutcome]:
        return iter(self.outcomes)

    # Aggregation -----------------------------------------------------------
    @property
    def errors(self) -> list[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def solved_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.solved) / len(self.outcomes)

    def summaries(self) -> list[dict[str, Any] | None]:
        """The per-scenario summary dicts, in scenario order."""
        return [outcome.summary for outcome in self.outcomes]

    def group_stats(self, group_by: str | GroupKey = "matrix") -> dict[Any, GroupStats]:
        """Aggregate outcomes per group.

        ``group_by`` is either an axis-label name recorded by the matrix
        (``"mode"``, ``"graph"``, ``"behaviour"``, ``"synchrony"``, ...) or
        a callable mapping a scenario to an arbitrary hashable key.
        """
        if callable(group_by):
            key_of: GroupKey = group_by
        else:
            label = group_by
            key_of = lambda scenario: scenario.label(label)  # noqa: E731
        groups: dict[Any, GroupStats] = {}
        for outcome in self.outcomes:
            key = key_of(outcome.scenario)
            stats = groups.get(key)
            if stats is None:
                stats = groups[key] = GroupStats(key=key)
            stats.observe(outcome)
        return groups

    def crypto_stats(self) -> dict[str, int] | None:
        """Suite-wide crypto fast-path totals, summed over outcome summaries.

        ``None`` when no outcome reported the counters (custom executors that
        predate them), which keeps those suites' exports unchanged.
        """
        totals = {"verify_calls": 0, "verify_cache_hits": 0, "canonical_cache_hits": 0}
        reported = False
        for outcome in self.outcomes:
            summary = outcome.summary
            if summary is None or "verify_calls" not in summary:
                continue
            reported = True
            for name in totals:
                value = summary.get(name)
                if isinstance(value, (int, float)):
                    totals[name] += int(value)
        return totals if reported else None

    # Export ----------------------------------------------------------------
    def to_dict(self, *, group_by: str | GroupKey | None = "matrix") -> dict[str, Any]:
        payload: dict[str, Any] = {
            "runs": len(self.outcomes),
            "errors": len(self.errors),
            "solved_rate": self.solved_rate,
            "wall_time": self.wall_time,
            "processes": self.processes,
            "backend": self.backend,
            "skipped": list(self.skipped),
            "sink_search_memo": self.memo_stats,
        }
        if self.cache_hits is not None:
            # Lake-only keys: exports of runs without a store stay identical.
            payload["cache_hits"] = self.cache_hits
            payload["cache_misses"] = self.cache_misses
        crypto = self.crypto_stats()
        if crypto is not None:
            # Only present when the outcomes carry the fast-path counters, so
            # suites from counter-less custom executors export unchanged.
            payload["crypto"] = crypto
        payload["outcomes"] = [outcome.to_dict() for outcome in self.outcomes]
        if group_by is not None:
            payload["groups"] = [
                stats.to_dict() for _key, stats in sorted(
                    self.group_stats(group_by).items(), key=lambda item: _group_order(item[0])
                )
            ]
        return payload

    def to_json(self, path: str | Path | None = None, **kwargs: Any) -> str:
        """Serialise the suite to JSON (optionally writing it to ``path``)."""
        text = json.dumps(self.to_dict(**kwargs), indent=2, default=repr)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def render(
        self,
        group_by: str | GroupKey = "matrix",
        *,
        title: str | None = None,
    ) -> str:
        """Render the per-group statistics as a plain-text table."""
        rows = []
        for key, stats in sorted(self.group_stats(group_by).items(), key=lambda i: _group_order(i[0])):
            rows.append(
                [
                    key,
                    stats.runs,
                    f"{stats.solved_rate:.2f}",
                    stats.total_messages,
                    _fmt(stats.mean_latency),
                    _fmt(stats.median_latency),
                    _fmt(stats.p95_latency),
                ]
            )
        table = render_table(
            ["group", "runs", "solved", "messages", "mean lat", "median lat", "p95 lat"],
            rows,
        )
        return table if title is None else f"{title}\n{table}"


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


__all__ = ["ScenarioOutcome", "GroupStats", "SuiteResult"]
