"""Benchmark-trajectory regression comparison (the CI metric gate).

Every benchmark exports a uniform ``BENCH_*.json`` trajectory (see
``benchmarks/conftest.py``); the simulation is fully seeded, so the
*metric* content of a trajectory — message counts, solved rates, virtual
latencies, per-group aggregates — is deterministic run to run.  This
module diffs a directory of freshly produced trajectories against the
committed baselines and reports every metric that drifted, which turns
silent behavioural regressions ("the protocol still passes its tests but
now sends 40% more messages") into red CI.

Compared exactly — a numeric metric passes iff it is finite on both sides
and equal:

* suite-level ``runs``, ``errors`` and ``solved_rate``;
* every numeric metric of every group row (``total_messages``,
  ``mean_messages``, ``solved_rate``, latency percentiles, ...), matched by
  group key.

Excluded by design: wall-clock times (machine-dependent), interpreter
version, backend/process metadata, and the per-outcome payloads (already
summarised by the groups; anything that drifts there moves an aggregate).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.tables import render_table

#: Suite-level metrics under the gate.
SUITE_METRICS = ("runs", "errors", "solved_rate")

#: Group-row keys that are identity or noise, never gated metrics.
EXCLUDED_GROUP_KEYS = frozenset({"key", "wall_time"})


@dataclass
class Delta:
    """One compared metric: where it lives, both values, and the verdict."""

    benchmark: str
    location: str  # "suite" or "group[<key>]"
    metric: str
    baseline: Any
    fresh: Any
    within: bool

    @property
    def drift(self) -> float | None:
        if isinstance(self.baseline, (int, float)) and isinstance(self.fresh, (int, float)):
            return float(self.fresh) - float(self.baseline)
        return None


@dataclass
class ComparisonReport:
    """Every delta of one gate run, plus structural problems."""

    deltas: list[Delta] = field(default_factory=list)
    #: Structural failures (missing baseline, unreadable file, group-set
    #: mismatch) that fail the gate regardless of metric values.
    problems: list[str] = field(default_factory=list)
    #: Baselines with no fresh counterpart (informational: the fresh run may
    #: legitimately be a subset, e.g. a benchmark not exercised in CI).
    unmatched_baselines: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[Delta]:
        return [delta for delta in self.deltas if not delta.within]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.problems


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_metric(
    report: ComparisonReport,
    benchmark: str,
    location: str,
    metric: str,
    baseline: Any,
    fresh: Any,
) -> None:
    # A non-finite number is drift even against itself; otherwise equality
    # (None vs None is fine; None vs number is drift: a metric appearing or
    # disappearing is itself a regression signal).
    within = baseline == fresh and not (_numeric(baseline) and not math.isfinite(baseline))
    report.deltas.append(
        Delta(
            benchmark=benchmark,
            location=location,
            metric=metric,
            baseline=baseline,
            fresh=fresh,
            within=within,
        )
    )


def compare_payloads(
    benchmark: str,
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    report: ComparisonReport | None = None,
) -> ComparisonReport:
    """Diff one benchmark's fresh trajectory against its baseline payload."""
    if report is None:
        report = ComparisonReport()
    baseline_suite = baseline.get("suite") or {}
    fresh_suite = fresh.get("suite") or {}
    for metric in SUITE_METRICS:
        _compare_metric(
            report,
            benchmark,
            "suite",
            metric,
            baseline_suite.get(metric),
            fresh_suite.get(metric),
        )

    baseline_groups = {repr(row.get("key")): row for row in baseline_suite.get("groups") or []}
    fresh_groups = {repr(row.get("key")): row for row in fresh_suite.get("groups") or []}
    if set(baseline_groups) != set(fresh_groups):
        missing = sorted(set(baseline_groups) - set(fresh_groups))
        extra = sorted(set(fresh_groups) - set(baseline_groups))
        report.problems.append(
            f"{benchmark}: group sets differ (missing from fresh: {missing or 'none'}, "
            f"new in fresh: {extra or 'none'}) — was the baseline recorded at a different "
            "sweep scale? Regenerate with the documented BENCH_QUICK command."
        )
    for key in sorted(set(baseline_groups) & set(fresh_groups)):
        baseline_row = baseline_groups[key]
        fresh_row = fresh_groups[key]
        metrics = (set(baseline_row) | set(fresh_row)) - EXCLUDED_GROUP_KEYS
        for metric in sorted(metrics):
            _compare_metric(
                report,
                benchmark,
                f"group[{key}]",
                metric,
                baseline_row.get(metric),
                fresh_row.get(metric),
            )
    return report


def _load(path: Path, report: ComparisonReport) -> dict[str, Any] | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        report.problems.append(f"{path}: unreadable trajectory ({error})")
        return None
    if not isinstance(payload, dict):
        report.problems.append(f"{path}: trajectory is not a JSON object")
        return None
    return payload


def compare_directories(
    baseline_dir: str | Path,
    fresh_dir: str | Path,
) -> ComparisonReport:
    """Diff every fresh ``BENCH_*.json`` against its committed baseline.

    Every fresh trajectory must have a baseline (a new benchmark lands with
    its baseline in the same PR); baselines without a fresh counterpart are
    reported informationally but do not fail the gate.
    """
    baseline_dir = Path(baseline_dir)
    fresh_dir = Path(fresh_dir)
    report = ComparisonReport()
    fresh_paths = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_paths:
        report.problems.append(f"{fresh_dir}: no BENCH_*.json trajectories found")
    seen = set()
    for fresh_path in fresh_paths:
        seen.add(fresh_path.name)
        baseline_path = baseline_dir / fresh_path.name
        if not baseline_path.exists():
            report.problems.append(
                f"{fresh_path.name}: no committed baseline at {baseline_path} — "
                "commit one (see benchmarks/baselines/README.md)"
            )
            continue
        fresh = _load(fresh_path, report)
        baseline = _load(baseline_path, report)
        if fresh is None or baseline is None:
            continue
        name = str(fresh.get("benchmark") or fresh_path.stem.removeprefix("BENCH_"))
        compare_payloads(name, baseline, fresh, report=report)
    for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
        if baseline_path.name not in seen:
            report.unmatched_baselines.append(baseline_path.name)
    return report


def render_report(report: ComparisonReport, *, only_violations: bool = False) -> str:
    """Render the per-benchmark delta table (and problems) as plain text."""
    rows: list[list[Any]] = []
    for delta in report.deltas:
        if only_violations and delta.within:
            continue
        drift = delta.drift
        rows.append(
            [
                delta.benchmark,
                delta.location,
                delta.metric,
                _fmt(delta.baseline),
                _fmt(delta.fresh),
                "-" if drift is None else f"{drift:+g}",
                "ok" if delta.within else "DRIFT",
            ]
        )
    lines: list[str] = []
    if rows:
        lines.append(
            render_table(
                ["benchmark", "where", "metric", "baseline", "fresh", "delta", "verdict"], rows
            )
        )
    for problem in report.problems:
        lines.append(f"PROBLEM: {problem}")
    for name in report.unmatched_baselines:
        lines.append(f"note: baseline {name} has no fresh trajectory (not gated this run)")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


__all__ = [
    "ComparisonReport",
    "Delta",
    "compare_directories",
    "compare_payloads",
    "render_report",
    "SUITE_METRICS",
]
