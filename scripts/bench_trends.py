"""Diff and plot benchmark metrics across the result lake's trajectory history.

``scripts/record_bench_experiments.py`` (run with ``BENCH_LAKE=<dir>``)
appends one content-addressed snapshot per commit to the lake's history.
This script reads those snapshots back and renders how a single metric
moved over the last N commits: a table with per-commit deltas plus an
ASCII sparkline-style plot.

The metric is addressed by dotted path into the snapshot payload, e.g.::

    PYTHONPATH=src python scripts/bench_trends.py --lake .lake \
        --benchmark experiments-suite-runner \
        --metric serial_wall_time --last 10

    PYTHONPATH=src python scripts/bench_trends.py --lake .lake \
        --metric suite.solved_rate --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import ResultStore  # noqa: E402

PLOT_WIDTH = 40


def resolve_metric(payload: dict[str, Any], dotted: str) -> float | None:
    """Walk ``dotted`` (``a.b.c``) into ``payload``; None when absent/non-numeric."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def trend_rows(
    store: ResultStore, benchmark: str, metric: str, last: int | None
) -> list[dict[str, Any]]:
    """One row per history snapshot: commit, value, and delta vs the previous."""
    rows: list[dict[str, Any]] = []
    previous: float | None = None
    for record in store.history(benchmark, last=last):
        value = resolve_metric(record["payload"], metric)
        delta = None if value is None or previous is None else value - previous
        rows.append({"commit": record.get("commit", "?"), "value": value, "delta": delta})
        if value is not None:
            previous = value
    return rows


def ascii_plot(rows: list[dict[str, Any]]) -> list[str]:
    """A horizontal-bar plot of the metric, one line per commit."""
    values = [row["value"] for row in rows if row["value"] is not None]
    if not values:
        return ["(no numeric values to plot)"]
    low, high = min(values), max(values)
    span = high - low
    lines = []
    for row in rows:
        commit = str(row["commit"])[:12].ljust(12)
        value = row["value"]
        if value is None:
            lines.append(f"{commit}  (missing)")
            continue
        width = PLOT_WIDTH if span == 0 else round((value - low) / span * PLOT_WIDTH)
        lines.append(f"{commit}  {'#' * max(width, 1):<{PLOT_WIDTH}}  {value:.6g}")
    return lines


def format_table(rows: list[dict[str, Any]], metric: str) -> list[str]:
    lines = [f"{'commit':<14} {metric:>16} {'delta':>12}"]
    for row in rows:
        commit = str(row["commit"])[:12]
        value = "-" if row["value"] is None else f"{row['value']:.6g}"
        delta = "-" if row["delta"] is None else f"{row['delta']:+.6g}"
        lines.append(f"{commit:<14} {value:>16} {delta:>12}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lake", required=True, help="result-lake directory")
    parser.add_argument(
        "--benchmark",
        default="experiments-suite-runner",
        help="history benchmark name (default: experiments-suite-runner)",
    )
    parser.add_argument(
        "--metric",
        default="serial_wall_time",
        help="dotted path into the snapshot payload (default: serial_wall_time)",
    )
    parser.add_argument("--last", type=int, default=None, help="only the last N commits")
    parser.add_argument(
        "--json", action="store_true", help="emit the rows as JSON instead of a table"
    )
    options = parser.parse_args(argv)

    store = ResultStore(options.lake)
    rows = trend_rows(store, options.benchmark, options.metric, options.last)
    if not rows:
        print(
            f"no history for benchmark {options.benchmark!r} in {options.lake}",
            file=sys.stderr,
        )
        return 1

    if options.json:
        print(json.dumps({"benchmark": options.benchmark, "metric": options.metric, "rows": rows}))
        return 0

    print(f"benchmark {options.benchmark!r}, metric {options.metric!r}, {len(rows)} snapshots")
    print()
    for line in format_table(rows, options.metric):
        print(line)
    print()
    for line in ascii_plot(rows):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
