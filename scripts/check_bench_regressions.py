"""Benchmark regression gate: diff fresh BENCH_*.json against committed baselines.

The benchmarks are fully seeded, so their exported trajectories are
deterministic; any metric drift (message counts, solved rates, virtual
latencies, group aggregates) is a behavioural change, not noise.  This
script diffs a directory of freshly produced trajectories (CI's
``bench-artifacts/``) against the committed quick-mode baselines, each
metric compared exactly, and exits non-zero on drift, printing a
per-benchmark delta table.  Wall-clock times are never compared.

Run exactly what CI runs::

    BENCH_QUICK=1 BENCH_JSON_DIR=bench-artifacts PYTHONPATH=src \
        python -m pytest benchmarks/bench_*.py -q -s
    PYTHONPATH=src python scripts/check_bench_regressions.py --fresh bench-artifacts

An intentional metric change is landed by regenerating the baselines (see
``benchmarks/baselines/README.md``) in the same PR, which makes the diff —
and therefore the behaviour change — reviewable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.regression import compare_directories, render_report  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        default="bench-artifacts",
        help="directory of freshly produced BENCH_*.json (default: bench-artifacts)",
    )
    parser.add_argument(
        "--baselines",
        default=str(REPO_ROOT / "benchmarks" / "baselines"),
        help="directory of committed baselines (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--all-deltas",
        action="store_true",
        help="print every compared metric, not only the drifted ones",
    )
    options = parser.parse_args(argv)

    report = compare_directories(options.baselines, options.fresh)
    compared = len(report.deltas)
    benchmarks = len({delta.benchmark for delta in report.deltas})
    rendered = render_report(report, only_violations=not options.all_deltas)
    if rendered:
        print(rendered)
    if report.ok:
        print(
            f"OK: {compared} metrics across {benchmarks} benchmarks match the committed "
            f"baselines in {options.baselines}"
        )
        return 0
    print(
        f"FAIL: {len(report.violations)} metric(s) drifted, {len(report.problems)} structural "
        "problem(s); regenerate benchmarks/baselines (see its README) if the change is intended",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
