"""Shared helpers for the benchmark suite.

Every benchmark prints the table/figure rows it reproduces (via ``report``),
so running ``pytest benchmarks/bench_*.py -q -s`` regenerates the paper's
artifacts in text form.

Benchmarks built on :class:`~repro.experiments.SuiteRunner` also write their
trajectory (:meth:`~repro.experiments.SuiteResult.trajectory_json`) to
``bench-artifacts/BENCH_<name>.json``; the gate is
``diff -ru -x README.md benchmarks/baselines bench-artifacts``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).resolve().parent.parent / "bench-artifacts"


def report(title: str, body: str) -> None:
    """Print a clearly delimited experiment report."""
    print(f"\n===== {title} =====")
    print(body)
    print("=" * (12 + len(title)))


@pytest.fixture(scope="session")
def experiment_report():
    return report


@pytest.fixture(scope="session")
def suite_export():
    """Write one suite's trajectory to ``bench-artifacts/BENCH_<name>.json``."""

    def export(name: str, suite, *, group_by) -> None:
        ARTIFACTS.mkdir(exist_ok=True)
        (ARTIFACTS / f"BENCH_{name}.json").write_text(suite.trajectory_json(group_by))

    return export
