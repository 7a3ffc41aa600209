"""End-to-end smoke test of the content-addressable result lake.

Runs the quick scalability sweep twice through :class:`SuiteRunner` against
one :class:`ResultStore`:

* the **cold** pass must miss on every cell and execute everything;
* the **warm** pass must hit on every cell, execute **nothing** (proved by
  a counting backend), and export a suite payload bit-identical to the
  cold one modulo the documented volatile keys;
* an **interrupted** sweep (half the matrix into a fresh store) re-run in
  full must hit exactly the half that finished, execute only the rest, and
  produce the cold pass's summaries in scenario order — the lake is the
  checkpoint;
* store maintenance (``verify`` / ``pack`` / ``gc``) must round-trip with
  the warm pass still serving 100% hits afterwards;
* two trajectory-history snapshots are appended and read back through
  ``scripts/bench_trends.py``.

Exits non-zero on any drift.  Run with::

    PYTHONPATH=src python scripts/lake_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import os  # noqa: E402

os.environ.setdefault("BENCH_QUICK", "1")

from bench_scalability import scalability_scenarios  # noqa: E402

from repro.experiments import ResultStore, SuiteRunner  # noqa: E402
from repro.experiments.backends.local import SerialBackend  # noqa: E402
from repro.experiments.lake import canonical_json  # noqa: E402

#: Keys that legitimately differ between a cold run and a warm (cached) run.
VOLATILE_KEYS = ("wall_time", "sink_search_memo", "cache_hits", "cache_misses")


class CountingSerialBackend(SerialBackend):
    def __init__(self) -> None:
        self.executed = 0

    def execute(self, cells, executor):
        self.executed += len(cells)
        yield from super().execute(cells, executor)


def stripped(payload: dict) -> dict:
    payload = dict(payload)
    for key in VOLATILE_KEYS:
        payload.pop(key, None)
    return payload


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"lake smoke FAILED: {message}")
    print(f"  ok: {message}")


def run_sweep(store: ResultStore, scenarios) -> tuple[dict, int, int, int]:
    backend = CountingSerialBackend()
    suite = SuiteRunner(backend=backend).run(scenarios, store=store)
    payload = suite.to_dict(group_by="mode")
    return payload, suite.cache_hits, suite.cache_misses, backend.executed


def main() -> None:
    scenarios = scalability_scenarios()
    with tempfile.TemporaryDirectory(prefix="lake-smoke-") as tmp:
        store = ResultStore(Path(tmp) / "lake")

        print(f"cold pass over {len(scenarios)} cells")
        cold, hits, misses, executed = run_sweep(store, scenarios)
        check(hits == 0, "cold pass has zero cache hits")
        check(misses == len(scenarios), "cold pass misses every cell")
        check(executed == len(scenarios), "cold pass executes every cell")

        print("warm pass")
        warm, hits, misses, executed = run_sweep(store, scenarios)
        check(hits == len(scenarios), "warm pass hits 100% of cells")
        check(misses == 0, "warm pass has zero misses")
        check(executed == 0, "warm pass executes nothing")
        check(
            canonical_json(stripped(warm)) == canonical_json(stripped(cold)),
            "warm export is bit-identical to the cold export (modulo volatile keys)",
        )

        print("interrupted, then re-run")
        half = len(scenarios) // 2
        checkpoint = ResultStore(Path(tmp) / "checkpoint")
        run_sweep(checkpoint, scenarios[:half])
        resumed, hits, misses, executed = run_sweep(checkpoint, scenarios)
        check(hits == half, f"re-run hits the {half} cells that finished")
        check(
            misses == executed == len(scenarios) - half,
            "re-run executes only the cells that never finished",
        )
        check(
            [outcome["summary"] for outcome in resumed["outcomes"]]
            == [outcome["summary"] for outcome in cold["outcomes"]],
            "re-run summaries equal the uninterrupted serial pass, in scenario order",
        )

        print("store maintenance")
        check(store.verify() == [], "verify() reports a clean store")
        packed = store.pack()
        check(packed == len(scenarios), f"pack() folded all {packed} loose objects")
        stats = store.gc()
        check(stats["objects_dropped"] == 0, "gc() drops nothing from a live store")
        rewarmed, hits, _misses, executed = run_sweep(store, scenarios)
        check(
            hits == len(scenarios) and executed == 0,
            "post-pack/gc warm pass still serves 100% hits",
        )
        check(
            canonical_json(stripped(rewarmed)) == canonical_json(stripped(cold)),
            "post-maintenance export unchanged",
        )

        print("trajectory history + bench_trends")
        store.append_history(
            "experiments-suite-runner", "smoke-a", {"serial_wall_time": 1.25, "runs": len(scenarios)}
        )
        store.append_history(
            "experiments-suite-runner", "smoke-b", {"serial_wall_time": 1.05, "runs": len(scenarios)}
        )
        trends = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_trends.py"),
                "--lake",
                str(store.root),
                "--metric",
                "serial_wall_time",
                "--json",
            ],
            capture_output=True,
            text=True,
        )
        check(trends.returncode == 0, "bench_trends exits cleanly")
        rows = json.loads(trends.stdout)["rows"]
        check(len(rows) == 2, "bench_trends sees both snapshots")
        check(
            rows[1]["delta"] is not None and abs(rows[1]["delta"] - (-0.2)) < 1e-9,
            "bench_trends computes the per-commit delta",
        )

    print("lake smoke passed")


if __name__ == "__main__":
    main()
