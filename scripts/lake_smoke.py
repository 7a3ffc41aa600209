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
* a **corrupted** object (one loose object's bytes overwritten) must be
  quarantined with a warning and heal with exactly one re-execution, the
  export still bit-identical to the cold one (volatile keys dropped at every
  level: the re-executed cell times itself afresh), and the next pass must be
  100% hits again.

Exits non-zero on any drift.  Run with::

    PYTHONPATH=src python scripts/lake_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import warnings
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


def volatile_free(value):
    """``value`` with the volatile keys dropped at every level, not just the top."""
    if isinstance(value, dict):
        return {k: volatile_free(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [volatile_free(item) for item in value]
    return value


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

        print("corrupted object, then heal")
        victim = min(store.objects_dir.glob("*/*"))
        victim.write_text('{"corrupt": true}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed, hits, misses, executed = run_sweep(store, scenarios)
        check(misses == executed == 1, "the corrupt object is one miss and one execution")
        check(
            any("corrupt" in str(warning.message) for warning in caught),
            "the corrupt object is quarantined with a warning",
        )
        check(
            canonical_json(volatile_free(healed)) == canonical_json(volatile_free(cold)),
            "healed export is bit-identical to the cold export (modulo volatile keys, "
            "which the re-executed cell records afresh)",
        )
        _rewarmed, hits, _misses, executed = run_sweep(store, scenarios)
        check(
            hits == len(scenarios) and executed == 0,
            "the pass after healing serves 100% hits again",
        )

    print("lake smoke passed")


if __name__ == "__main__":
    main()
