"""Record the BENCH_experiments.json perf-trajectory baseline.

Runs the scalability sweep (benchmarks/bench_scalability.py) through the
:class:`~repro.experiments.SuiteRunner` twice — serially and on a
2-process pool — and writes both wall-clocks plus the SuiteResult JSON
export to ``BENCH_experiments.json`` (at the repo root, or in
``$BENCH_JSON_DIR`` when set — which is how CI feeds the trajectory into
the benchmark-regression gate alongside the pytest-produced ones).
``BENCH_QUICK=1`` shrinks the sweep to the CI-sized smoke run the
committed quick-mode baseline was recorded with.

Run with::

    PYTHONPATH=src python scripts/record_bench_experiments.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_scalability import scalability_scenarios  # noqa: E402

from repro.experiments import SuiteRunner  # noqa: E402


def main() -> None:
    scenarios = scalability_scenarios()

    serial = SuiteRunner().run(scenarios)
    pooled = SuiteRunner(processes=2).run(scenarios)

    if serial.summaries() != pooled.summaries():
        raise SystemExit("serial and pool summaries diverged; refusing to record a baseline")

    payload = {
        "benchmark": "experiments-suite-runner (scalability sweep)",
        "python": platform.python_version(),
        "runs": len(serial),
        "quick": os.environ.get("BENCH_QUICK") == "1",
        "serial_wall_time": serial.wall_time,
        "pool_wall_time": pooled.wall_time,
        "pool_processes": pooled.processes,
        "speedup": serial.wall_time / pooled.wall_time if pooled.wall_time else None,
        "suite": serial.to_dict(group_by="mode"),
    }
    out_dir = Path(os.environ.get("BENCH_JSON_DIR", REPO_ROOT))
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "BENCH_experiments.json"
    out.write_text(json.dumps(payload, indent=2, default=repr) + "\n")
    print(f"wrote {out}")

    print(
        f"serial {serial.wall_time:.2f}s vs pool({pooled.processes}) "
        f"{pooled.wall_time:.2f}s over {len(serial)} runs"
    )


if __name__ == "__main__":
    main()
