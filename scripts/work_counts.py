"""Count the work the benchmark workloads do: Python calls per ``repro`` package.

    python scripts/work_counts.py > work-counts.json
    diff -u WORKCOUNTS.json work-counts.json

Three parts, each in a fresh interpreter after ``perf.workloads.warm_up()``:
one cold repetition of ``cup_large_partial`` and of ``cupft_core_search``,
and one ``SerialBackend`` pass over the ``sweep_backends`` cells, all at seed
301 (``live_sockets`` is left out: socket timing is not exact).  Each part
records the workload's exact counts and the ``cProfile`` call counts of its
repetition, summed per ``repro`` package and, for ``sim``, ``graphs`` and
``core``, per module.

C builtins and every function outside ``src/repro`` (the standard library,
dataclass-generated methods) are dropped: their counts change from run to
run.  What is left is the same under any ``PYTHONHASHSEED``, so the
committed ``WORKCOUNTS.json`` is compared by equality, not by a tolerance.
Python 3.12 inlines comprehensions (PEP 709), so the file records the Python
minor version it was counted on.  The output is canonical JSON; the exit
code is 1 when a repetition reports a problem or a failed cell.

A change that moves the counts regenerates the file
(``python scripts/work_counts.py > WORKCOUNTS.json``) and quotes the
per-package delta.
"""

from __future__ import annotations

import cProfile
import json
import multiprocessing
import sys
import tempfile
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, TypeVar

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import workloads  # noqa: E402

SEED = 301
#: Packages whose calls are also listed per module.
PER_MODULE = ("sim", "graphs", "core")

T = TypeVar("T")


def count_calls(run: Callable[[], T]) -> tuple[T, Counter[str]]:
    """Run ``run()`` under ``cProfile``; return its result and calls per ``repro`` module.

    Modules are named relative to ``repro`` (``"core.discovery"``); a
    package's ``__init__`` counts as the package itself.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(run)
    profiler.create_stats()
    calls: Counter[str] = Counter()
    for (filename, _line, _name), (_primitive, ncalls, *_times) in profiler.stats.items():
        module = _module_name(filename)
        if module is not None:
            calls[module] += ncalls
    return result, calls


def _module_name(filename: str) -> str | None:
    path = Path(filename).resolve()
    if path.suffix != ".py" or not path.is_relative_to(REPRO):
        return None  # a C builtin ("~"), generated code ("<string>") or outside repro
    parts = path.relative_to(REPRO).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def ledger_entry(calls: Counter[str]) -> dict[str, dict[str, int]]:
    """Sum module calls per package, keeping the modules of :data:`PER_MODULE`."""
    packages: Counter[str] = Counter()
    for module, count in calls.items():
        packages[module.split(".")[0]] += count
    return {
        "packages": dict(packages),
        "modules": {
            module: count for module, count in calls.items() if module.split(".")[0] in PER_MODULE
        },
    }


class _SerialSweep(workloads.SweepBackends):
    PASSES = ("serial",)


PARTS: dict[str, Callable[[], Any]] = {
    "cup_large_partial": workloads.CupLargePartial,
    "cupft_core_search": workloads.CupftCoreSearch,
    "sweep_backends.serial": _SerialSweep,
}


def count_part(name: str) -> tuple[dict[str, Any], list[str]]:
    """One cold repetition of a part: its ledger entry and the problems it reported."""
    workloads.warm_up()
    workload = PARTS[name]()
    inputs = workload.setup(SEED)
    with tempfile.TemporaryDirectory(prefix="work-counts-") as scratch:
        workloads.start_cold()
        rep, calls = count_calls(lambda: workload.repetition(inputs, Path(scratch)))
    # Every failed cell is also reported as a problem.
    return {"counts": rep.counts, **ledger_entry(calls)}, [f"{name}: {p}" for p in rep.problems]


def main() -> int:
    ledger: dict[str, Any] = {"python": f"{sys.version_info[0]}.{sys.version_info[1]}", "seed": SEED}
    problems: list[str] = []
    for name in PARTS:
        # A fresh interpreter per part: no cache or memo carries over.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            ledger[name], part_problems = pool.submit(count_part, name).result()
        problems += part_problems
    print(json.dumps(ledger, indent=2, sort_keys=True))
    for problem in problems:
        print(f"work_counts: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
