"""The repo's benchmark: one command, four workloads, every metric by name.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from ``--seed``, repeats the workload for about
``--seconds`` seconds, checks the program's outputs, and prints one line per
metric followed — as the last line — by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics with nothing installed; ``--trace 1`` is a
separate pass that first takes one untraced repetition (the base of
``trace.overhead_ratio``) and then repeats with a span recorder wrapped
around every layer's entry points, giving the per-layer metrics.

Without ``--workload`` every workload runs in turn, each in a fresh process.
The exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"perf: nothing to measure, {ROOT / 'src' / 'repro'} is missing")
# The script directory leads sys.path when run as a file; replace it by the
# repo root (for ``perf``) and ``src`` (for ``repro``), so ``perf/trace.py``
# cannot shadow the standard ``trace`` module and spawned queue workers,
# which inherit sys.path as PYTHONPATH, can import ``repro``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "perf"]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import metrics  # noqa: E402
from perf.guard import reap_children  # noqa: E402
from perf.trace import Tracer, install_layers, layer_table  # noqa: E402
from perf.workloads import WORKLOADS, Repetition, warm_up  # noqa: E402

OUT_DIR = ROOT / ".perf_out"
#: Span records written per traced pass (about 120 bytes each as JSONL).
KEPT_SPANS = 100_000


def measure_setup(workload, seed: int):
    """Build the inputs repeatedly; the median is ``setup_s``, the last build is used.

    At least seven builds, and more (up to fifty) while they add up to under
    0.2 s: a build of a few milliseconds needs the samples to be steady.
    """
    times: list[float] = []
    inputs = None
    while len(times) < 7 or (sum(times) < 0.2 and len(times) < 50):
        gc.collect()
        started = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - started)
    return times, inputs


def repeat(run_one, seconds: float) -> list[Repetition]:
    """Closed loop: repeat until another repetition would end past ``seconds`` (at least once)."""
    repetitions: list[Repetition] = []
    started = time.perf_counter()
    while True:
        repetitions.append(run_one())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(repetitions) > seconds:
            return repetitions


def exact_count_problems(repetitions: list[Repetition]) -> list[str]:
    """The same inputs must give the same counts in every repetition."""
    first = repetitions[0].counts
    return [
        f"repetition {index}: exact counts {rep.counts} differ from the first repetition's {first}"
        for index, rep in enumerate(repetitions[1:], start=1)
        if rep.counts != first
    ]


def traced_repetitions(workload, inputs, scratch: Path, seconds: float):
    """Per-layer rows of the traced pass, plus every repetition it ran.

    Only the first traced repetition keeps span records, and they are written
    out before the next one starts: a held trace is memory the collector
    would walk during the following repetitions.
    """
    reference = workload.repetition(inputs, scratch)
    rows = []

    def run_traced() -> Repetition:
        first = not rows
        with Tracer(keep_spans=KEPT_SPANS if first else 0) as tracer:
            install_layers(tracer)
            rep = workload.repetition(inputs, scratch)
        totals = tracer.totals()
        rows.append(metrics.per_layer(totals, tracer.counters(), rep, reference.run_s))
        if first:
            kept = tracer.write_jsonl(OUT_DIR / f"{workload.name}.spans.jsonl")
            table = layer_table(totals)
            (OUT_DIR / f"{workload.name}.layers.txt").write_text(table + "\n")
            print(table)
            print(f"# first traced repetition: {kept} of {tracer.spans_started()} spans kept")
        return rep

    traced = repeat(run_traced, max(seconds - reference.run_s, 0.0))
    return rows, [reference, *traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = metrics.load_spec()
    workload = WORKLOADS[name]()
    label = f"{name}.seed{seed}.trace{int(trace)}"
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        warm_up()
        setup_times, inputs = measure_setup(workload, seed)
        if trace:
            rows, repetitions = traced_repetitions(workload, inputs, scratch, seconds)
            values = metrics.render(metrics.median_of(rows), spec["per_layer"])
        else:
            repetitions = repeat(lambda: workload.repetition(inputs, scratch), seconds)
            values = metrics.render(metrics.end_to_end(setup_times, repetitions), spec["end_to_end"])
    finally:
        leftovers = reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
    drifted = exact_count_problems(repetitions)
    problems = [problem for rep in repetitions for problem in rep.problems] + drifted
    if leftovers:
        problems.append(f"{leftovers} child processes outlived their backend")
    attempted = sum(rep.attempted for rep in repetitions)
    failed = min(attempted, sum(rep.failed for rep in repetitions) + len(drifted))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }

    print(f"# workload {name}: seed {seed}, {len(repetitions)} repetitions, trace {int(trace)}")
    print(f"# work unit: {workload.work_unit}; operation: {workload.operation}")
    print(f"# exact counts: {json.dumps(repetitions[0].counts, sort_keys=True)}")
    print(f"# failed_share: {failed}/{attempted} = {failed / attempted:.4f}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    for metric, entry in values.items():
        print(f"{metric:56} {entry['value']:>16.6f} {entry['unit']}")
    record = {
        **result,
        "workload": name,
        "seed": seed,
        "repetitions": len(repetitions),
        "exact_counts": repetitions[0].counts,
        "problems": problems,
    }
    (OUT_DIR / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in a fresh process (as a user would run it)."""
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else metrics.load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
