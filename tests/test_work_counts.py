"""The work-count ledger: ``scripts/work_counts.py`` and the committed ``WORKCOUNTS.json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPRO = ROOT / "src" / "repro"

_COUNT_FIG4B = """
import json, sys
sys.path.insert(0, sys.argv[1])
import work_counts
from repro.analysis import harness
from repro.core.config import ProtocolMode
from repro.experiments.scenario import GraphSpec, Scenario, SynchronySpec
from repro.workloads import builders

scenario = Scenario(
    name="fig4b",
    graph=GraphSpec.figure("fig4b"),
    mode=ProtocolMode.BFT_CUPFT,
    synchrony=SynchronySpec(kind="partial"),
    seed=1,
)
config = builders.scenario_run_config(scenario)
result, calls = work_counts.count_calls(lambda: harness.run_consensus(config))
assert result.consensus_solved
print(json.dumps(calls, sort_keys=True))
"""


def test_counts_repeat_under_other_hash_seeds_and_stay_inside_repro():
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _COUNT_FIG4B, str(ROOT / "scripts")],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    calls = json.loads(outputs[0])
    assert {"sim.engine", "core.node", "graphs.sink_search", "crypto.signatures"} <= set(calls)
    for module in calls:
        path = REPRO.joinpath(*module.split("."))
        # Every key is a module (or package) of src/repro: no C builtin, no
        # standard library, no generated code.
        assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file(), module


def test_committed_ledger_holds_the_exact_counts():
    ledger = json.loads((ROOT / "WORKCOUNTS.json").read_text())
    assert ledger["seed"] == 301
    assert ledger["cup_large_partial"]["counts"] == {
        "events": 315206,
        "messages": 265217,
        "sink_searches": 9572,
        "verify_calls": 15006,
    }
    assert ledger["cupft_core_search"]["counts"] == {
        "events": 115176,
        "messages": 108090,
        "sink_searches": 4729,
        "verify_calls": 7940,
    }
    for part in ("cup_large_partial", "cupft_core_search", "sweep_backends.serial"):
        entry = ledger[part]
        assert sum(entry["packages"].values()) > 0
        for package in ("sim", "graphs", "core"):
            modules = [count for name, count in entry["modules"].items() if name.split(".")[0] == package]
            assert sum(modules) == entry["packages"][package]
