"""Tier-1 smoke test of the benchmark's own machinery (a few seconds).

It does not time anything: it checks that a seed fixes the inputs, that the
tracer's self-time accounting closes, that the wrappers leave no trace in
the program, that the metric names the benchmark computes are exactly the
ones BENCHMARK.json declares, and that a hang ends as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from perf import metrics
from perf.guard import OperationTimeout, deadline, reap_children
from perf.trace import SpanTotals, Tracer, install_layers
from perf.workloads import WORKLOADS, LiveSockets, Repetition
from repro.analysis import harness
from repro.sim.network import Network


def _fingerprint(inputs) -> str:
    """A stable text form of a workload's inputs (configs, cells or live configs)."""

    def config(run_config: harness.RunConfig) -> list:
        return [
            run_config.seed,
            sorted(map(repr, run_config.faulty)),
            sorted(map(repr, run_config.graph.edges())),
        ]

    if isinstance(inputs, list):
        return json.dumps([[what, config(run_config)] for what, run_config in inputs])
    if hasattr(inputs, "digests"):
        return json.dumps(inputs.digests)
    return json.dumps(
        [
            config(inputs.latency_config),
            config(inputs.throughput_config),
            sorted(map(repr, inputs.latency_decisions.items())),
            sorted(map(repr, inputs.throughput_decisions.items())),
        ]
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    workload = WORKLOADS[name]()
    first = _fingerprint(workload.setup(11))
    assert first == _fingerprint(workload.setup(11))
    assert first != _fingerprint(workload.setup(12))


def _wrapped_bindings() -> list[str]:
    """Every module global or class attribute of ``repro`` that is still a span wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__perf_span__"):
                found.append(f"{module_name}.{attr}")
            elif isinstance(value, type):
                found += [
                    f"{module_name}.{attr}.{member}"
                    for member, function in vars(value).items()
                    if hasattr(function, "__perf_span__")
                ]
    return found


def test_self_times_sum_to_the_root_span_and_wrappers_come_off():
    config = LiveSockets().setup(3).latency_config  # fig-4b
    send_before = Network.__dict__["send"]
    run_before = harness.run_consensus
    with Tracer(keep_spans=1_000) as tracer:
        install_layers(tracer)
        assert Network.__dict__["send"] is not send_before
        assert "repro.analysis.harness.run_consensus" in _wrapped_bindings()
        result = harness.run_consensus(config)
    assert result.consensus_solved

    totals = tracer.totals()
    root = totals["analysis.harness:run_consensus"]
    assert root.count == 1
    assert sum(entry.self_s for entry in totals.values()) == pytest.approx(root.total_s, rel=1e-9)
    assert totals["sim.network:send"].count == result.messages_sent
    assert totals["core.discovery:absorb"].tally <= totals["core.discovery:absorb"].count

    spans = tracer.kept_spans()
    assert spans[0]["name"] == "analysis.harness:run_consensus" and spans[0]["parent"] == -1
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert span["run"] == 0

    assert Network.__dict__["send"] is send_before
    assert harness.run_consensus is run_before
    assert _wrapped_bindings() == []


def test_metric_names_match_benchmark_json():
    spec = metrics.load_spec()
    rep = Repetition(run_s=1.0, work_per_s=2.0, ops_ms=[3.0], attempted=7, failed=0)
    end_to_end = metrics.render(metrics.end_to_end([0.1], [rep]), spec["end_to_end"])
    assert "setup_s" in end_to_end and end_to_end["setup_s"]["unit"] == "s"
    per_layer = metrics.render(
        metrics.per_layer({"graphs:locate": SpanTotals(1, 0.5, 0.5)}, {}, rep, 1.0),
        spec["per_layer"],
    )
    assert per_layer["graphs.share_of_run"]["value"] == pytest.approx(0.5)
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perf"] and spec["command"] == ["python3", "perf/run.py"]


def test_a_hang_becomes_a_failed_operation_and_children_are_reaped(capfd):
    with pytest.raises(OperationTimeout):
        with deadline(1, "a stuck run"):
            time.sleep(5)
    assert "a stuck run exceeded 1s" in capfd.readouterr().err
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert reap_children([child]) == 1
    assert child.poll() is not None
