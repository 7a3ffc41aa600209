"""Golden trajectories: two full runs pinned to recorded constants.

The simulated message path (``Process.send`` -> ``Network.send`` -> engine
batch -> ``Process.receive`` -> ``DiscoveryState.absorb``) is optimised for
speed under one rule: the trajectory does not move.  A change that reorders
two deliveries, draws from the network ``rng`` in a different order or
counts pending events differently shifts at least one number below, so it
is a red tier-1 test rather than a diff in the ``bench-regression`` job.

The constants were recorded at the commit before the path was slimmed
(PR 14) and must only be re-recorded for an *intended* behaviour change.
"""

import hashlib
import json

from repro.adversary.schedule import NetworkSchedule, PartitionRule
from repro.analysis.harness import run_consensus
from repro.core.config import ProtocolMode
from repro.experiments.scenario import GraphSpec, Scenario, SynchronySpec
from repro.workloads.builders import scenario_run_config


def fingerprint(result):
    summary = result.summary()
    return {
        "events_processed": result.events_processed,
        "messages_sent": result.messages_sent,
        "messages_dropped": result.trace.messages_dropped,
        "delayed_by_rule": sum(result.trace.delayed_by_rule.values()),
        "pending_peak": result.pending_peak,
        "compactions": result.compactions,
        "virtual_duration": result.virtual_duration,
        "summary_digest": hashlib.sha256(
            json.dumps(summary, sort_keys=True).encode()
        ).hexdigest()[:16],
    }


def test_bft_cup_n200_partial_synchrony():
    scenario = Scenario(
        name="golden-cup",
        graph=GraphSpec.bft_cup(f=1, non_sink_size=196, extra_edge_probability=0.0, seed=11),
        mode=ProtocolMode.BFT_CUP,
        behaviour="silent",
        synchrony=SynchronySpec(kind="partial"),
        seed=5,
    )
    result = run_consensus(scenario_run_config(scenario))
    assert result.consensus_solved
    assert fingerprint(result) == {
        "events_processed": 12557,
        "messages_sent": 10568,
        "messages_dropped": 0,
        "delayed_by_rule": 0,
        "pending_peak": 4806,
        "compactions": 2,
        "virtual_duration": 53.72852988502523,
        "summary_digest": "2e368bd4fdcbbb4b",
    }


def test_bft_cupft_with_crash_and_partition():
    graph = GraphSpec.bft_cupft(f=2, non_core_size=40, seed=11)
    processes = sorted(graph.build().graph.processes, key=repr)
    half = len(processes) // 2
    schedule = NetworkSchedule(
        rules=(PartitionRule(groups=(processes[:half], processes[half:]), t_from=5.0, t_to=30.0),),
        name="split",
    )
    scenario = Scenario(
        name="golden-cupft",
        graph=graph,
        mode=ProtocolMode.BFT_CUPFT,
        behaviour="crash",  # both faulty processes crash at t=25, inside the partition
        synchrony=SynchronySpec(kind="partial"),
        schedule=schedule,
        seed=5,
    )
    result = run_consensus(scenario_run_config(scenario))
    assert result.consensus_solved
    assert fingerprint(result) == {
        "events_processed": 6986,
        "messages_sent": 6540,
        "messages_dropped": 454,
        "delayed_by_rule": 668,
        "pending_peak": 3063,
        "compactions": 1,
        "virtual_duration": 54.056545184385854,
        "summary_digest": "5c8565c62a699bef",
    }
