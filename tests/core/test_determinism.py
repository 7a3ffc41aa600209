"""Regression tests for trajectory determinism.

Two layers:

* unit: :meth:`DiscoveryState.absorb` must be independent of the iteration
  order of the entries payload, including the equivocation corner where one
  payload carries two conflicting records signed by the same owner;
* end-to-end: a full simulated consensus run with *string* process ids (the
  hash-seed-sensitive case) and an equivocating adversary must produce a
  bit-identical trajectory under different ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.discovery import DiscoveryState
from repro.core.messages import PdRecord
from repro.crypto.signatures import KeyRegistry


def make_state(process_id, pd, registry):
    return DiscoveryState(
        process_id=process_id,
        participant_detector=frozenset(pd),
        key=registry.generate(process_id),
        registry=registry,
    )


class TestAbsorbOrderIndependence:
    def test_conflicting_same_owner_records_resolve_by_tag(self):
        registry = KeyRegistry()
        byz_key = registry.generate("byz")
        record_a = byz_key.sign(PdRecord(owner="byz", pd=frozenset({"p1"})))
        record_b = byz_key.sign(PdRecord(owner="byz", pd=frozenset({"p2"})))
        winner = min(record_a, record_b, key=lambda entry: entry.tag)

        for payload in [(record_a, record_b), (record_b, record_a)]:
            state = make_state("p0", {"p0", "p1"}, registry)
            assert state.absorb(frozenset(payload))
            assert state.records["byz"] == winner
            # Both claimed PDs fold into known either way.
            assert {"p1", "p2"} <= state.known

    def test_absorb_results_identical_for_both_orders(self):
        registry = KeyRegistry()
        keys = {pid: registry.generate(pid) for pid in ("a", "b", "byz")}
        entries = [
            keys["a"].sign(PdRecord(owner="a", pd=frozenset({"b", "x"}))),
            keys["b"].sign(PdRecord(owner="b", pd=frozenset({"a", "y"}))),
            keys["byz"].sign(PdRecord(owner="byz", pd=frozenset({"m"}))),
            keys["byz"].sign(PdRecord(owner="byz", pd=frozenset({"n"}))),
        ]
        snapshots = []
        for ordering in (entries, list(reversed(entries))):
            state = make_state("p0", {"a", "b"}, registry)
            # ``absorb`` only requires an iterable; feeding explicit
            # permutations simulates the orders a frozenset could present.
            changed = state.absorb(ordering)
            snapshots.append(
                (
                    dict(state.records),
                    frozenset(state.known),
                    frozenset(state.received),
                    changed,
                )
            )
        assert snapshots[0] == snapshots[1]


_TRAJECTORY_SCRIPT = """
import json
from repro.adversary.spec import FaultSpec
from repro.analysis.harness import RunConfig, run_consensus
from repro.core.config import ProtocolConfig
from repro.graphs.knowledge_graph import KnowledgeGraph

ids = [f"proc-{i}" for i in range(5)]
graph = KnowledgeGraph()
for pid in ids:
    graph.add_process(pid)
for pid in ids:
    for other in ids:
        if pid != other:
            graph.add_edge(pid, other)

config = RunConfig(
    graph=graph,
    protocol=ProtocolConfig.bft_cup(1),
    faulty={
        ids[4]: FaultSpec(
            "equivocating_pd", claimed_pd=frozenset(ids[:3]), alternate_pd=frozenset(ids[1:4])
        )
    },
    seed=7,
)
result = run_consensus(config)
digest = {
    "decisions": {pid: repr(value) for pid, value in sorted(result.decisions.items())},
    "decision_times": {pid: t for pid, t in sorted(result.decision_times.items())},
    "messages_sent": result.trace.messages_sent,
    "messages_delivered": result.trace.messages_delivered,
    "events": result.trace.events,
}
print(json.dumps(digest, sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_trajectory_identical_across_hash_seeds(self):
        """String ids + equivocation: the canary for set-order nondeterminism."""
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(src)
            proc = subprocess.run(
                [sys.executable, "-c", _TRAJECTORY_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["decisions"]
