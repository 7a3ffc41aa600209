"""The Theorem 7 impossibility experiment (Fig. 2).

Theorem 7 shows that a knowledge connectivity graph satisfying the BFT-CUP
requirements is *not* enough to solve consensus when the fault threshold is
unknown.  The proof builds three executions:

* execution A -- system A (Fig. 2a, processes 1-4, process 4 crashed/silent)
  where the correct processes must decide their common initial value ``v``;
* execution B -- system B (Fig. 2b, processes 5-8, process 5 crashed/silent)
  where they must decide ``u``;
* execution AB -- the joint system (Fig. 2c, all processes correct) where the
  messages between the two groups are delayed beyond both previous decision
  times; processes 1-3 cannot distinguish AB from A and processes 6-8 cannot
  distinguish AB from B, so they decide ``v`` and ``u`` respectively --
  violating Agreement.

:func:`run_impossibility_experiment` replays exactly those three executions
with the BFT-CUPFT protocol (no process is given the fault threshold) and
reports the observed decisions, demonstrating the violation empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.schedule import DelayRule, NetworkSchedule
from repro.adversary.spec import FaultSpec
from repro.analysis.harness import RunConfig, RunResult, run_consensus
from repro.core.config import ProtocolConfig
from repro.graphs.figures import figure_2a, figure_2b, figure_2c
from repro.sim.synchrony import PartialSynchronyModel

GROUP_A = frozenset({1, 2, 3, 4})
GROUP_B = frozenset({5, 6, 7, 8})
#: How long execution AB holds every cross-group message: past both groups'
#: decisions.
CROSS_GROUP_DELAY = 1_500.0


@dataclass
class ImpossibilityOutcome:
    """The three executions of the Theorem 7 argument and their verdicts."""

    execution_a: RunResult
    execution_b: RunResult
    execution_ab: RunResult

    @property
    def a_decided_v(self) -> bool:
        return set(self.execution_a.decisions.values()) == {"v"}

    @property
    def b_decided_u(self) -> bool:
        return set(self.execution_b.decisions.values()) == {"u"}

    @property
    def ab_agreement_violated(self) -> bool:
        return not self.execution_ab.properties.agreement

    @property
    def demonstrates_theorem(self) -> bool:
        """The impossibility is demonstrated when A decides v, B decides u and AB disagrees."""
        return self.a_decided_v and self.b_decided_u and self.ab_agreement_violated


def _run_single_system(scenario, value: str, seed: int) -> RunResult:
    proposals = {process: value for process in scenario.graph.processes}
    faulty = {process: FaultSpec("silent") for process in scenario.faulty}
    config = RunConfig(
        graph=scenario.graph,
        protocol=ProtocolConfig.bft_cupft(),
        faulty=faulty,
        proposals=proposals,
        synchrony=PartialSynchronyModel(gst=20.0, delta=1.0),
        seed=seed,
        horizon=2_000.0,
    )
    return run_consensus(config)


def theorem7_cross_group_schedule() -> NetworkSchedule:
    """The Theorem 7 adversarial scheduler, as a declarative schedule.

    Every message between the two groups is delayed beyond both groups'
    decision times.  The rules are marked ``adversarial=True``: they delay
    correct→correct traffic far past the declared ``GST + delta``, which is
    admissible in the proof because GST can be arbitrarily large — the
    cross-group messages are simply "still pre-GST" until after both groups
    have decided — but is exactly the contract violation the schedule
    validator exists to catch in ordinary experiments.
    """
    return NetworkSchedule(
        name="theorem7-cross-group",
        rules=(
            DelayRule(src=GROUP_A, dst=GROUP_B, delay=CROSS_GROUP_DELAY, adversarial=True),
            DelayRule(src=GROUP_B, dst=GROUP_A, delay=CROSS_GROUP_DELAY, adversarial=True),
        ),
    )


def _run_joint_system(seed: int) -> RunResult:
    scenario = figure_2c()
    proposals = {}
    for process in scenario.graph.processes:
        proposals[process] = "v" if process in GROUP_A else "u"
    config = RunConfig(
        graph=scenario.graph,
        protocol=ProtocolConfig.bft_cupft(),
        faulty={},
        proposals=proposals,
        synchrony=PartialSynchronyModel(gst=20.0, delta=1.0),
        schedule=theorem7_cross_group_schedule(),
        seed=seed,
        horizon=2_000.0,
    )
    return run_consensus(config)


def run_impossibility_experiment(seed: int = 0) -> ImpossibilityOutcome:
    """Replay the three executions of Theorem 7 and report the outcome."""
    execution_a = _run_single_system(figure_2a(), "v", seed)
    execution_b = _run_single_system(figure_2b(), "u", seed)
    execution_ab = _run_joint_system(seed)
    return ImpossibilityOutcome(
        execution_a=execution_a,
        execution_b=execution_b,
        execution_ab=execution_ab,
    )


def describe(outcome: ImpossibilityOutcome) -> str:
    """Human-readable description of the three executions (used by the benchmark)."""
    lines = [
        "Theorem 7 (impossibility with unknown fault threshold) -- empirical replay:",
        f"  execution A  (system A, process 4 silent): decisions = {sorted(map(repr, set(outcome.execution_a.decisions.values())))}",
        f"  execution B  (system B, process 5 silent): decisions = {sorted(map(repr, set(outcome.execution_b.decisions.values())))}",
        f"  execution AB (all correct, cross-group messages delayed):",
        f"    group A decided: {sorted(map(repr, {v for p, v in outcome.execution_ab.decisions.items() if p in GROUP_A}))}",
        f"    group B decided: {sorted(map(repr, {v for p, v in outcome.execution_ab.decisions.items() if p in GROUP_B}))}",
        f"    agreement violated: {outcome.ab_agreement_violated}",
        f"  theorem demonstrated: {outcome.demonstrates_theorem}",
    ]
    return "\n".join(lines)
