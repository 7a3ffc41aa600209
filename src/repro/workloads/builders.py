"""Builders that turn graph scenarios into :class:`~repro.analysis.harness.RunConfig`.

A scenario (a reconstructed paper figure, a generated random graph, or a
declarative :class:`~repro.experiments.scenario.Scenario` cell) fixes the
knowledge connectivity graph, the fault assignment and the fault threshold;
the builders below add the remaining run parameters: which protocol mode to
use, how the faulty processes behave, the synchrony model and the proposals.

The adversary side of every builder accepts either a single behaviour name
(applied to every faulty process) or an
:class:`~repro.adversary.mix.AdversaryMix` (a heterogeneous, per-process
assignment placed deterministically from the run seed).

:func:`scenario_run_config` is the bridge used by the experiment suite
runner: it materialises a declarative scenario into a concrete run config
inside the executing process, which is what keeps scenarios picklable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.adversary.mix import AdversaryMix
from repro.adversary.schedule import NetworkSchedule
from repro.adversary.spec import BEHAVIOUR_PARAMS, FaultSpec
from repro.analysis.harness import RunConfig
from repro.core.config import ProtocolConfig, ProtocolMode
from repro.graphs.figures import FigureScenario
from repro.graphs.generators import GeneratedScenario
from repro.graphs.knowledge_graph import ProcessId
from repro.graphs.requirements import known_by_more_than
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import Scenario


def expected_core_of(scenario: "FigureScenario | GeneratedScenario") -> frozenset[ProcessId]:
    """The expected sink/core of a graph scenario's *safe* subgraph.

    Figures expose ``expected_safe_core`` / ``expected_safe_sink``;
    generated scenarios expose ``core_of_safe_graph`` / ``sink_of_safe_graph``.
    The core is preferred, falling back to the sink when the scenario has no
    (unique) core ground truth.
    """
    if isinstance(scenario, FigureScenario):
        return scenario.expected_safe_core or scenario.expected_safe_sink
    return scenario.core_of_safe_graph or scenario.sink_of_safe_graph


def core_attached_faulty(
    scenario: "FigureScenario | GeneratedScenario",
) -> frozenset[ProcessId]:
    """Faulty processes *attached to* the scenario's expected sink/core.

    A Byzantine process is "inside" the expected core exactly when at least
    ``f + 1`` core members know it: that is the condition under which the
    online algorithms place it in the returned sink via ``S2`` (see the
    generator's ``byzantine_placement="sink"`` construction), so it is the
    declarative meaning of :data:`repro.adversary.mix.INSIDE_CORE`
    targeting -- and the rule by which
    :class:`~repro.graphs.requirements.StaticOracle` extends the safe core
    to the set the protocol is expected to return.
    """
    return known_by_more_than(
        scenario.graph, expected_core_of(scenario), scenario.faulty, scenario.fault_threshold
    )


def default_fault_spec(
    behaviour: str, scenario_graph_processes: frozenset[ProcessId], **params: Any
) -> FaultSpec:
    """Build a :class:`FaultSpec` for a named behaviour with sensible defaults.

    Every entry of :data:`~repro.adversary.spec.KNOWN_BEHAVIOURS` has a
    default here, so matrix sweeps over all known behaviours build.
    ``params`` override the per-behaviour defaults (``at`` for ``crash``,
    ``poison_value`` for the value-poisoning behaviours); overrides the
    behaviour does not accept are rejected rather than silently ignored.
    """
    allowed = BEHAVIOUR_PARAMS.get(behaviour, frozenset())
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"behaviour {behaviour!r} accepts no parameter named {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    if behaviour == "silent":
        return FaultSpec.silent()
    if behaviour == "crash":
        return FaultSpec.crash(at=params.get("at", 25.0))
    if behaviour == "lying_pd":
        # Claim to know (almost) everyone: the classic over-claiming lie.
        return FaultSpec.lying_pd(frozenset(scenario_graph_processes))
    if behaviour == "equivocating_pd":
        # Two fabricated halves of the participant space: one story for the
        # first half of the identifier space, another for the second.
        members = sorted(scenario_graph_processes, key=repr)
        split = (len(members) + 1) // 2
        first = frozenset(members[:split])
        second = frozenset(members[split:]) or first
        return FaultSpec.equivocating_pd(first, second)
    if behaviour == "wrong_value":
        return FaultSpec.wrong_value(**params)
    if behaviour == "equivocating_leader":
        return FaultSpec.equivocating_leader(**params)
    raise ValueError(f"no default for behaviour {behaviour!r}")


def mix_fault_specs(
    mix: AdversaryMix,
    faulty: frozenset[ProcessId],
    scenario_graph_processes: frozenset[ProcessId],
    *,
    seed: int = 0,
    inside_core: frozenset[ProcessId] | None = None,
) -> dict[ProcessId, FaultSpec]:
    """Materialise a declarative mix into one :class:`FaultSpec` per faulty process."""
    return {
        process: default_fault_spec(entry.behaviour, scenario_graph_processes, **dict(entry.params))
        for process, entry in mix.assign(faulty, seed=seed, inside_core=inside_core).items()
    }


def fault_assignment(
    behaviour: "str | AdversaryMix",
    faulty: frozenset[ProcessId],
    scenario_graph_processes: frozenset[ProcessId],
    *,
    seed: int = 0,
    inside_core: frozenset[ProcessId] | None = None,
) -> dict[ProcessId, FaultSpec]:
    """The fault assignment for one run: homogeneous fanout or a per-process mix."""
    if isinstance(behaviour, AdversaryMix):
        return mix_fault_specs(
            behaviour, faulty, scenario_graph_processes, seed=seed, inside_core=inside_core
        )
    return {
        process: default_fault_spec(behaviour, scenario_graph_processes)
        for process in sorted(faulty, key=repr)
    }


def _inside_core_for(
    behaviour: "str | AdversaryMix",
    scenario: "FigureScenario | GeneratedScenario",
) -> frozenset[ProcessId] | None:
    """The core-attachment ground truth, computed only when placement needs it."""
    if isinstance(behaviour, AdversaryMix) and any(
        isinstance(entry.target, str) for entry in behaviour.entries
    ):
        return core_attached_faulty(scenario)
    return None


def _run_config(
    scenario: "FigureScenario | GeneratedScenario",
    mode: ProtocolMode,
    behaviour: "str | AdversaryMix",
    proposals: dict[ProcessId, Any] | None,
    synchrony: SynchronyModel | None,
    schedule: NetworkSchedule | None,
    seed: int,
    horizon: float,
    **protocol_kwargs: Any,
) -> RunConfig:
    """The one body behind every builder: faults, protocol and run parameters."""
    faulty = fault_assignment(
        behaviour,
        scenario.faulty,
        scenario.graph.processes,
        seed=seed,
        inside_core=_inside_core_for(behaviour, scenario),
    )
    if mode is ProtocolMode.BFT_CUP:
        protocol = ProtocolConfig.bft_cup(scenario.fault_threshold, **protocol_kwargs)
    else:
        protocol = ProtocolConfig.bft_cupft(**protocol_kwargs)
    return RunConfig(
        graph=scenario.graph,
        protocol=protocol,
        faulty=faulty,
        proposals=proposals or {},
        synchrony=synchrony if synchrony is not None else PartialSynchronyModel(),
        schedule=schedule,
        seed=seed,
        horizon=horizon,
    )


def figure_run_config(
    scenario: FigureScenario,
    *,
    mode: ProtocolMode = ProtocolMode.BFT_CUP,
    behaviour: "str | AdversaryMix" = "silent",
    proposals: dict[ProcessId, Any] | None = None,
    synchrony: SynchronyModel | None = None,
    schedule: NetworkSchedule | None = None,
    seed: int = 0,
    horizon: float = 5_000.0,
    **protocol_kwargs,
) -> RunConfig:
    """Build a run configuration for a reconstructed paper figure."""
    return _run_config(
        scenario, mode, behaviour, proposals, synchrony, schedule, seed, horizon, **protocol_kwargs
    )


def scenario_run_config(scenario: "Scenario") -> RunConfig:
    """Materialise a declarative experiment scenario into a :class:`RunConfig`.

    The graph, synchrony model, fault assignment and protocol configuration
    are all built here, from the scenario's declarative specs — never
    shipped across process boundaries — so the suite runner can execute the
    same scenario identically in-process or on a worker.
    """
    return _run_config(
        scenario.graph.build(),
        scenario.mode,
        scenario.mix if scenario.mix is not None else scenario.behaviour,
        None,
        scenario.synchrony.build(),
        scenario.schedule,
        scenario.seed,
        scenario.horizon,
        **dict(scenario.protocol_options),
    )


def generated_run_config(
    scenario: GeneratedScenario,
    *,
    mode: ProtocolMode = ProtocolMode.BFT_CUPFT,
    behaviour: "str | AdversaryMix" = "silent",
    proposals: dict[ProcessId, Any] | None = None,
    synchrony: SynchronyModel | None = None,
    schedule: NetworkSchedule | None = None,
    seed: int = 0,
    horizon: float = 5_000.0,
    **protocol_kwargs,
) -> RunConfig:
    """Build a run configuration for a generated random scenario."""
    return _run_config(
        scenario, mode, behaviour, proposals, synchrony, schedule, seed, horizon, **protocol_kwargs
    )
