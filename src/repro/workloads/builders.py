"""Builders that turn graph scenarios into :class:`~repro.analysis.harness.RunConfig`.

A scenario (a reconstructed paper figure, a generated random graph, or a
declarative :class:`~repro.experiments.scenario.Scenario` cell) fixes the
knowledge connectivity graph, the fault assignment and the fault threshold;
the builders below add the remaining run parameters: which protocol mode to
use, how the faulty processes behave, the synchrony model and the proposals.

The adversary side of the builders accepts either a single behaviour name
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
from repro.adversary.spec import FaultSpec
from repro.analysis.harness import RunConfig
from repro.core.config import DEFAULT_HORIZON, ProtocolConfig, ProtocolMode
from repro.graphs.figures import GraphScenario
from repro.graphs.knowledge_graph import ProcessId
from repro.graphs.requirements import known_by_more_than
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import Scenario


def expected_core_of(scenario: GraphScenario) -> frozenset[ProcessId]:
    """The expected sink/core of a graph scenario's *safe* subgraph.

    The core is preferred, falling back to the sink when the scenario has no
    (unique) core ground truth.
    """
    return scenario.expected_safe_core or scenario.expected_safe_sink


def core_attached_faulty(scenario: GraphScenario) -> frozenset[ProcessId]:
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


def fault_assignment(
    behaviour: "str | AdversaryMix",
    faulty: frozenset[ProcessId],
    *,
    seed: int = 0,
    inside_core: frozenset[ProcessId] | None = None,
) -> dict[ProcessId, FaultSpec]:
    """The fault assignment for one run: homogeneous fanout or a per-process mix.

    Every spec leaves its parameters' defaults to the node build
    (:func:`repro.adversary.nodes.build_faulty_node`); only a mix entry's
    overrides are set here.
    """
    if isinstance(behaviour, AdversaryMix):
        placed = behaviour.assign(faulty, seed=seed, inside_core=inside_core)
        specs = {entry: FaultSpec(entry.behaviour, **dict(entry.params)) for entry in behaviour.entries}
        return {process: specs[entry] for process, entry in placed.items()}
    spec = FaultSpec(behaviour)
    return {process: spec for process in sorted(faulty, key=repr)}


def _inside_core_for(
    behaviour: "str | AdversaryMix",
    scenario: GraphScenario,
) -> frozenset[ProcessId] | None:
    """The core-attachment ground truth, computed only when placement needs it."""
    if isinstance(behaviour, AdversaryMix) and any(
        isinstance(entry.target, str) for entry in behaviour.entries
    ):
        return core_attached_faulty(scenario)
    return None


def graph_run_config(
    scenario: GraphScenario,
    *,
    mode: ProtocolMode,
    behaviour: "str | AdversaryMix" = "silent",
    proposals: dict[ProcessId, Any] | None = None,
    synchrony: SynchronyModel | None = None,
    schedule: NetworkSchedule | None = None,
    seed: int = 0,
    horizon: float = DEFAULT_HORIZON,
    **protocol_kwargs: Any,
) -> RunConfig:
    """Build a run configuration for a paper figure or a generated graph."""
    faulty = fault_assignment(
        behaviour,
        scenario.faulty,
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


def scenario_run_config(scenario: "Scenario") -> RunConfig:
    """Materialise a declarative experiment scenario into a :class:`RunConfig`.

    The graph, synchrony model, fault assignment and protocol configuration
    are all built here, from the scenario's declarative specs — never
    shipped across process boundaries — so the suite runner can execute the
    same scenario identically in-process or on a worker.
    """
    return graph_run_config(
        scenario.graph.build(),
        mode=scenario.mode,
        behaviour=scenario.mix if scenario.mix is not None else scenario.behaviour,
        synchrony=scenario.synchrony.build(),
        schedule=scenario.schedule,
        seed=scenario.seed,
        horizon=scenario.horizon,
        **dict(scenario.protocol_options),
    )
