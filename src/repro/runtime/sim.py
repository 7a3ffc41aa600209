"""The discrete-event implementation of the :class:`~repro.runtime.base.Runtime` seam.

A :class:`SimRuntime` is a thin adapter over the existing
:class:`~repro.sim.engine.Simulator` and :class:`~repro.sim.network.Network`
pair — it adds no behaviour of its own, so every deterministic trajectory
recorded before the seam existed is reproduced exactly.

This module is also where declarative constructs bind to the simulated
transport.  :func:`build_sim_runtime` assembles the Simulator + Network
pair every discrete-event harness used to construct by hand, and the
compiled forms of :class:`~repro.adversary.schedule.DelayRule` /
:class:`~repro.adversary.schedule.PartitionRule` (plus
:func:`install_schedule`) live here: the schedule dataclasses stay plain
data in :mod:`repro.adversary.schedule`, and the one module allowed to
touch the :class:`~repro.sim.network.Network` rule engine is the runtime
adapter — which is what lets the lint layering map forbid sim-machinery
imports everywhere outside ``repro.runtime`` + ``repro.sim``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.graphs.knowledge_graph import ProcessId
from repro.runtime.base import Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.messages import Envelope
from repro.sim.network import WITHHOLD, Network, NetworkRule, _Withhold
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.schedule import DelayRule, NetworkSchedule, PartitionRule
    from repro.sim.process import Process


class SimRuntime(Runtime):
    """Runtime backed by the deterministic discrete-event engine."""

    __slots__ = ("simulator", "network", "trace")

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self.simulator = simulator
        self.network = network
        self.trace = network.trace

    @property
    def now(self) -> float:
        return self.simulator.now

    def register(self, process: "Process") -> None:
        self.network.register(process)

    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        self.network.send(sender, receiver, payload)

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> TimerHandle:
        return self.simulator.schedule(delay, callback, label)

    def crash(self, process_id: ProcessId) -> None:
        self.network.crash(process_id)


def build_sim_runtime(
    *,
    max_time: float,
    synchrony: SynchronyModel | None = None,
    trace: SimulationTrace | None = None,
    network_seed: int = 0,
    faulty: frozenset[ProcessId] = frozenset(),
    max_events: int | None = None,
) -> SimRuntime:
    """Assemble the Simulator + Network pair of one discrete-event run.

    This is the construction every simulated harness used to spell out by
    hand; routing them through one factory keeps ``Simulator`` / ``Network``
    imports confined to the runtime seam.  ``network_seed`` is used
    *verbatim* — callers that want independent substreams derive it first
    (as :func:`repro.analysis.harness.run_consensus` does with
    ``derive_seed(seed, "network")``), and callers that historically seeded
    the network raw keep their recorded trajectories bit-identical.
    """
    simulator = Simulator(
        max_time=max_time,
        **({} if max_events is None else {"max_events": max_events}),
    )
    network = Network(
        simulator,
        synchrony if synchrony is not None else PartialSynchronyModel(),
        trace=trace if trace is not None else SimulationTrace(),
        seed=network_seed,
        faulty=frozenset(faulty),
    )
    return SimRuntime(simulator, network)


# ---------------------------------------------------------------------------
# Network-schedule compilation (the sim binding of repro.adversary.schedule)
# ---------------------------------------------------------------------------
class _CompiledDelayRule(NetworkRule):
    """A :class:`~repro.adversary.schedule.DelayRule` bound to a concrete membership."""

    def __init__(
        self,
        rule: "DelayRule",
        src: frozenset[ProcessId],
        dst: frozenset[ProcessId],
    ) -> None:
        self.name = rule.rule_name
        self._rule = rule
        self._src = src
        self._dst = dst

    def decide(self, envelope: Envelope, *, now: float) -> float | _Withhold | None:
        rule = self._rule
        if not rule.t_from <= now < rule.t_to:
            return None
        if envelope.sender not in self._src or envelope.receiver not in self._dst:
            return None
        if rule.withholds:
            return WITHHOLD
        if rule.until is not None:
            return max(rule.until - now, 0.0)
        return rule.delay


class _CompiledPartitionRule(NetworkRule):
    """A :class:`~repro.adversary.schedule.PartitionRule` with its group lookup precomputed."""

    def __init__(self, rule: "PartitionRule") -> None:
        self.name = rule.rule_name
        self._rule = rule
        self._group_of: dict[ProcessId, int] = {}
        for index, group in enumerate(rule.groups):
            for member in group:
                self._group_of[member] = index

    def decide(self, envelope: Envelope, *, now: float) -> float | _Withhold | None:
        rule = self._rule
        if not rule.t_from <= now < rule.t_to:
            return None
        sender_group = self._group_of.get(envelope.sender)
        receiver_group = self._group_of.get(envelope.receiver)
        if sender_group is None or receiver_group is None or sender_group == receiver_group:
            return None
        if math.isinf(rule.t_to):
            return WITHHOLD
        return (rule.t_to - now) + rule.heal_delay


def compile_delay_rule(
    rule: "DelayRule", *, processes: frozenset[ProcessId], faulty: frozenset[ProcessId]
) -> NetworkRule:
    """Bind a declarative delay rule to a run's membership."""
    from repro.adversary.schedule import _resolve_targets

    return _CompiledDelayRule(
        rule,
        _resolve_targets(rule.src, processes, faulty),
        _resolve_targets(rule.dst, processes, faulty),
    )


def compile_partition_rule(rule: "PartitionRule") -> NetworkRule:
    """Compile a declarative partition rule (membership-independent)."""
    return _CompiledPartitionRule(rule)


def install_schedule(schedule: "NetworkSchedule", network: Network) -> None:
    """Validate a schedule against the network's model, then compile onto it.

    Message rules become ordered :class:`~repro.sim.network.NetworkRule`
    instances (their names show up in trace drop/delay reasons); crash
    rules become simulator events.  Call after every process has been
    registered, so symbolic targets resolve against the full membership.
    """
    from repro.adversary.schedule import CrashRule

    schedule.validate(network.model, processes=network.process_ids, faulty=network.faulty)
    for rule in schedule.rules:
        if isinstance(rule, CrashRule):
            delay = max(rule.at - network.simulator.now, 0.0)
            network.simulator.schedule(
                delay,
                lambda process=rule.process: network.crash(process),
                label=f"schedule rule {rule.rule_name}",
            )
        else:
            network.add_rule(
                rule.compile(processes=network.process_ids, faulty=network.faulty)
            )


__all__ = [
    "SimRuntime",
    "build_sim_runtime",
    "compile_delay_rule",
    "compile_partition_rule",
    "install_schedule",
]
