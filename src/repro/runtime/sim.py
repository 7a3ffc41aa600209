"""The discrete-event implementation of the :class:`~repro.runtime.base.Runtime` seam.

A :class:`SimRuntime` is a thin adapter over a
:class:`~repro.sim.engine.Simulator` and :class:`~repro.sim.network.Network`
pair — it adds no behaviour of its own, and the pair is not reachable
through it.

This module is also where declarative constructs bind to the rule engine.
:func:`build_sim_runtime` assembles the Simulator + Network pair of a
discrete-event run, and the compiled forms of
:class:`~repro.adversary.schedule.DelayRule` /
:class:`~repro.adversary.schedule.PartitionRule` live here (both runtimes
gate sends with them): the schedule dataclasses stay plain data in
:mod:`repro.adversary.schedule`, and the one module allowed to touch the
:class:`~repro.sim.network.Network` rule engine is the runtime adapter —
which is what lets the lint layering map forbid sim-machinery imports
everywhere outside ``repro.runtime`` + ``repro.sim``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.adversary.schedule import DelayRule, PartitionRule, _resolve_targets
from repro.graphs.knowledge_graph import ProcessId
from repro.runtime.base import Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.messages import Envelope
from repro.sim.network import WITHHOLD, Network, NetworkRule, _Withhold
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


class SimRuntime(Runtime):
    """Runtime backed by the deterministic discrete-event engine."""

    __slots__ = ("_simulator", "_network", "trace", "faulty", "model")

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self._simulator = simulator
        self._network = network
        self.trace = network.trace
        self.faulty = network.faulty
        self.model = network.model

    @property
    def now(self) -> float:
        return self._simulator.now

    @property
    def process_ids(self) -> frozenset[ProcessId]:
        return self._network.process_ids

    def register(self, process: "Process") -> None:
        self._network.register(process)

    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        self._network.send(sender, receiver, payload)

    def add_rule(self, rule: NetworkRule) -> None:
        self._network.add_rule(rule)

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> TimerHandle:
        return self._simulator.schedule(delay, callback, label)

    def crash(self, process_id: ProcessId) -> None:
        self._network.crash(process_id)

    def run(self, start: Callable[[], None], until: Callable[[], bool]) -> None:
        start()
        self._simulator.run(until=until)

    def result_fields(self) -> dict[str, Any]:
        engine = self._simulator
        return {
            "virtual_duration": engine.now,
            "events_processed": engine.processed_events,
            "compactions": engine.compactions,
            "pending_peak": engine.pending_peak,
        }


def build_sim_runtime(
    *,
    max_time: float,
    synchrony: SynchronyModel | None = None,
    network_seed: int = 0,
    faulty: frozenset[ProcessId] = frozenset(),
    max_events: int | None = None,
) -> SimRuntime:
    """Assemble the Simulator + Network pair of one discrete-event run.

    The one factory keeps ``Simulator`` / ``Network`` imports confined to
    the runtime seam.  ``network_seed`` is used *verbatim* — callers that
    want independent substreams derive it first (as
    :func:`repro.analysis.harness.run_consensus` does with
    ``derive_seed(seed, "network")``); the discovery baselines seed it raw.
    """
    simulator = Simulator(
        max_time=max_time,
        **({} if max_events is None else {"max_events": max_events}),
    )
    network = Network(
        simulator,
        synchrony if synchrony is not None else PartialSynchronyModel(),
        trace=SimulationTrace(),
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
        self, rule: DelayRule, processes: frozenset[ProcessId], faulty: frozenset[ProcessId]
    ) -> None:
        self.name = rule.rule_name
        self._rule = rule
        self._src = _resolve_targets(rule.src, processes, faulty)
        self._dst = _resolve_targets(rule.dst, processes, faulty)

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

    def __init__(self, rule: PartitionRule) -> None:
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


def compile_rule(
    rule: DelayRule | PartitionRule, *, processes: frozenset[ProcessId], faulty: frozenset[ProcessId]
) -> NetworkRule:
    """Bind a declarative message rule to a run's membership."""
    if isinstance(rule, PartitionRule):
        return _CompiledPartitionRule(rule)  # membership-independent
    return _CompiledDelayRule(rule, processes, faulty)


__all__ = [
    "SimRuntime",
    "build_sim_runtime",
    "compile_rule",
]
