"""The discrete-event implementation of the :class:`~repro.runtime.base.Runtime` seam.

A :class:`SimRuntime` is a thin adapter over a
:class:`~repro.sim.engine.Simulator` and :class:`~repro.sim.network.Network`
pair — it adds no behaviour of its own, and the pair is not reachable
through it.  :func:`build_sim_runtime` assembles that pair for one run, which
keeps ``Simulator`` / ``Network`` imports confined to the runtime seam: the
lint layering map forbids sim-machinery imports everywhere outside
``repro.runtime`` + ``repro.sim``.  Membership, crashes and scripted fault
rules go to the network's :class:`~repro.sim.gate.SendGate` through the
:class:`~repro.runtime.base.Runtime` methods that own them.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.graphs.knowledge_graph import ProcessId
from repro.runtime.base import Runtime, TimerHandle
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel
from repro.sim.tracing import SimulationTrace


class SimRuntime(Runtime):
    """Runtime backed by the deterministic discrete-event engine."""

    __slots__ = ("_simulator", "_network", "_gate", "trace", "faulty", "model")

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self._simulator = simulator
        self._network = network
        self._gate = network.gate
        self.trace = network.trace
        self.faulty = network.faulty
        self.model = network.model

    @property
    def now(self) -> float:
        return self._simulator.now

    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        self._network.send(sender, receiver, payload)

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self._simulator.schedule(delay, callback)

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


__all__ = ["SimRuntime", "build_sim_runtime"]
