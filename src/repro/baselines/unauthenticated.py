"""Unauthenticated discovery + sink identification (the BFT-CUP baseline).

Without signatures, a process cannot trust a forwarded participant detector:
a Byzantine relay could have altered it.  The original BFT-CUP protocol
therefore floods PDs along the knowledge graph and a receiver only *accepts*
a PD once identical copies arrived over more than ``f`` node-disjoint relay
paths (reachable reliable broadcast).  Direct delivery from the owner itself
is also accepted (the point-to-point channels are authenticated).

The node below implements that flooding discovery, feeds the accepted PDs
into the same :class:`~repro.core.locators.SinkLocator` used by the
authenticated protocol, and stops once the sink is identified.  The
benchmark ``bench_auth_vs_unauth.py`` compares the number of messages and
the identification latency against the authenticated Discovery algorithm,
quantifying the simplification claimed in Section III.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.adversary.spec import FaultSpec
from repro.analysis.harness import RunConfig, drive
from repro.baselines.reachable_broadcast import DisjointPathTracker, FloodedRecord
from repro.core.config import ProtocolConfig
from repro.core.node import DISCOVERY_PERIOD
from repro.crypto.signatures import KeyRegistry
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.graphs.predicates import KnowledgeView
from repro.graphs.sink_search import find_sink_with_fault_threshold
from repro.runtime.base import Runtime
from repro.runtime.sim import build_sim_runtime
from repro.sim.process import Process
from repro.sim.synchrony import SynchronyModel


@dataclass(frozen=True)
class FloodPd:
    """A flooded (unsigned) participant-detector record with its relay path."""

    record: FloodedRecord


class UnauthenticatedDiscoveryNode(Process):
    """Discovery via flooding + reachable reliable broadcast, then Algorithm 2."""

    def __init__(
        self,
        process_id: ProcessId,
        participant_detector: frozenset[ProcessId],
        runtime: Runtime,
        fault_threshold: int,
    ) -> None:
        super().__init__(process_id, participant_detector, runtime=runtime)
        self.fault_threshold = fault_threshold

        self.tracker = DisjointPathTracker(receiver=process_id)
        #: Accepted participant detectors (delivered by reachable broadcast).
        self.accepted: dict[ProcessId, frozenset[ProcessId]] = {
            process_id: frozenset(participant_detector)
        }
        #: Contents received directly from their origin over the
        #: authenticated channel (trusted without path counting).
        self._direct: dict[ProcessId, frozenset[ProcessId]] = {}
        self.known: set[ProcessId] = set(participant_detector) | {process_id}
        self.identified_members: frozenset[ProcessId] | None = None
        self.identified_at: float | None = None
        self._started = False

        self.on(FloodPd, self._handle_flood)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def propose(self, value: Any) -> None:
        """The driver's entry point (the ConsensusNode API); flooding carries no value."""
        del value
        self.start()

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._flood_round()
        self.every(DISCOVERY_PERIOD, self._flood_round)

    def _flood_round(self) -> None:
        if self.identified_members is not None:
            return
        for owner, pd in sorted(self.accepted.items(), key=lambda item: repr(item[0])):
            if owner == self.process_id:
                record = FloodedRecord(origin=owner, content=pd, path=(owner,))
            else:
                record = FloodedRecord(origin=owner, content=pd, path=(owner, self.process_id))
            self.send_to_all(self.known, FloodPd(record=record))

    def _handle_flood(self, sender: ProcessId, message: FloodPd) -> None:
        record = message.record
        if not isinstance(record.content, frozenset):
            return
        if not record.path or record.path[0] != record.origin:
            return
        if record.path[-1] != sender:
            # The last relay must be the channel sender (channels are
            # authenticated even though payloads are not signed).
            return
        if self.process_id in record.path:
            return
        if record.path == (record.origin,) and sender == record.origin:
            # Direct delivery from the origin itself: trusted immediately.
            self._direct[record.origin] = record.content
        self.tracker.record(record)
        changed = self._try_accept(record.origin)
        # Forward the copy onwards (flooding), extending the relay path.
        forwarded = FloodPd(record=record.extended(self.process_id))
        self.send_to_all(self.known - set(record.path) - {record.origin}, forwarded)
        if changed:
            self._attempt_identification()

    def _try_accept(self, origin: ProcessId) -> bool:
        """Accept ``origin``'s PD once it is trustworthy.

        A PD is trusted either because it was received directly from its
        origin over the authenticated channel, or because identical copies
        arrived through more than ``f`` node-disjoint relay paths.
        """
        if origin in self.accepted:
            return False
        accepted_content: frozenset[ProcessId] | None = None
        if origin in self._direct:
            accepted_content = self._direct[origin]
        else:
            for content in self.tracker.contents_from(origin):
                if self.tracker.deliverable(origin, content, self.fault_threshold):
                    accepted_content = content
                    break
        if accepted_content is None:
            return False
        self.accepted[origin] = accepted_content
        self.known.update(accepted_content)
        self.known.add(origin)
        return True

    def _attempt_identification(self) -> None:
        if self.identified_members is not None:
            return
        view = KnowledgeView(known=frozenset(self.known), pds=dict(self.accepted))
        witness = find_sink_with_fault_threshold(view, self.fault_threshold)
        if witness is not None:
            self.identified_members = witness.members
            self.identified_at = self.now
            self.runtime.trace.on_sink_identified(self.process_id, witness.members, self.now)


@dataclass
class SinkDiscoveryOutcome:
    """Result of a discovery-only run (used by the baseline benchmark)."""

    identified: dict[ProcessId, frozenset[ProcessId]]
    identification_times: dict[ProcessId, float]
    messages_sent: int
    all_correct_identified: bool
    agreement_on_members: bool
    virtual_duration: float
    #: Crypto fast-path counters from the run's :class:`KeyRegistry`
    #: (zero for the unauthenticated variant, which verifies nothing).
    verify_calls: int = 0
    verify_cache_hits: int = 0
    canonical_cache_hits: int = 0


def _flooding_nodes(config: RunConfig, runtime: Runtime, registry: KeyRegistry) -> dict[ProcessId, Process]:
    del registry  # the flooding protocol signs nothing
    return {
        process_id: UnauthenticatedDiscoveryNode(
            process_id,
            config.graph.participant_detector(process_id),
            runtime,
            config.protocol.fault_threshold,
        )
        for process_id in sorted(config.graph.processes, key=repr)
    }


def _identified(node: Process) -> bool:
    return node.identified_members is not None


def _discover(
    graph: KnowledgeGraph,
    fault_threshold: int,
    faulty: frozenset[ProcessId],
    seed: int,
    horizon: float,
    synchrony: SynchronyModel | None,
    registry: KeyRegistry | None = None,
    build: Callable[..., dict[ProcessId, Process]] | None = None,
) -> SinkDiscoveryOutcome:
    """One discovery-only run on the shared driver, stopped at sink identification.

    Byzantine processes are silent and only the correct ones start.  Network
    and keys take the *raw* run seed (no substream derivation) and the engine
    its default event budget, as every recorded baseline trajectory did.
    """
    config = RunConfig(
        graph=graph,
        protocol=ProtocolConfig.bft_cup(fault_threshold),
        faulty={process_id: FaultSpec("silent") for process_id in sorted(faulty, key=repr)},
        synchrony=synchrony,
        seed=seed,
        horizon=horizon,
        participants=frozenset(graph.processes - faulty),
    )
    runtime = build_sim_runtime(
        max_time=horizon, synchrony=synchrony, network_seed=seed, faulty=frozenset(faulty)
    )
    result = drive(
        config,
        runtime,
        registry if registry is not None else KeyRegistry(seed=seed),
        build=build,
        settled=_identified,
    )
    return SinkDiscoveryOutcome(
        identified=result.identified,
        identification_times=result.identification_times,
        messages_sent=result.messages_sent,
        all_correct_identified=set(result.identified) == set(result.correct),
        agreement_on_members=len(set(result.identified.values())) <= 1,
        virtual_duration=result.virtual_duration,
        verify_calls=result.verify_calls,
        verify_cache_hits=result.verify_cache_hits,
        canonical_cache_hits=result.canonical_cache_hits,
    )


def run_unauthenticated_sink_discovery(
    graph: KnowledgeGraph,
    fault_threshold: int,
    faulty: frozenset[ProcessId] = frozenset(),
    *,
    seed: int = 0,
    horizon: float = 2_000.0,
    synchrony=None,
) -> SinkDiscoveryOutcome:
    """Run the unauthenticated (flooding) discovery until every correct process finds the sink."""
    return _discover(
        graph, fault_threshold, faulty, seed, horizon, synchrony, build=_flooding_nodes
    )


def run_authenticated_sink_discovery(
    graph: KnowledgeGraph,
    fault_threshold: int,
    faulty: frozenset[ProcessId] = frozenset(),
    *,
    seed: int = 0,
    horizon: float = 2_000.0,
    synchrony=None,
    registry: KeyRegistry | None = None,
) -> SinkDiscoveryOutcome:
    """Run the authenticated Discovery + Sink algorithms (no inner consensus).

    Counterpart of :func:`run_unauthenticated_sink_discovery` used by the
    baseline benchmark so both sides measure exactly the same phase
    (discovery until sink identification).  ``registry`` overrides the
    default ``KeyRegistry(seed=seed)`` — the benchmark uses it to compare
    the crypto fast path against a cache-less registry on the same run.
    """
    return _discover(graph, fault_threshold, faulty, seed, horizon, synchrony, registry)
