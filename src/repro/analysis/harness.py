"""The run-to-decision experiment harness.

Given a knowledge connectivity graph, a fault assignment (which processes
are Byzantine and how they behave), a protocol configuration and a synchrony
model, :func:`run_consensus` builds the whole simulated system, lets every
process propose, runs the simulator until every correct process decided (or
the horizon is hit), and reports the consensus properties plus message and
latency statistics.  It is the entry point used by the examples, the
integration tests and every benchmark.

That sequence is written once, in :func:`drive`, against the
:class:`~repro.runtime.base.Runtime` seam: :func:`run_consensus`,
:func:`repro.runtime.harness.run_live_consensus` and the discovery
baselines (:mod:`repro.baselines.unauthenticated`) only choose the runtime,
the seeds and the stop condition.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.adversary.nodes import build_faulty_node
from repro.adversary.schedule import NetworkSchedule, install_schedule
from repro.adversary.spec import FaultSpec
from repro.analysis.properties import ConsensusProperties, check_properties
from repro.core.config import ProtocolConfig
from repro.core.node import ConsensusNode
from repro.core.seeding import derive_seed
from repro.crypto.signatures import KeyRegistry
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.sim.process import Process
from repro.sim.synchrony import SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime


@dataclass
class RunConfig:
    """Everything needed to simulate one consensus execution."""

    graph: KnowledgeGraph
    protocol: ProtocolConfig
    #: Mapping from faulty process id to its behaviour.  Processes not
    #: listed here are correct.
    faulty: dict[ProcessId, FaultSpec] = field(default_factory=dict)
    #: Proposed values; processes without an entry propose ``f"value-of-{id}"``.
    proposals: dict[ProcessId, Any] = field(default_factory=dict)
    synchrony: SynchronyModel | None = None
    #: Declarative network fault schedule (delays/partitions/crashes),
    #: validated against the synchrony model and installed as named rules
    #: on the network before the run starts.
    schedule: NetworkSchedule | None = None
    seed: int = 0
    #: Simulation horizon (virtual time).  Runs that do not terminate by the
    #: horizon are reported with ``termination=False``.
    horizon: float = 5_000.0
    max_events: int = 2_000_000
    #: Restrict which processes call ``propose``; ``None`` means everyone.
    participants: frozenset[ProcessId] | None = None

    def proposal_of(self, process: ProcessId) -> Any:
        return self.proposals.get(process, f"value-of-{process!r}")


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    config: RunConfig
    properties: ConsensusProperties
    trace: SimulationTrace
    correct: frozenset[ProcessId]
    decisions: dict[ProcessId, Any]
    decision_times: dict[ProcessId, float]
    identified: dict[ProcessId, frozenset[ProcessId]]
    identification_times: dict[ProcessId, float]
    estimated_fault_thresholds: dict[ProcessId, int | None]
    virtual_duration: float
    messages_sent: int
    events_processed: int
    #: Engine diagnostics: queue compactions and the pending-event peak.
    compactions: int = 0
    pending_peak: int = 0
    #: Locator work over the correct consensus nodes: searches actually
    #: consulted (memo hits + misses, which is deterministic per run,
    #: unlike the hit/miss split) and locate calls skipped by the
    #: incremental-analysis gates.
    sink_searches: int = 0
    search_skips: int = 0
    #: Crypto fast-path counters from the run's :class:`KeyRegistry`:
    #: signature verifications requested, how many were answered by the
    #: verified-tag LRU, and hits of the canonical-encoding identity memo
    #: (sign + verify).  All three are per-run deterministic.
    verify_calls: int = 0
    verify_cache_hits: int = 0
    canonical_cache_hits: int = 0
    #: Which runtime executed the run: ``"sim"`` (discrete-event engine) or
    #: ``"live"`` (the asyncio socket runtime).
    runtime_name: str = "sim"
    #: Live-runtime counters (:class:`repro.runtime.asyncio_runtime.LiveRunStats`)
    #: when the run executed over real sockets; ``None`` for simulated runs.
    live: Any = None

    @property
    def consensus_solved(self) -> bool:
        return self.properties.consensus_solved

    @property
    def agreement(self) -> bool:
        return self.properties.agreement

    @property
    def termination(self) -> bool:
        return self.properties.termination

    @property
    def validity(self) -> bool:
        return self.properties.validity

    def latency(self) -> float | None:
        """Virtual time until the last correct decision, or ``None``."""
        if not self.decision_times:
            return None
        return max(self.decision_times.values())

    def identification_latency(self) -> float | None:
        """Virtual time until the last correct sink/core identification."""
        times = [self.identification_times[p] for p in self.identification_times if p in self.correct]
        return max(times) if times else None

    def summary(self) -> dict[str, Any]:
        """Compact dictionary used by the benchmarks to print result rows."""
        summary = {
            "correct": len(self.correct),
            "faulty": len(self.config.faulty),
            "terminated": self.termination,
            "agreement": self.agreement,
            "validity": self.validity,
            "distinct_decisions": len(self.properties.distinct_decided_values),
            "messages": self.messages_sent,
            "latency": self.latency(),
            "identification_latency": self.identification_latency(),
            "events": self.events_processed,
            "compactions": self.compactions,
            "pending_peak": self.pending_peak,
            "sink_searches": self.sink_searches,
            "search_skips": self.search_skips,
            "verify_calls": self.verify_calls,
            "verify_cache_hits": self.verify_cache_hits,
            "canonical_cache_hits": self.canonical_cache_hits,
        }
        if self.live is not None:
            # Live-only keys: simulated summaries (and the committed BENCH
            # baselines built from them) stay byte-identical.
            summary["runtime"] = self.runtime_name
            summary.update(self.live.summary_entries())
        return summary


def build_protocol_nodes(
    config: RunConfig,
    runtime: "Runtime",
    registry: KeyRegistry,
) -> dict[ProcessId, Process]:
    """Instantiate every process of the run (correct and faulty) on ``runtime``.

    Runtime-agnostic, so a run's node population is identical on the
    simulator and over live sockets.
    """
    nodes: dict[ProcessId, Process] = {}
    for process_id in sorted(config.graph.processes, key=repr):
        common: dict[str, Any] = dict(
            process_id=process_id,
            participant_detector=config.graph.participant_detector(process_id),
            runtime=runtime,
            registry=registry,
            key=registry.generate(process_id),
            config=config.protocol,
        )
        spec = config.faulty.get(process_id)
        nodes[process_id] = (
            ConsensusNode(**common) if spec is None else build_faulty_node(spec, **common)
        )
    return nodes


def run_consensus(config: RunConfig) -> RunResult:
    """Simulate one execution and evaluate the consensus properties."""
    # Deferred: repro.runtime.fidelity imports this module, so a module-level
    # runtime import would be circular.
    from repro.runtime.sim import build_sim_runtime

    # Independent substreams: the network delay draws and the key material
    # must not share a raw seed, otherwise changing how many keys are
    # generated (or the key derivation itself) silently reshuffles the
    # network schedule of every experiment.
    runtime = build_sim_runtime(
        max_time=config.horizon,
        max_events=config.max_events,
        synchrony=config.synchrony,
        network_seed=derive_seed(config.seed, "network"),
        faulty=frozenset(config.faulty),
    )
    return drive(config, runtime, KeyRegistry(seed=derive_seed(config.seed, "keys")))


def drive(
    config: RunConfig,
    runtime: "Runtime",
    registry: KeyRegistry,
    *,
    build: Callable[..., dict[ProcessId, Process]] | None = None,
    settled: Callable[[Process], bool] | None = None,
) -> RunResult:
    """The one run path: build, install the schedule, propose, wait, collect.

    Callers pick the ``runtime`` (and with it the network seed), the key
    ``registry``, and optionally the node population (``build``, called like
    :func:`build_protocol_nodes`) and what a correct process must reach for
    the run to stop (``settled``; by default, its decision).
    """
    trace = runtime.trace
    nodes = (build or build_protocol_nodes)(config, runtime, registry)
    correct = frozenset(config.graph.processes - set(config.faulty))
    participants = config.graph.processes if config.participants is None else config.participants

    def start() -> None:
        if config.schedule is not None:
            install_schedule(config.schedule, runtime)  # validates, then compiles
        for process_id, node in nodes.items():
            proposer = getattr(node, "propose", None)
            if proposer is not None and process_id in participants:
                proposer(config.proposal_of(process_id))

    # The stop predicate runs between every two steps, so it must be O(1):
    # scanning all nodes per event is quadratic at large n.  A node flips
    # ``decided`` and calls ``trace.on_decision`` in the same event callback
    # (ConsensusNode._decide), so counting first decisions of correct nodes
    # as they are recorded observes exactly the same predicate value between
    # events as scanning ``node.decided`` over every correct node would.
    undecided_correct = set(correct)
    record_decision = trace.on_decision

    def counting_on_decision(process_id: ProcessId, value: Any, time: float) -> None:
        record_decision(process_id, value, time)
        undecided_correct.discard(process_id)

    def finished() -> bool:
        return not undecided_correct

    def all_settled() -> bool:
        # Runs between every two events, so it iterates the set as it is.
        return all(settled(nodes[process_id]) for process_id in correct)  # lint: allow[DET-ORDER-SET] all() of a side-effect-free per-node predicate is order-free

    trace.on_decision = counting_on_decision  # type: ignore[method-assign]
    try:
        runtime.run(start, finished if settled is None else all_settled)
    finally:
        del trace.on_decision  # restore the plain recording method
    return collect_run_result(config, nodes, correct, runtime, registry)


def collect_run_result(
    config: RunConfig,
    nodes: dict[ProcessId, Process],
    correct: frozenset[ProcessId],
    runtime: "Runtime",
    registry: KeyRegistry,
) -> RunResult:
    """Evaluate the consensus properties of a finished run and package them.

    The property checks and statistics are substrate-independent: they read
    node state, the trace and the key registry; the runtime contributes its
    own counters through :meth:`~repro.runtime.base.Runtime.result_fields`.
    """
    decisions: dict[ProcessId, Any] = {}
    decision_times: dict[ProcessId, float] = {}
    identified: dict[ProcessId, frozenset[ProcessId]] = {}
    identification_times: dict[ProcessId, float] = {}
    estimated: dict[ProcessId, int | None] = {}
    sink_searches = 0
    search_skips = 0
    for process_id in sorted(correct, key=repr):
        node = nodes[process_id]
        # Identification is read structurally: the flooding baseline's nodes
        # identify a sink without being ConsensusNodes.
        members = getattr(node, "identified_members", None)
        if members is not None:
            identified[process_id] = members
            identification_times[process_id] = getattr(node, "identified_at", None) or 0.0
        if isinstance(node, ConsensusNode):
            if node.decided:
                decisions[process_id] = node.value
                decision_times[process_id] = node.decided_at if node.decided_at is not None else 0.0
            estimated[process_id] = node.estimated_fault_threshold
            sink_searches += node.locator.searches
            search_skips += node.locator.skips

    proposals = {
        process_id: config.proposal_of(process_id) for process_id in config.graph.processes
    }
    # Faulty "wrong value" processes can inject their poison value, which is
    # still a proposed value in the Byzantine validity sense.
    for process_id, spec in config.faulty.items():
        if spec.behaviour in {"wrong_value", "equivocating_leader"}:
            proposals[f"poison::{process_id!r}"] = spec.poison_value

    properties = check_properties(
        correct=correct,
        proposals=proposals,
        decisions=decisions,
        identified=identified,
        decision_counts=runtime.trace.decision_counts,
    )
    return RunResult(
        config=config,
        properties=properties,
        trace=runtime.trace,
        correct=correct,
        decisions=decisions,
        decision_times=decision_times,
        identified=identified,
        identification_times=identification_times,
        estimated_fault_thresholds=estimated,
        messages_sent=runtime.trace.messages_sent,
        sink_searches=sink_searches,
        search_skips=search_skips,
        verify_calls=registry.verify_calls,
        verify_cache_hits=registry.verify_cache_hits,
        canonical_cache_hits=registry.canonical_cache_hits,
        **runtime.result_fields(),
    )
