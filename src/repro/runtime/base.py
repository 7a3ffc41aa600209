"""The runtime seam between protocol state machines and their substrate.

Protocol processes (:class:`~repro.sim.process.Process` and everything built
on it) never talk to a transport or a clock directly: every message they
send, every timer they arm and every timestamp they read goes through a
:class:`Runtime`.  So does the run driver (:mod:`repro.analysis.harness`):
it installs fault rules, executes the run and reads the substrate's counters
back without knowing which substrate it is.  Two implementations exist:

* :class:`~repro.runtime.sim.SimRuntime` — the discrete-event simulator
  (virtual clock, deterministic delivery through the
  :class:`~repro.sim.network.Network`);
* :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` — real wall-clock
  execution where each process exchanges length-prefixed JSON frames over
  TCP sockets on an asyncio event loop.

Both keep membership, crashes and rules in one
:class:`~repro.sim.gate.SendGate`, which this base class fronts; they differ
only in what happens to a message no rule claimed (a model draw, a socket).

The protocol code is byte-for-byte identical on both: the seam is the whole
point, and :mod:`repro.runtime.fidelity` asserts that the live runtime
decides exactly the values the simulator predicts on the same topology.
The seam is closed: nothing behind it (engine, network, event loop, sockets)
is reachable through a :class:`Runtime`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Protocol

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.gate import NetworkRule, SendGate
from repro.sim.synchrony import SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process


class TimerHandle(Protocol):
    """A cancellable one-shot timer returned by :meth:`Runtime.schedule`."""

    def cancel(self) -> None: ...

    @property
    def cancelled(self) -> bool: ...


class Runtime(ABC):
    """Execution substrate for protocol processes.

    Concrete runtimes provide a clock (:attr:`now`), a transport
    (:meth:`send`) that consults ``_gate``, one-shot timers
    (:meth:`schedule`), the run's model (:attr:`faulty`, :attr:`model`), a
    :class:`~repro.sim.tracing.SimulationTrace`, and :meth:`run`, which owns
    the substrate's whole lifecycle.  Membership, rules and crashes
    (:meth:`register`, :meth:`add_rule`, :meth:`crash`) are the gate's.
    """

    trace: SimulationTrace
    #: The processes the run declares faulty (fixed at construction).
    faulty: frozenset[ProcessId]
    #: The synchrony model fault schedules are validated against.
    model: SynchronyModel
    #: Membership, crash set and rules, shared with the runtime's transport.
    _gate: SendGate

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in protocol time units (virtual or scaled wall clock)."""

    @property
    def process_ids(self) -> frozenset[ProcessId]:
        """Every process registered so far."""
        return self._gate.process_ids

    def register(self, process: "Process") -> None:
        """Attach ``process`` so it can receive messages (ids must be unique)."""
        self._gate.register(process)

    @abstractmethod
    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        """Transmit ``payload`` over the authenticated point-to-point channel."""

    def add_rule(self, rule: NetworkRule) -> None:
        """Append a scripted-fault rule to the send gate (first match decides)."""
        self._gate.add_rule(rule)

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` once, ``delay`` protocol time units from now.

        The live runtime's clock starts in :meth:`run`: call from ``start`` or later.
        """

    def crash(self, process_id: ProcessId) -> None:
        """Crash ``process_id``: it stops taking steps, its messages are dropped."""
        self._gate.crash(process_id)

    @abstractmethod
    def run(self, start: Callable[[], None], until: Callable[[], bool]) -> None:
        """Execute one run; blocks until it is over and the substrate is down.

        Brings the substrate up, calls ``start()`` once its clock is live,
        returns when ``until()`` (evaluated after every step) holds or the
        horizon passes, and releases what it acquired — also when ``start`` raises.
        """

    @abstractmethod
    def result_fields(self) -> dict[str, Any]:
        """The ``RunResult`` fields the substrate owns: duration and step counters."""


__all__ = ["Runtime", "TimerHandle"]
