"""Discrete-event simulation substrate.

The paper assumes a partially synchronous message-passing system: there is a
global stabilisation time (GST) and a bound ``δ`` such that messages between
correct processes sent after GST are delivered within ``δ``; before GST
delays are arbitrary.  This package provides a deterministic discrete-event
simulator implementing exactly that abstraction, plus the authenticated
reliable point-to-point channels the protocols rely on.

Main pieces:

* :class:`~repro.sim.engine.Simulator` -- the event loop and virtual clock.
* :class:`~repro.sim.synchrony.PartialSynchronyModel` -- the partial-synchrony
  delay model, with the synchronous and asynchronous variants used by the
  Table I experiment.
* :class:`~repro.sim.gate.SendGate` -- the channel contract (membership,
  crash set, scripted-fault rules) that the simulated and the live transport
  share.
* :class:`~repro.sim.network.Network` -- the message transport over one of
  those models.
* :class:`~repro.sim.process.Process` -- base class for protocol processes
  (message handlers, periodic timers, send primitives).
* :class:`~repro.sim.tracing.SimulationTrace` -- message and decision
  statistics collected during a run.
"""

from repro.sim.engine import Simulator
from repro.sim.messages import Envelope
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.synchrony import (
    AsynchronousModel,
    PartialSynchronyModel,
    SynchronousModel,
    SynchronyModel,
)
from repro.sim.tracing import SimulationTrace

__all__ = [
    "Simulator",
    "Envelope",
    "Network",
    "SynchronyModel",
    "PartialSynchronyModel",
    "SynchronousModel",
    "AsynchronousModel",
    "Process",
    "SimulationTrace",
]
