"""Execution runtimes for the protocol stack.

The protocol state machines (:class:`~repro.core.node.ConsensusNode`, the
PBFT replica, the adversary behaviours) talk to the world only through the
:class:`~repro.runtime.base.Runtime` seam.  This package provides:

* :class:`~repro.runtime.sim.SimRuntime` — the deterministic discrete-event
  substrate (the default; wraps ``Simulator`` + ``Network``);
* :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` — live wall-clock
  execution over real TCP sockets with the shared frame codec;
* :func:`~repro.runtime.harness.run_live_consensus` — the live twin of
  :func:`repro.analysis.run_consensus`;
* :mod:`~repro.runtime.fidelity` — the sim-vs-live fidelity gate;
* ``python -m repro.runtime.live`` — the command-line launcher.
"""

from repro.runtime.asyncio_runtime import AsyncioRuntime, LiveRunStats
from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.codec import (
    EncodeMemo,
    PayloadCodecError,
    decode_frame,
    decode_value,
    encode_frame,
    register_payload_type,
)
from repro.runtime.fidelity import FidelityError, FidelityReport, assert_fidelity, check_fidelity
from repro.runtime.harness import LiveRunError, run_live_consensus
from repro.runtime.sim import SimRuntime

__all__ = [
    "Runtime",
    "TimerHandle",
    "SimRuntime",
    "AsyncioRuntime",
    "LiveRunStats",
    "LiveRunError",
    "run_live_consensus",
    "FidelityError",
    "FidelityReport",
    "check_fidelity",
    "assert_fidelity",
    "PayloadCodecError",
    "EncodeMemo",
    "decode_value",
    "encode_frame",
    "decode_frame",
    "register_payload_type",
]
