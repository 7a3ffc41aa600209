"""The paper's protocol stack.

* :mod:`repro.core.messages` -- the wire messages of Algorithms 1 and 3.
* :mod:`repro.core.discovery` -- the Discovery algorithm (Algorithm 1) as a
  reusable state machine.
* :mod:`repro.core.locators` -- the Sink algorithm (Algorithm 2, known
  fault threshold) and the Core algorithm (Algorithm 4, unknown fault
  threshold) as incremental locators over the discovery state.
* :mod:`repro.core.config` -- protocol configuration (mode, fault threshold,
  predicate options, quorum rule).
* :mod:`repro.core.node` -- the consensus node tying everything together
  (Algorithm 3 with either the Sink or the Core locator, plus the inner
  PBFT-style consensus for sink/core members).

Re-exported here is the public API most users need.
"""

from repro.core.config import ProtocolConfig, ProtocolMode, QuorumRule
from repro.core.discovery import DiscoveryState
from repro.core.locators import CoreLocator, SinkLocator
from repro.core.messages import (
    DecidedValue,
    GetDecidedValue,
    GetPds,
    PdRecord,
    SetPds,
)
from repro.core.node import ConsensusNode

# Graph-level predicates are part of the model's public API as well.
from repro.graphs.predicates import (
    KnowledgeView,
    SinkWitness,
    f_gdi,
    is_sink_gdi,
    is_sink_star,
    k_gdi,
)

__all__ = [
    "ProtocolConfig",
    "ProtocolMode",
    "QuorumRule",
    "DiscoveryState",
    "SinkLocator",
    "CoreLocator",
    "GetPds",
    "SetPds",
    "PdRecord",
    "GetDecidedValue",
    "DecidedValue",
    "ConsensusNode",
    "KnowledgeView",
    "SinkWitness",
    "is_sink_gdi",
    "is_sink_star",
    "f_gdi",
    "k_gdi",
]
