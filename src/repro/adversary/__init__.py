"""Byzantine adversary: fault specifications and faulty node implementations.

The paper assumes a static Byzantine adversary: the set of faulty processes
is fixed before the execution and the faulty processes may behave
arbitrarily and collude.  The concrete behaviours, one node class each, are
declared once in :data:`repro.adversary.nodes.BEHAVIOURS`; DESIGN.md
("Behaviours") lists them with their parameters and defaults.  A
:class:`~repro.adversary.spec.FaultSpec` names the behaviour of one faulty
process.

Heterogeneous compositions of these behaviours ("one equivocator + rest
silent") are declared with :class:`~repro.adversary.mix.AdversaryMix`,
which the scenario layer sweeps as a first-class axis.  The *message-level*
adversary — scripted delays, partitions and crashes — is declared with
:class:`~repro.adversary.schedule.NetworkSchedule`, swept the same way.
"""

from repro.adversary.mix import INSIDE_CORE, OUTSIDE_CORE, REST, AdversaryMix, MixEntry
from repro.adversary.schedule import (
    CrashRule,
    DelayRule,
    NetworkSchedule,
    PartitionRule,
    ScheduleContractError,
    ScheduleError,
)
from repro.adversary.spec import FaultSpec
from repro.adversary.nodes import (
    BEHAVIOURS,
    CrashNode,
    EquivocatingLeaderNode,
    EquivocatingPdNode,
    LyingPdNode,
    SilentNode,
    build_faulty_node,
)

__all__ = [
    "AdversaryMix",
    "MixEntry",
    "REST",
    "INSIDE_CORE",
    "OUTSIDE_CORE",
    "NetworkSchedule",
    "DelayRule",
    "PartitionRule",
    "CrashRule",
    "ScheduleError",
    "ScheduleContractError",
    "FaultSpec",
    "BEHAVIOURS",
    "SilentNode",
    "CrashNode",
    "LyingPdNode",
    "EquivocatingPdNode",
    "EquivocatingLeaderNode",
    "build_faulty_node",
]
