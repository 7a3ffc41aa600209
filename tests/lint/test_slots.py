"""Hot-path classes keep a ``__slots__`` layout.

These classes are allocated per message or per event; ``__dict__``-backed
instances cost measurable memory and attribute-lookup time at 10k-node
scale.  Importing by dotted name makes a rename fail here loudly instead of
silently dropping the class from the check.
"""

import importlib

import pytest

HOT_PATH_CLASSES = (
    "repro.sim.messages.Envelope",
    "repro.sim.engine._ScheduledEvent",
    "repro.sim.gate.SendGate",
    "repro.crypto.signatures.SignedMessage",
    "repro.core.discovery.DiscoveryState",
    "repro.core.messages.PdRecord",
    "repro.core.messages.GetPds",
    "repro.core.messages.SetPds",
    "repro.core.messages.GetDecidedValue",
    "repro.core.messages.DecidedValue",
    "repro.pbft.messages.PrePrepare",
    "repro.pbft.messages.Prepare",
    "repro.pbft.messages.Commit",
    "repro.pbft.messages.ViewChange",
    "repro.pbft.messages.NewView",
    "repro.pbft.messages.GroupKey",
    "repro.pbft.replica.SingleShotPbft",
    "repro.graphs.predicates.KnowledgeView",
    "repro.graphs.predicates.SinkWitness",
    "repro.graphs.sink_search.SearchOptions",
    "repro.graphs.sink_search.CoreWitness",
)


@pytest.mark.parametrize("dotted", HOT_PATH_CLASSES)
def test_hot_path_class_has_slots(dotted):
    module, name = dotted.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    assert "__slots__" in vars(cls)
    with_dict = [base.__qualname__ for base in cls.__mro__[:-1] if "__dict__" in vars(base)]
    assert with_dict == [], f"{dotted} instances get a __dict__ from {with_dict}"
