"""Tests for the message envelope: a hand-written value class on the hot path."""

from dataclasses import dataclass, field
from typing import Any

from repro.sim import messages


@dataclass(frozen=True, slots=True)
class Envelope:
    """The frozen dataclass ``messages.Envelope`` replaced (the behavioural oracle)."""

    sender: Any
    receiver: Any
    payload: Any
    sent_at: float
    kind: str = field(default="")


ARGS = (1, "p2", ("payload", 3), 2.5, "SetPds")


class TestEnvelope:
    def test_positional_and_keyword_construction_agree(self):
        by_keyword = messages.Envelope(
            sender=1, receiver="p2", payload=("payload", 3), sent_at=2.5, kind="SetPds"
        )
        assert messages.Envelope(*ARGS) == by_keyword
        assert messages.Envelope(1, 2, "x", 0.0).kind == ""

    def test_equality_is_by_value_and_by_class(self):
        envelope = messages.Envelope(*ARGS)
        assert envelope == messages.Envelope(*ARGS)
        assert not envelope != messages.Envelope(*ARGS)
        for index, other in enumerate((2, "p3", "other", 9.0, "GetPds")):
            changed = list(ARGS)
            changed[index] = other
            assert envelope != messages.Envelope(*changed)
        assert envelope != ARGS
        assert envelope != Envelope(*ARGS)

    def test_hash_and_repr_match_the_dataclass(self):
        envelope = messages.Envelope(*ARGS)
        assert hash(envelope) == hash(Envelope(*ARGS)) == hash(ARGS)
        assert repr(envelope) == repr(Envelope(*ARGS))
        assert len({envelope, messages.Envelope(*ARGS)}) == 1

    def test_slotted(self):
        assert not hasattr(messages.Envelope(*ARGS), "__dict__")

    def test_describe_falls_back_to_the_payload_type(self):
        assert messages.Envelope(*ARGS).describe() == "1 -> 'p2': SetPds"
        assert messages.Envelope(1, 2, 3.0, 0.0).describe() == "1 -> 2: float"
