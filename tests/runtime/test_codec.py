"""Round-trip tests for the live wire codec.

The codec must reproduce payloads *exactly* — same classes, same container
types — because the protocols compare signed payloads by equality and dedupe
discovery state on hashable frozensets.  Every test goes through the one
encoder, :func:`encode_frame`, and the wire's own JSON parse.
"""

import json
import math
from dataclasses import dataclass

import pytest

from repro.core.messages import DecidedValue, GetDecidedValue, GetPds, PdRecord, SetPds
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.pbft.messages import (
    Commit,
    GroupKey,
    NewView,
    PreparedCertificate,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.runtime import codec
from repro.runtime.codec import (
    EncodeMemo,
    PayloadCodecError,
    decode_frame,
    decode_value,
    encode_frame,
    register_payload_type,
)


def payload_text(value, memo=None):
    """The JSON text ``encode_frame`` writes for ``value`` as a payload."""
    body = encode_frame(0, 0.0, value, memo if memo is not None else EncodeMemo()).decode()
    prefix = '{"s":0,"at":0.0,"p":'
    assert body.startswith(prefix) and body.endswith("}")
    return body[len(prefix) : -1]


def roundtrip(value, memo=None):
    body = encode_frame(0, 0.0, value, memo if memo is not None else EncodeMemo())
    _sender, _sent_at, payload = decode_frame(json.loads(body))
    return payload


def shape(value):
    """``value``'s exact types all the way down, in a comparable form."""
    if isinstance(value, (tuple, list)):
        return (type(value), [shape(item) for item in value])
    if isinstance(value, (frozenset, set)):
        return (type(value), sorted((repr(shape(item)) for item in value)))
    if isinstance(value, dict):
        return (type(value), sorted(repr((shape(k), shape(v))) for k, v in value.items()))
    if hasattr(value, "__dataclass_fields__"):
        return (type(value), {name: shape(getattr(value, name)) for name in value.__dataclass_fields__})
    return type(value)


@dataclass
class Mutable:
    """A registered dataclass that is *not* frozen."""

    items: list


register_payload_type(Mutable)


class TestScalars:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 3.25, "hello", ""):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_bytes(self):
        assert roundtrip(b"\x00\xffpayload") == b"\x00\xffpayload"

    @pytest.mark.parametrize(
        "value",
        [
            "é\n\"\\ ",
            "\U0001f600",
            float("nan"),
            float("inf"),
            float("-inf"),
            -0.0,
            1e300,
            0.1,
            10**40,
            True,
            None,
        ],
    )
    def test_scalars_are_spelled_by_the_json_module(self, value):
        assert payload_text(value) == json.dumps(value)

    def test_scalar_subclasses_are_spelled_as_their_base_type(self):
        class Label(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count(...)"

        assert payload_text(Label("x")) == '"x"'
        assert payload_text(Count(3)) == "3"

    def test_non_finite_floats_round_trip(self):
        assert math.isnan(roundtrip(float("nan")))
        assert roundtrip((float("inf"), float("-inf"))) == (float("inf"), float("-inf"))


class TestContainers:
    def test_tuple_vs_list_preserved(self):
        value = (1, [2, 3], (4, 5))
        result = roundtrip(value)
        assert result == value
        assert isinstance(result, tuple)
        assert isinstance(result[1], list)
        assert isinstance(result[2], tuple)

    def test_frozenset_vs_set_preserved(self):
        fs = frozenset({1, 2, 3})
        assert roundtrip(fs) == fs
        assert isinstance(roundtrip(fs), frozenset)
        s = {4, 5}
        assert roundtrip(s) == s
        assert type(roundtrip(s)) is set

    def test_dict_with_tuple_keys(self):
        value = {(1, "a"): frozenset({2}), (3, "b"): [4]}
        assert roundtrip(value) == value

    def test_frozenset_encoding_is_deterministic(self):
        a = payload_text(frozenset({"x", "y", "z", 1, 2}))
        b = payload_text(frozenset({2, "z", 1, "y", "x"}))
        assert a == b

    def test_equal_frozensets_built_in_different_orders_give_identical_text(self):
        registry = KeyRegistry(seed=5)
        records = [registry.generate(pid).sign(PdRecord(owner=pid, pd=frozenset({pid + 1}))) for pid in range(12)]
        forward = frozenset(records)
        backward = frozenset()
        for record in reversed(records):
            backward = backward | {record}
        nested_a = frozenset({(1, forward), (2, frozenset({"b", "a"}))})
        nested_b = frozenset({(2, frozenset({"a", "b"})), (1, backward)})
        memo = EncodeMemo()
        assert payload_text(forward, memo) == payload_text(backward, memo)
        assert payload_text(nested_a) == payload_text(nested_b, memo)

    def test_set_members_are_ordered_by_their_own_json_text(self):
        text = payload_text(frozenset({"b", 10, 9, "a"}))
        members = json.loads(text)["v"]
        assert [json.dumps(member) for member in members] == sorted(
            json.dumps(member) for member in members
        )


def registered_payloads():
    """One instance of every payload class the codec registers at import."""
    registry = KeyRegistry(seed=2)
    record = PdRecord(owner=1, pd=frozenset({2, 3}))
    signed = registry.generate(1).sign(record)
    group = GroupKey(members=frozenset({1, 2, 3}))
    prepares = frozenset(registry.generate(pid).sign((group, 0, "value", pid)) for pid in (1, 2))
    cert = PreparedCertificate(group=group, view=0, value="value", prepares=prepares)
    view_change = ViewChange(group=group, new_view=1, voter=1, prepared=cert)
    return [
        record,
        GetPds(),
        SetPds(entries=frozenset({signed})),
        GetDecidedValue(),
        DecidedValue(value=("v", frozenset({1}))),
        signed,
        group,
        PrePrepare(group=group, view=0, value="value", signed=registry.generate(1).sign((group, 0, "value"))),
        Prepare(
            group=group,
            view=0,
            value="value",
            voter=2,
            signed=registry.generate(2).sign((group, 0, "value", 2)),
        ),
        Commit(group=group, view=0, value="value", voter=2),
        cert,
        view_change,
        NewView(group=group, view=1, value="value", justification=frozenset({view_change})),
    ]


class TestMessages:
    def test_every_registered_payload_round_trips_with_exact_types(self):
        payloads = registered_payloads()
        built_in = {
            PdRecord, GetPds, SetPds, GetDecidedValue, DecidedValue, SignedMessage,
            GroupKey, PrePrepare, Prepare, Commit, PreparedCertificate, ViewChange, NewView,
        }
        assert {type(payload) for payload in payloads} == built_in
        assert built_in <= set(codec._REGISTRY.values())
        memo = EncodeMemo()
        for payload in payloads:
            for _ in range(2):  # the second pass is served from the memo
                back = roundtrip(payload, memo)
                assert back == payload
                assert shape(back) == shape(payload)

    def test_discovery_messages(self):
        registry = KeyRegistry(seed=1)
        key = registry.generate(1)
        record = PdRecord(owner=1, pd=frozenset({2, 3}))
        signed = key.sign(record)
        for message in (
            GetPds(),
            SetPds(entries=frozenset({signed})),
            GetDecidedValue(),
            DecidedValue(value="v"),
            record,
            signed,
        ):
            assert roundtrip(message) == message

    def test_pbft_messages_nested_certificate(self):
        registry = KeyRegistry(seed=2)
        group = GroupKey(members=frozenset({1, 2, 3}))
        prepares = frozenset(
            registry.generate(pid).sign((group, 0, "value", pid)) for pid in (1, 2)
        )
        cert = PreparedCertificate(group=group, view=0, value="value", prepares=prepares)
        view_change = ViewChange(group=group, new_view=1, voter=1, prepared=cert)
        new_view = NewView(
            group=group,
            view=1,
            value="value",
            justification=frozenset({view_change}),
        )
        pre_prepare = PrePrepare(
            group=group, view=0, value="value", signed=registry.generate(1).sign((group, 0, "value"))
        )
        prepare = Prepare(
            group=group,
            view=0,
            value="value",
            voter=2,
            signed=registry.generate(2).sign((group, 0, "value", 2)),
        )
        commit = Commit(group=group, view=0, value="value", voter=2)
        for message in (group, cert, view_change, new_view, pre_prepare, prepare, commit):
            assert roundtrip(message) == message

    def test_signature_still_verifies_after_roundtrip(self):
        registry = KeyRegistry(seed=3)
        key = registry.generate("p1")
        signed = key.sign(PdRecord(owner="p1", pd=frozenset({"p2"})))
        assert registry.verify(roundtrip(signed))

    def test_signed_tuple_payload_equality_survives(self):
        # PBFT compares signed payloads by equality; a tuple must not come
        # back as a list.
        registry = KeyRegistry(seed=4)
        group = GroupKey(members=frozenset({1, 2}))
        signed = registry.generate(1).sign((group, 0, "v"))
        back = roundtrip(signed)
        assert back.message == (group, 0, "v")
        assert isinstance(back.message, tuple)


class TestEncodeMemo:
    """The memo keeps only deeply immutable values, so it never serves stale text."""

    @pytest.mark.parametrize(
        "value, mutate",
        [
            ([1, 2], lambda value: value.append(3)),
            ({1, 2}, lambda value: value.add(3)),
            ({"k": 1}, lambda value: value.update(k=2)),
            (Mutable(items=[1]), lambda value: setattr(value, "items", [1, 2])),
            ((1, [2]), lambda value: value[1].append(3)),
            (DecidedValue(value=(0, {"nested": [1]})), lambda value: value.value[1]["nested"].append(2)),
        ],
        ids=["list", "set", "dict", "mutable-dataclass", "tuple-holding-list", "frozen-holding-dict"],
    )
    def test_a_mutated_value_is_encoded_afresh(self, value, mutate):
        memo = EncodeMemo()
        before = payload_text(value, memo)
        assert len(memo) == 0  # nothing holding a mutable container is memoised
        mutate(value)
        after = payload_text(value, memo)
        assert after != before
        assert roundtrip(value, memo) == value

    def test_immutable_values_are_memoised_by_identity(self):
        memo = EncodeMemo()
        payload = registered_payloads()[-1]
        first = payload_text(payload, memo)
        held = len(memo)
        assert held > 1  # the payload and its immutable parts
        assert payload_text(payload, memo) == first
        assert len(memo) == held
        # An equal but distinct object is encoded on its own, to the same text.
        assert payload_text(decode_value(json.loads(first)), memo) == first
        assert len(memo) > held

    def test_memo_stays_within_its_bound(self, monkeypatch):
        memo = EncodeMemo()
        for index in range(codec._MEMO_ENTRIES + 50):
            payload_text((index, "x"), memo)
        assert len(memo) == codec._MEMO_ENTRIES
        monkeypatch.setattr(codec, "_MEMO_ENTRIES", 8)
        small = EncodeMemo()
        values = [(index, frozenset({index})) for index in range(40)]
        for value in values:
            payload_text(value, small)
            assert len(small) <= 8
        # FIFO: the newest value is held, the oldest was evicted, and
        # encoding the evicted one again gives the same text.
        assert id(values[-1]) in small._entries
        assert id(values[0]) not in small._entries
        assert payload_text(values[0], small) == payload_text(values[0])


class TestErrors:
    def test_unregistered_dataclass_rejected(self):
        @dataclass(frozen=True)
        class NotRegistered:
            x: int = 1

        with pytest.raises(PayloadCodecError, match="unregistered"):
            encode_frame(0, 0.0, NotRegistered(), EncodeMemo())

    @pytest.mark.parametrize("value", [object(), bytearray(b"x"), GetPds, (1, object()), {1: {object()}}])
    def test_unencodable_values_rejected(self, value):
        with pytest.raises(PayloadCodecError):
            encode_frame(0, 0.0, value, EncodeMemo())

    def test_unencodable_sender_rejected(self):
        with pytest.raises(PayloadCodecError):
            encode_frame(object(), 0.0, GetPds(), EncodeMemo())

    def test_unknown_tag_rejected(self):
        with pytest.raises(PayloadCodecError):
            decode_value({"t": "NoSuchPayload", "f": {}})

    def test_malformed_node_rejected(self):
        with pytest.raises(PayloadCodecError):
            decode_value(object())

    def test_register_rejects_non_dataclass(self):
        with pytest.raises(PayloadCodecError):
            register_payload_type(int)

    def test_register_rejects_container_tag_collision(self):
        tuple_cls = dataclass(frozen=True)(type("tuple", (), {"__annotations__": {}}))
        with pytest.raises(PayloadCodecError):
            register_payload_type(tuple_cls)

    def test_malformed_frame_rejected(self):
        with pytest.raises(PayloadCodecError):
            decode_frame({"s": 1})


class TestFrames:
    def test_frame_roundtrip(self):
        body = encode_frame(1, 2.5, DecidedValue(value=("v", frozenset({1}))), EncodeMemo())
        assert isinstance(body, bytes)
        sender, sent_at, payload = decode_frame(json.loads(body))
        assert sender == 1
        assert sent_at == 2.5
        assert payload == DecidedValue(value=("v", frozenset({1})))
        assert isinstance(payload.value, tuple)

    def test_frame_is_compact_json_with_the_sender_first(self):
        body = encode_frame("p1", 0.5, (1, "a"), EncodeMemo())
        assert body == b'{"s":"p1","at":0.5,"p":{"t":"tuple","v":[1,"a"]}}'
