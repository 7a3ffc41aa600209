"""Wire codec for protocol payloads crossing the live socket transport.

The protocols exchange frozen dataclasses built from exact container types:
:func:`repro.crypto.signatures._canonical` treats tuples like lists when
signing, but the PBFT replica compares signed payloads with *equality*
(``_prepare_payload`` returns tuples), and discovery state dedupes on
hashable frozensets.  A JSON round-trip must therefore reproduce every
payload **exactly** — same classes, same container types, same scalars — or
signatures would verify while quorum matching quietly breaks.

The encoding is a small tagged tree: scalars pass through as themselves,
containers and registered dataclasses become ``{"t": tag, ...}`` objects.
Every JSON object the encoder emits is such a wrapper, so plain-scalar
payload values are never ambiguous.

:func:`encode_frame` writes a frame's JSON body in one pass, straight to
text: scalars are spelled by the :mod:`json` module's own encoders (string
escaping, ``NaN``/``Infinity``), and set-like members and dict keys are
ordered by their own JSON text, so frames are reproducible byte-for-byte
across processes and runs.  A run's :class:`EncodeMemo` keeps the text of
every deeply immutable value it has encoded — registered frozen
dataclasses, tuples and frozensets whose members are scalars or are
themselves immutable — keyed by identity, so a payload object sent to many
receivers, or nested in many snapshots, is encoded once.  Lists, sets,
dicts and non-frozen dataclasses can change between two sends, so neither
they nor anything holding them is memoised.  :func:`decode_frame` takes the
JSON object back apart.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

from repro.core.messages import DecidedValue, GetDecidedValue, GetPds, PdRecord, SetPds
from repro.crypto.signatures import SignedMessage
from repro.pbft.messages import (
    Commit,
    GroupKey,
    NewView,
    PreparedCertificate,
    PrePrepare,
    Prepare,
    ViewChange,
)


class PayloadCodecError(ValueError):
    """A payload (or frame) cannot be encoded/decoded losslessly."""


#: Tags reserved for container shapes; registered class names must not collide.
_CONTAINER_TAGS = frozenset({"tuple", "list", "set", "fset", "dict", "bytes"})

_REGISTRY: dict[str, type] = {}

#: Per registered class: the text that opens its JSON object, each field's
#: name with its key text, and whether its instances are frozen.
_LAYOUTS: dict[type, tuple[str, tuple[tuple[str, str], ...], bool]] = {}

#: Entries an :class:`EncodeMemo` holds before it evicts its oldest.
_MEMO_ENTRIES = 4096


def register_payload_type(cls: type) -> type:
    """Register a dataclass so it can cross the live transport by name."""
    if not dataclasses.is_dataclass(cls):
        raise PayloadCodecError(f"{cls!r} is not a dataclass")
    tag = cls.__name__
    if tag in _CONTAINER_TAGS:
        raise PayloadCodecError(f"class name {tag!r} collides with a reserved container tag")
    existing = _REGISTRY.get(tag)
    if existing is not None and existing is not cls:
        raise PayloadCodecError(f"payload tag {tag!r} already registered for {existing!r}")
    _REGISTRY[tag] = cls
    _LAYOUTS[cls] = (
        '{"t":' + encode_basestring_ascii(tag) + ',"f":{',
        tuple(
            (field.name, encode_basestring_ascii(field.name) + ":")
            for field in dataclasses.fields(cls)
        ),
        cls.__dataclass_params__.frozen,  # type: ignore[attr-defined]
    )
    return cls


for _cls in (
    # Discovery / decided-value query (Algorithms 1 and 3).
    PdRecord,
    GetPds,
    SetPds,
    GetDecidedValue,
    DecidedValue,
    # Signatures.
    SignedMessage,
    # Inner PBFT consensus.
    GroupKey,
    PrePrepare,
    Prepare,
    Commit,
    PreparedCertificate,
    ViewChange,
    NewView,
):
    register_payload_type(_cls)
del _cls


class EncodeMemo:
    """Identity memo of the JSON text of deeply immutable payload values.

    Follows :class:`repro.crypto.signatures.CanonicalMemo`: entries are keyed
    by ``id(value)`` and hold a strong reference to the value, so its id
    cannot be reused by another object while the entry lives; eviction is
    FIFO once :data:`_MEMO_ENTRIES` are held; and each run owns its memo (one
    per :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`).
    """

    __slots__ = ("_entries", "_mutable")

    def __init__(self) -> None:
        self._entries: dict[int, tuple[Any, str]] = {}
        #: Mutable containers met so far: a value whose encoding leaves the
        #: count unchanged holds none, so its text can be memoised.
        self._mutable = 0

    def __len__(self) -> int:
        return len(self._entries)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _null_text(value: None) -> str:
    return "null"


#: Exact scalar types and their JSON spelling, as the ``json`` module writes
#: them (it spells ints with ``int.__repr__`` too).
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: _bool_text,
    type(None): _null_text,
}

_first = itemgetter(0)


def _text(value: Any, memo: EncodeMemo) -> str:
    """The JSON text of ``value``: exact scalars, then the memo, then the rest."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    hit = memo._entries.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, (bool, int, float, str)):
        return json.dumps(value)  # a scalar subclass: spelled as its base type
    if isinstance(value, bytes):
        return '{"t":"bytes","v":"' + value.hex() + '"}'
    mutable = memo._mutable
    if isinstance(value, tuple):
        text = '{"t":"tuple","v":[' + ",".join([_text(item, memo) for item in value]) + "]}"
    elif isinstance(value, list):
        memo._mutable += 1
        text = '{"t":"list","v":[' + ",".join([_text(item, memo) for item in value]) + "]}"
    elif isinstance(value, (frozenset, set)):
        if isinstance(value, frozenset):
            tag = "fset"
        else:
            tag = "set"
            memo._mutable += 1
        members = sorted([_text(item, memo) for item in value])
        text = '{"t":"' + tag + '","v":[' + ",".join(members) + "]}"
    elif isinstance(value, dict):
        memo._mutable += 1
        pairs = sorted(
            [(_text(key, memo), _text(item, memo)) for key, item in value.items()], key=_first
        )
        text = '{"t":"dict","v":[' + ",".join(["[" + k + "," + v + "]" for k, v in pairs]) + "]}"
    else:
        layout = _LAYOUTS.get(type(value))
        if layout is None:
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                raise PayloadCodecError(f"unregistered payload dataclass {type(value)!r}")
            raise PayloadCodecError(f"cannot encode {type(value).__name__} payloads: {value!r}")
        opening, fields, frozen = layout
        if not frozen:
            memo._mutable += 1
        text = (
            opening
            + ",".join([key + _text(getattr(value, name), memo) for name, key in fields])
            + "}}"
        )
    if memo._mutable == mutable:
        entries = memo._entries
        if len(entries) >= _MEMO_ENTRIES:
            del entries[next(iter(entries))]
        entries[id(value)] = (value, text)
    return text


def decode_value(node: Any) -> Any:
    """Decode one node of the tagged tree :func:`encode_frame` writes."""
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if not isinstance(node, dict):
        raise PayloadCodecError(f"malformed payload node: {node!r}")
    tag = node.get("t")
    if tag == "bytes":
        return bytes.fromhex(node["v"])
    if tag == "tuple":
        return tuple(decode_value(item) for item in node["v"])
    if tag == "list":
        return [decode_value(item) for item in node["v"]]
    if tag == "fset":
        return frozenset(decode_value(item) for item in node["v"])
    if tag == "set":
        return {decode_value(item) for item in node["v"]}
    if tag == "dict":
        return {decode_value(key): decode_value(item) for key, item in node["v"]}
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise PayloadCodecError(f"unknown payload tag {tag!r}")
    fields = node.get("f")
    if not isinstance(fields, dict):
        raise PayloadCodecError(f"malformed fields for payload tag {tag!r}")
    return cls(**{name: decode_value(item) for name, item in fields.items()})


def encode_frame(sender: Any, sent_at: float, payload: Any, memo: EncodeMemo) -> bytes:
    """The JSON body of the wire frame for one protocol message."""
    text = (
        '{"s":'
        + _text(sender, memo)
        + ',"at":'
        + _text(sent_at, memo)
        + ',"p":'
        + _text(payload, memo)
        + "}"
    )
    return text.encode()


def decode_frame(frame: dict[str, Any]) -> tuple[Any, float, Any]:
    """Split a wire frame back into ``(sender, sent_at, payload)``."""
    try:
        return decode_value(frame["s"]), float(frame["at"]), decode_value(frame["p"])
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, PayloadCodecError):
            raise
        raise PayloadCodecError(f"malformed live frame: {error}") from error


__all__ = [
    "PayloadCodecError",
    "register_payload_type",
    "EncodeMemo",
    "decode_value",
    "encode_frame",
    "decode_frame",
]
