"""The length-prefixed frame format shared by the live runtime and the TCP queue.

Every frame is one JSON object encoded as UTF-8, preceded by a 4-byte
big-endian unsigned length.  The live runtime
(:mod:`repro.runtime.asyncio_runtime`) frames its codec's JSON text with
:func:`pack_frame` and reads frames with :func:`read_frame_async`; the
experiment orchestrator's work-queue transport
(:mod:`repro.experiments.backends.transport`) builds its blocking socket
reader and writer on the same helpers.  The format lives here, under the
runtime, so a live run loads nothing of the orchestrator.

Compression: the frame cap (64 MiB) leaves the length word's high bit
free, so it marks zlib-deflated payloads.  Readers *always* accept
compressed frames (decompressed under a hard cap, see
:class:`FrameTooLargeError`); writers only compress when the caller passes
``compress_min`` and the encoded body reaches it.

Framing errors are typed so callers can tell the recoverable cases apart:

* :class:`TruncatedFrameError` — the peer died mid-frame (a killed worker,
  a dropped connection); the partial frame is discarded and the connection
  is unusable.
* :class:`FrameTooLargeError` — the declared (or decompressed) length
  exceeds the cap, which almost always means the peer is not speaking this
  protocol at all (a stray HTTP client, a port scan) or is feeding a
  decompression bomb; the connection is dropped.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Any

#: 4-byte big-endian unsigned frame length.
_HEADER = struct.Struct(">I")
#: Bytes of a frame header.
HEADER_SIZE = _HEADER.size

#: Default cap on one frame's payload.  An outcome is a few KiB; anything
#: near this size indicates a protocol mismatch, not a big outcome.
#: Kept below 2**31 so the length word's high bit is free for the
#: compression flag.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: High bit of the length word: the payload is zlib-deflated.
_FLAG_DEFLATE = 0x8000_0000


class TransportError(RuntimeError):
    """A framing-level failure on a framed connection."""


class TruncatedFrameError(TransportError):
    """The connection closed (or the stream ended) in the middle of a frame."""


class FrameTooLargeError(TransportError):
    """A frame's declared or decompressed payload exceeds the configured cap."""


def _parse_body(body: bytes) -> dict[str, Any]:
    try:
        message = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: a body nested past the decoder's depth limit.
        raise TransportError(f"frame payload is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise TransportError(f"frame payload must be a JSON object, got {type(message).__name__}")
    return message


def pack_frame(body: bytes, *, compress_min: int | None = None) -> bytes:
    """Header + body for one frame whose JSON object is already encoded.

    Deflates the body when it is at least ``compress_min`` bytes.  The
    queue transport's ``write_frame`` frames through here, and so does the
    live runtime, which writes its own JSON text (the codec's).
    """
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"refusing to send a {len(body)}-byte frame")
    word = len(body)
    if compress_min is not None and len(body) >= compress_min:
        body = zlib.compress(body, 6)
        if len(body) > MAX_FRAME_BYTES:  # pragma: no cover - incompressible 64 MiB body
            raise FrameTooLargeError(f"refusing to send a {len(body)}-byte compressed frame")
        word = len(body) | _FLAG_DEFLATE
    return _HEADER.pack(word) + body


def _inflate_body(body: bytes, max_frame: int) -> bytes:
    """Decompress a deflated payload, bounding the inflated size by the cap."""
    decompressor = zlib.decompressobj()
    try:
        inflated = decompressor.decompress(body, max_frame + 1)
    except zlib.error as error:
        raise TransportError(f"frame payload is not valid zlib data: {error}") from error
    if len(inflated) > max_frame or decompressor.unconsumed_tail:
        raise FrameTooLargeError(f"compressed frame inflates past the {max_frame}-byte cap")
    if not decompressor.eof:
        raise TransportError("compressed frame payload is truncated")
    return inflated


def split_header(header: bytes, max_frame: int) -> tuple[int, bool]:
    """Split a frame header into (payload length, deflated?), checking the cap."""
    (word,) = _HEADER.unpack(header)
    deflated = bool(word & _FLAG_DEFLATE)
    length = word & ~_FLAG_DEFLATE
    if length > max_frame:
        raise FrameTooLargeError(f"frame declares {length} bytes (cap {max_frame})")
    return length, deflated


def decode_body(body: bytes, deflated: bool, max_frame: int) -> dict[str, Any]:
    """The JSON object a frame's payload carries, inflated first when ``deflated``."""
    return _parse_body(_inflate_body(body, max_frame) if deflated else body)


async def read_frame_async(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame from ``reader``; ``None`` on clean end-of-stream between frames.

    Raises :class:`TruncatedFrameError` when the stream ends mid-frame (a
    partial header counts), :class:`FrameTooLargeError` on an implausible
    declared or decompressed length, and :class:`TransportError` when the
    payload is not a JSON object — the same errors as the queue transport's
    blocking ``read_frame``.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise TruncatedFrameError(
            f"connection closed mid-frame ({len(error.partial)} of {HEADER_SIZE} bytes received)"
        ) from error
    length, deflated = split_header(header, max_frame)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrameError("connection closed between frame header and payload") from error
    return decode_body(body, deflated, max_frame)


__all__ = [
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "TransportError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "decode_body",
    "pack_frame",
    "read_frame_async",
    "split_header",
]
