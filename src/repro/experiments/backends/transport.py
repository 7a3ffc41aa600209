"""Length-prefixed JSON framing for the networked work queue.

The wire format is deliberately minimal: every message is one JSON object
encoded as UTF-8, preceded by a 4-byte big-endian unsigned length.  Both
sides of the queue protocol (the coordinator's
:class:`~repro.experiments.backends.remote.QueueServer` and the worker's
:class:`~repro.experiments.backends.remote.RemoteQueueClient`) exchange
nothing but these frames, so the payloads are exactly the job/outcome
dictionaries the filesystem queue already stores — the transport adds
framing, not a second serialisation format.

Compression: the frame cap (64 MiB) leaves the length word's high bit
free, so it marks zlib-deflated payloads.  Readers *always* accept
compressed frames (decompressed under a hard cap, see
:class:`FrameTooLargeError`); writers only compress when the caller passes
``compress_min`` and the encoded body reaches it, and the queue protocol
only does that after the client asked for it and the server acked it in the
``hello`` exchange — an uncompressed peer simply never receives a marked
frame.

Framing errors are typed so callers can tell the recoverable cases apart:

* :class:`TruncatedFrameError` — the peer died mid-frame (a killed worker,
  a dropped connection); the partial frame is discarded and the connection
  is unusable, but the queue protocol makes re-sending safe.
* :class:`FrameTooLargeError` — the declared (or decompressed) length
  exceeds the cap, which almost always means the peer is not speaking this
  protocol at all (a stray HTTP client, a port scan) or is feeding a
  decompression bomb; the connection is dropped.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import zlib
from typing import Any

#: 4-byte big-endian unsigned frame length.
_HEADER = struct.Struct(">I")

#: Default cap on one frame's payload.  An outcome is a few KiB; anything
#: near this size indicates a protocol mismatch, not a big outcome.
#: Kept below 2**31 so the length word's high bit is free for the
#: compression flag.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: High bit of the length word: the payload is zlib-deflated.
_FLAG_DEFLATE = 0x8000_0000

#: Default "compress bodies at least this large" threshold negotiated by the
#: hello exchange.  Small control frames (claims, heartbeats) stay cheap and
#: readable; scenario payloads with large GraphSpecs shrink dramatically.
COMPRESS_MIN_BYTES = 4 * 1024


class TransportError(RuntimeError):
    """A framing-level failure on a queue-protocol connection."""


class TruncatedFrameError(TransportError):
    """The connection closed (or the stream ended) in the middle of a frame."""


class FrameTooLargeError(TransportError):
    """A frame's declared or decompressed payload exceeds the configured cap."""


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes from ``sock``.

    Returns ``None`` on a clean end-of-stream *before any byte* (the peer
    closed between frames) and raises :class:`TruncatedFrameError` when the
    stream ends after the frame started.
    """
    chunks: list[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if not chunks:
                return None
            raise TruncatedFrameError(
                f"connection closed mid-frame ({received} of {count} bytes received)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def _encode_body(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":"), default=repr).encode()


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

    Deflates the body when it is at least ``compress_min`` bytes.  This is
    the framing :func:`write_frame` applies; a caller that writes its own
    JSON text (the live runtime's codec) frames it here.
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


def _frame_bytes(payload: dict[str, Any], compress_min: int | None) -> bytes:
    return pack_frame(_encode_body(payload), compress_min=compress_min)


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


def _split_word(word: int, max_frame: int) -> tuple[int, bool]:
    """Split a header word into (payload length, deflated?), checking the cap."""
    deflated = bool(word & _FLAG_DEFLATE)
    length = word & ~_FLAG_DEFLATE
    if length > max_frame:
        raise FrameTooLargeError(f"frame declares {length} bytes (cap {max_frame})")
    return length, deflated


def write_frame(
    sock: socket.socket, payload: dict[str, Any], *, compress_min: int | None = None
) -> None:
    """Send one JSON object as a length-prefixed frame.

    ``compress_min`` enables zlib compression for bodies at least that many
    bytes; pass it only to a peer that negotiated compression support.
    """
    sock.sendall(_frame_bytes(payload, compress_min))


def read_frame(
    sock: socket.socket, *, max_frame: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean end-of-stream between frames.

    Raises :class:`TruncatedFrameError` when the stream ends mid-frame (a
    partial header counts), :class:`FrameTooLargeError` on an implausible
    declared or decompressed length, and :class:`TransportError` when the
    payload is not a JSON object.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (word,) = _HEADER.unpack(header)
    length, deflated = _split_word(word, max_frame)
    body = _recv_exactly(sock, length) if length else b""
    if body is None:
        raise TruncatedFrameError("connection closed between frame header and payload")
    if deflated:
        body = _inflate_body(body, max_frame)
    return _parse_body(body)


async def read_frame_async(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Asyncio variant of :func:`read_frame`; ``None`` on clean end-of-stream.

    Raises the same typed errors as the blocking reader, so callers
    (the live runtime's link handlers) share the recovery logic with the
    work-queue protocol.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise TruncatedFrameError(
            f"connection closed mid-frame ({len(error.partial)} of {_HEADER.size} bytes received)"
        ) from error
    (word,) = _HEADER.unpack(header)
    length, deflated = _split_word(word, max_frame)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrameError("connection closed between frame header and payload") from error
    if deflated:
        body = _inflate_body(body, max_frame)
    return _parse_body(body)


__all__ = [
    "COMPRESS_MIN_BYTES",
    "MAX_FRAME_BYTES",
    "TransportError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "read_frame",
    "write_frame",
    "pack_frame",
    "read_frame_async",
]
