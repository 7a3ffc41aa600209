"""Blocking length-prefixed JSON frames for the networked work queue.

Both sides of the queue protocol (the coordinator's
:class:`~repro.experiments.backends.remote.QueueServer` and the worker's
:class:`~repro.experiments.backends.remote.RemoteQueueClient`) exchange
nothing but these frames, so the payloads are exactly the job/outcome
dictionaries the filesystem queue already stores — the transport adds
framing, not a second serialisation format.

The frame format (header, size cap, deflate flag, typed errors) is
:mod:`repro.runtime.framing`, shared with the live runtime; this module adds
the blocking socket reader and writer the queue protocol uses.  Writers only
compress when the client asked for it and the server acked it in the
``hello`` exchange, so an uncompressed peer never receives a deflated frame.
A :class:`~repro.runtime.framing.TruncatedFrameError` (a killed worker, a
dropped connection) is recoverable: the queue protocol makes re-sending
safe.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.runtime.framing import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    TransportError,
    TruncatedFrameError,
    decode_body,
    pack_frame,
    read_frame_async,
    split_header,
)

#: Default "compress bodies at least this large" threshold negotiated by the
#: hello exchange.  Small control frames (claims, heartbeats) stay cheap and
#: readable; scenario payloads with large GraphSpecs shrink dramatically.
COMPRESS_MIN_BYTES = 4 * 1024


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


def _frame_bytes(payload: dict[str, Any], compress_min: int | None) -> bytes:
    return pack_frame(_encode_body(payload), compress_min=compress_min)


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
    header = _recv_exactly(sock, HEADER_SIZE)
    if header is None:
        return None
    length, deflated = split_header(header, max_frame)
    body = _recv_exactly(sock, length) if length else b""
    if body is None:
        raise TruncatedFrameError("connection closed between frame header and payload")
    return decode_body(body, deflated, max_frame)


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
