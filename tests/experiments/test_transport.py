"""Tests for the length-prefixed JSON framing under the TCP queue."""

import socket
import struct
import threading
import zlib

import pytest

from repro.experiments.backends.transport import (
    _encode_body,
    _frame_bytes,
    FrameTooLargeError,
    TransportError,
    TruncatedFrameError,
    read_frame,
    write_frame,
)

_FLAG_DEFLATE = 0x8000_0000


def frame_word(payload: dict, compress_min: int | None) -> int:
    """The header word write_frame would put on the wire."""
    (word,) = struct.unpack(">I", _frame_bytes(payload, compress_min)[:4])
    return word


def pair():
    return socket.socketpair()


class TestRoundTrip:
    def test_single_frame_round_trips(self):
        left, right = pair()
        with left, right:
            payload = {"op": "claim", "worker": "w1", "nested": {"a": [1, 2, 3]}}
            write_frame(left, payload)
            assert read_frame(right) == payload

    def test_many_frames_in_order(self):
        left, right = pair()
        with left, right:
            for index in range(20):
                write_frame(left, {"n": index})
            for index in range(20):
                assert read_frame(right) == {"n": index}

    def test_unicode_and_empty_object(self):
        left, right = pair()
        with left, right:
            write_frame(left, {"name": "матрица-☃"})
            write_frame(left, {})
            assert read_frame(right) == {"name": "матрица-☃"}
            assert read_frame(right) == {}

    def test_non_json_values_degrade_via_repr(self):
        left, right = pair()
        with left, right:
            write_frame(left, {"value": {1, 2}})  # sets are not JSON
            message = read_frame(right)
            assert isinstance(message["value"], str)

    def test_large_frame_round_trips(self):
        # Big batches (thousands of outcome records) must survive the
        # chunked recv path.
        left, right = pair()
        with left, right:
            payload = {"records": [{"digest": "d" * 64, "i": i} for i in range(2000)]}
            writer = threading.Thread(target=write_frame, args=(left, payload))
            writer.start()
            assert read_frame(right) == payload
            writer.join(timeout=5.0)


class TestCompression:
    def test_compressed_frame_round_trips(self):
        left, right = pair()
        with left, right:
            payload = {"records": [{"digest": "d" * 64, "i": i} for i in range(200)]}
            write_frame(left, payload, compress_min=64)
            assert read_frame(right) == payload

    def test_compressed_frame_is_actually_smaller_on_the_wire(self):
        payload = {"blob": "a" * 50_000}  # highly compressible
        plain = _frame_bytes(payload, None)
        deflated = _frame_bytes(payload, 1)
        assert len(deflated) < len(plain) // 10
        assert frame_word(payload, 1) & _FLAG_DEFLATE

    def test_threshold_is_inclusive_and_exact(self):
        payload = {"k": "v" * 100}
        body_len = len(_encode_body(payload))
        at = frame_word(payload, body_len)
        below = frame_word(payload, body_len + 1)
        assert at & _FLAG_DEFLATE  # body size == threshold: compressed
        assert not below & _FLAG_DEFLATE  # one byte under threshold: plain

    def test_no_compress_min_never_sets_the_flag(self):
        payload = {"blob": "a" * 50_000}
        assert not frame_word(payload, None) & _FLAG_DEFLATE

    def test_reader_accepts_compressed_frames_without_opting_in(self):
        # Readers are always compression-capable: negotiation only gates
        # what a *writer* sends, so an acked peer can compress immediately.
        left, right = pair()
        with left, right:
            write_frame(left, {"negotiated": True}, compress_min=1)
            assert read_frame(right) == {"negotiated": True}

    def test_decompression_bomb_is_rejected_by_the_inflate_cap(self):
        left, right = pair()
        with left, right:
            bomb = zlib.compress(b"\x00" * (4 * 1024 * 1024), 9)  # ~4 KiB on the wire
            left.sendall(struct.pack(">I", _FLAG_DEFLATE | len(bomb)) + bomb)
            with pytest.raises(FrameTooLargeError, match="inflates past"):
                read_frame(right, max_frame=64 * 1024)

    def test_garbage_marked_as_compressed_raises_transport_error(self):
        left, right = pair()
        with left, right:
            body = b"not zlib at all"
            left.sendall(struct.pack(">I", _FLAG_DEFLATE | len(body)) + body)
            with pytest.raises(TransportError, match="zlib"):
                read_frame(right)

    def test_truncated_zlib_stream_raises_transport_error(self):
        left, right = pair()
        with left, right:
            body = zlib.compress(b'{"whole": true}')[:-4]  # cut the stream short
            left.sendall(struct.pack(">I", _FLAG_DEFLATE | len(body)) + body)
            with pytest.raises(TransportError, match="truncated"):
                read_frame(right)

    def test_async_reader_inflates_compressed_frames(self):
        import asyncio

        from repro.experiments.backends.transport import pack_frame, read_frame_async

        async def round_trip():
            server_side: dict = {}
            done = asyncio.Event()

            async def handle(reader, writer):
                server_side["frame"] = await read_frame_async(reader)
                writer.write(pack_frame(b'{"ack":true}', compress_min=1))
                await writer.drain()
                writer.close()
                done.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_frame_bytes({"blob": "z" * 9000}, 64))
            await writer.drain()
            ack = await read_frame_async(reader)
            await done.wait()
            writer.close()
            server.close()
            await server.wait_closed()
            return server_side["frame"], ack

        frame, ack = asyncio.run(round_trip())
        assert frame == {"blob": "z" * 9000}
        assert ack == {"ack": True}


class TestEdgeCases:
    def test_clean_eof_between_frames_returns_none(self):
        left, right = pair()
        with right:
            write_frame(left, {"last": True})
            left.close()
            assert read_frame(right) == {"last": True}
            assert read_frame(right) is None

    def test_truncated_header_raises(self):
        left, right = pair()
        with right:
            left.sendall(b"\x00\x00")  # half a header, then EOF
            left.close()
            with pytest.raises(TruncatedFrameError):
                read_frame(right)

    def test_truncated_payload_raises(self):
        left, right = pair()
        with right:
            left.sendall(struct.pack(">I", 100) + b'{"partial": tru')
            left.close()
            with pytest.raises(TruncatedFrameError):
                read_frame(right)

    def test_header_with_no_payload_raises(self):
        left, right = pair()
        with right:
            left.sendall(struct.pack(">I", 8))
            left.close()
            with pytest.raises(TruncatedFrameError):
                read_frame(right)

    def test_oversized_frame_is_rejected_without_reading_it(self):
        left, right = pair()
        with left, right:
            # Largest declarable length: the high bit is the compression
            # flag, not part of the length, so this is ~2 GiB uncompressed.
            left.sendall(struct.pack(">I", (1 << 31) - 1))
            with pytest.raises(FrameTooLargeError):
                read_frame(right, max_frame=1024)

    def test_oversized_compressed_frame_is_rejected_without_reading_it(self):
        left, right = pair()
        with left, right:
            left.sendall(struct.pack(">I", (1 << 31) | 2048))
            with pytest.raises(FrameTooLargeError):
                read_frame(right, max_frame=1024)

    def test_non_json_payload_raises_transport_error(self):
        left, right = pair()
        with left, right:
            body = b"GET / HTTP/1.1"  # a peer that is not speaking the protocol
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(TransportError):
                read_frame(right)

    def test_json_scalar_payload_is_rejected(self):
        left, right = pair()
        with left, right:
            body = b"[1, 2, 3]"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(TransportError, match="JSON object"):
                read_frame(right)
