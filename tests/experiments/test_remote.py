"""Tests for the TCP queue server, worker client and remote backend.

Executors are referenced as ``test_remote:<name>`` (pytest imports this
file as a top-level module), so they resolve both in-process and in
``--connect`` worker subprocesses.
"""

import json
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core import ProtocolMode
from repro.experiments import (
    GraphSpec,
    QueueServer,
    RemoteQueueClient,
    RemoteQueueError,
    RemoteWorkQueueBackend,
    ScenarioMatrix,
    SuiteRunner,
    WorkQueue,
)
from repro.experiments.backends.queue import QueueWorker, outcome_record
from repro.experiments.backends.remote import PROTOCOL_VERSION, format_address, parse_address
from repro.experiments.backends.transport import read_frame, write_frame
from repro.experiments.worker import drain


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="remote",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=17,
    )


# Module-level so subprocess workers can resolve it as "test_remote:remote_executor".
def remote_executor(scenario) -> dict:
    return {
        "terminated": True,
        "agreement": True,
        "validity": True,
        "messages": scenario.seed % 89,
        "latency": float(scenario.label("replicate", 0)) + 1.0,
    }


_ran_a_cell = False


def blocking_after_first_executor(scenario) -> dict:
    """Run the process's first cell at once; block every later one until the
    process is signalled (the sleep loop lets a SIGTERM handler run)."""
    global _ran_a_cell
    while _ran_a_cell:
        time.sleep(0.02)
    _ran_a_cell = True
    return remote_executor(scenario)


EXECUTOR_REF = "test_remote:remote_executor"
BLOCKING_REF = "test_remote:blocking_after_first_executor"


def enqueue(tmp_path, cells):
    queue = WorkQueue(tmp_path / "q")
    queue.enqueue(list(enumerate(cells)), EXECUTOR_REF)
    return queue


def shard_digests(queue) -> list[str]:
    digests = []
    for shard in sorted(queue.outcomes.glob("*.jsonl")):
        for line in shard.read_text().strip().splitlines():
            digests.append(json.loads(line)["digest"])
    return digests


class TestAddressParsing:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:7341") == ("127.0.0.1", 7341)
        assert format_address(("10.0.0.2", 80)) == "10.0.0.2:80"

    @pytest.mark.parametrize("bad", ["no-port", ":1234", "host:", "host:abc"])
    def test_malformed_addresses_are_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestServerOps:
    def test_claim_report_cycle_over_tcp(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            jobs = []
            while True:
                job = client.claim()
                if job is None:
                    break
                jobs.append(job)
            assert len(jobs) == len(cells)
            assert queue.snapshot()["claimed"] == len(cells)
            for job in jobs:
                client.report(job, summary={"ok": True}, error=None, wall_time=0.0)
            client.close()
        snapshot = queue.snapshot()
        assert snapshot == {"pending": 0, "claimed": 0, "done": len(cells)}
        assert sorted(shard_digests(queue)) == sorted(job["digest"] for job in jobs)

    def test_requests_refresh_the_heartbeat_file(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "beating", retry_window=5.0)
            client.heartbeat()
            client.close()
        heartbeat = queue.workers / "beating.alive"
        assert heartbeat.exists()
        assert time.time() - heartbeat.stat().st_mtime < 5.0

    def test_snapshot_and_unknown_op(self, tmp_path):
        queue = enqueue(tmp_path, small_matrix(replicates=1).scenarios())
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            assert client.snapshot()["pending"] == len(small_matrix(replicates=1).scenarios())
            with pytest.raises(RemoteQueueError, match="unknown op"):
                client.call({"op": "frobnicate"})
            client.close()

    def test_protocol_version_mismatch_is_rejected_at_hello(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            # Version 1 sent an outcome list per report; 999 is any future one.
            for protocol in (1, 999):
                with socket.create_connection(server.address, timeout=5.0) as old_peer:
                    write_frame(old_peer, {"op": "hello", "worker": "w1", "protocol": protocol})
                    reply = read_frame(old_peer)
                assert reply["ok"] is False
                assert "protocol mismatch" in reply["error"]

    def test_a_version_1_report_is_refused_without_using_its_seq(self, tmp_path):
        # Version 1 wrapped outcomes in a list.  That shape is refused, not
        # journaled, and its seq stays free for the report that follows.
        queue = enqueue(tmp_path, small_matrix(replicates=1).scenarios())
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            job = client.claim()
            record = outcome_record(job, "w1", summary={"ok": True}, error=None, wall_time=0.0)
            request = {"op": "report", "worker": "w1", "session": client.session, "seq": 1}
            with pytest.raises(RemoteQueueError, match="no outcome record"):
                client.call(dict(request, outcomes=[record]))
            assert shard_digests(queue) == []
            assert client.call(dict(request, outcome=record))["applied"] is True
            client.close()
        assert shard_digests(queue) == [job["digest"]]

    def test_worker_ops_require_a_worker_id(self, tmp_path):
        queue = enqueue(tmp_path, small_matrix(replicates=1).scenarios())
        pending = queue.snapshot()
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            for op in ("claim", "report", "heartbeat"):
                with pytest.raises(RemoteQueueError, match="requires a worker id"):
                    client.call({"op": op, "token": "t1", "seq": 1})
            client.close()
        assert queue.snapshot() == pending  # nothing claimed
        assert shard_digests(queue) == []  # nothing journaled

    def test_claim_retry_with_same_token_returns_the_same_job(self, tmp_path):
        # A lost claim ACK makes the client retry the identical request; the
        # server must hand the same job back instead of claiming a second
        # one (which would strand the first in claimed/ forever).
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            request = {"op": "claim", "worker": "w1", "session": client.session, "token": "tok-1"}
            first = client.call(dict(request))
            replay = client.call(dict(request))
            assert replay["job"] == first["job"]  # cached, not a second claim
            assert queue.snapshot()["claimed"] == 1
            fresh = client.call(dict(request, token="tok-2"))
            assert fresh["job"]["digest"] != first["job"]["digest"]
            assert queue.snapshot()["claimed"] == 2
            client.close()

    def test_garbage_connection_does_not_take_down_the_server(self, tmp_path):
        queue = enqueue(tmp_path, small_matrix(replicates=1).scenarios())
        with QueueServer(queue) as server:
            # A peer that is not speaking the protocol: huge declared frame.
            with socket.create_connection(server.address, timeout=5.0) as rogue:
                rogue.sendall(struct.pack(">I", 1 << 31) + b"x")
            # A real client still works afterwards.
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            assert client.claim() is not None
            client.close()


#: An op name whose ``unknown op`` error echoes 100 kB back: a large reply.
BIG_OP = "x" * 100_000

ZLIB_512 = {"algo": "zlib", "min_bytes": 512}


def raw_hello(peer, **extra) -> dict:
    write_frame(peer, {"op": "hello", "worker": "raw", "protocol": PROTOCOL_VERSION, **extra})
    return read_frame(peer)


def recv_exactly(peer, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = peer.recv(count - len(data))
        assert chunk, "server closed the connection mid-frame"
        data += chunk
    return data


def raw_reply(peer, request: dict) -> tuple[bool, dict]:
    """Send one request; return the reply's compression flag, read off the
    frame's raw header word, and the decoded reply."""
    write_frame(peer, request)
    (word,) = struct.unpack(">I", recv_exactly(peer, 4))
    body = recv_exactly(peer, word & 0x7FFF_FFFF)
    deflated = bool(word & 0x8000_0000)
    return deflated, json.loads(zlib.decompress(body) if deflated else body)


class TestCompressionNegotiation:
    def test_client_requesting_compression_gets_an_acked_threshold(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            with socket.create_connection(server.address, timeout=5.0) as peer:
                assert raw_hello(peer, compress=ZLIB_512)["compress"] == ZLIB_512
                deflated, reply = raw_reply(peer, {"op": BIG_OP})
                assert deflated
                assert "unknown op" in reply["error"] and BIG_OP in reply["error"]
            # A client that asks writes large requests through compressed frames.
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0, compress_min=512)
            with pytest.raises(RemoteQueueError, match="unknown op"):
                client.call({"op": "frobnicate", "blob": "x" * 100_000})
            client.close()

    def test_non_requesting_client_stays_uncompressed(self, tmp_path):
        # Compression is per connection: a peer that did not ask gets plain
        # frames while another connection to the same server deflates.
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            with socket.create_connection(server.address, timeout=5.0) as asking:
                with socket.create_connection(server.address, timeout=5.0) as plain:
                    raw_hello(asking, compress=ZLIB_512)
                    raw_hello(plain)
                    assert raw_reply(asking, {"op": BIG_OP})[0] is True
                    assert raw_reply(plain, {"op": BIG_OP})[0] is False

    def test_server_never_compresses_to_a_peer_that_did_not_negotiate(self, tmp_path):
        # A raw peer speaking the protocol without the compress extension
        # must never receive a marked frame, however large the reply — the
        # reply arrives readable with a plain-length header word.
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            with socket.create_connection(server.address, timeout=5.0) as peer:
                hello = raw_hello(peer)
                assert hello["ok"] and "compress" not in hello
                deflated, reply = raw_reply(peer, {"op": BIG_OP, "worker": "plain"})
                assert not deflated
                assert BIG_OP in reply["error"]


class TestServerPush:
    def test_long_poll_claim_returns_a_job_enqueued_while_parked(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")  # starts empty
        cells = small_matrix(replicates=1).scenarios()
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)

            def enqueue_later():
                time.sleep(0.3)
                queue.enqueue(list(enumerate(cells[:1])), EXECUTOR_REF)

            feeder = threading.Thread(target=enqueue_later)
            started = time.monotonic()
            feeder.start()
            job = client.claim(wait=10.0)
            elapsed = time.monotonic() - started
            feeder.join()
            client.close()
        assert job is not None  # pushed once enqueued, not after the full wait
        assert 0.2 <= elapsed < 5.0

    def test_long_poll_claim_times_out_empty(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            started = time.monotonic()
            assert client.claim(wait=0.3) is None
            assert time.monotonic() - started >= 0.25
            client.close()

    @pytest.mark.parametrize(
        ("wait", "at_least", "under"),
        [(float("nan"), 0.0, 0.25), (-5.0, 0.0, 0.25), (float("inf"), 0.3, 1.5), (5.0, 0.3, 1.5)],
    )
    def test_claim_wait_is_capped_whatever_the_peer_sends(
        self, tmp_path, monkeypatch, wait, at_least, under
    ):
        # json parses NaN and Infinity.  A NaN deadline never passes, so a
        # NaN wait used to park the server thread until a job appeared.
        from repro.experiments.backends import remote

        monkeypatch.setattr(remote, "MAX_CLAIM_WAIT", 0.3)
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", io_timeout=3.0, retry_window=0.1)
            client.heartbeat()  # connect first, so only the park is timed
            started = time.monotonic()
            reply = client.call(
                {"op": "claim", "worker": "w1", "session": client.session, "token": "t", "wait": wait}
            )
            elapsed = time.monotonic() - started
            client.close()
        assert reply["job"] is None
        assert at_least <= elapsed < under

    def test_report_piggybacks_the_next_claim(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with CountingServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0, mode="push")
            first = client.claim()
            client.report(first, summary={"ok": True}, error=None, wall_time=0.0)
            assert queue.snapshot()["claimed"] == 1  # first reported, second claimed
            second = client.claim()  # the piggybacked job, no second request
            assert second is not None and second["digest"] != first["digest"]
            assert len(server.ops("claim")) == 1
            client.close()

    def test_piggybacked_claim_never_parks_on_an_empty_queue(self, tmp_path):
        """The ACK of a journaled outcome must not wait for a job to appear.

        Even a request that still asks the piggybacked claim to wait (an
        older client) is answered at once; only an explicit claim long-polls.
        """
        queue = WorkQueue(tmp_path / "q")
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            started = time.monotonic()
            reply = client.call(
                {
                    "op": "report",
                    "worker": "w1",
                    "session": client.session,
                    "seq": 1,
                    "outcome": {"digest": "d1", "summary": None, "error": "x", "wall_time": 0.0},
                    "claim": {"token": "t1", "wait": 2.0},
                }
            )
            assert time.monotonic() - started < 1.0
            assert reply["applied"] and reply["job"] is None
            client.close()

    def test_push_drain_executes_and_journals_everything(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            executed = drain(
                RemoteQueueClient(
                    server.address,
                    "push-w1",
                    poll_interval=0.02,
                    mode="push",
                    claim_wait=0.1,
                    compress_min=512,
                ),
                idle_timeout=0.3,
            )
        assert executed == len(cells)
        assert queue.is_drained()
        assert len(shard_digests(queue)) == len(cells)

    def test_push_mode_rejects_unknown_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            RemoteQueueClient(("127.0.0.1", 1), "w1", mode="pull")

    def test_push_and_claim_suites_are_bit_identical(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        claim_suite = SuiteRunner(
            backend=RemoteWorkQueueBackend(
                tmp_path / "q-claim", workers=2, poll_interval=0.02, timeout=120.0
            ),
            executor=remote_executor,
        ).run(cells)
        push_suite = SuiteRunner(
            backend=RemoteWorkQueueBackend(
                tmp_path / "q-push",
                workers=2,
                poll_interval=0.02,
                timeout=120.0,
                push=True,
                claim_wait=0.2,
                compress_min=1024,
            ),
            executor=remote_executor,
        ).run(cells)
        assert push_suite.summaries() == claim_suite.summaries()
        assert [o.scenario.cell_digest() for o in push_suite] == [
            o.scenario.cell_digest() for o in claim_suite
        ]
        assert not push_suite.errors and not push_suite.skipped


class TestReportReplayIdempotence:
    def test_replayed_report_is_journaled_once(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            job = client.claim()
            record = {
                "digest": job["digest"],
                "scenario": None,
                "summary": {"ok": True},
                "error": None,
                "wall_time": 0.0,
                "worker": "w1",
            }
            # Simulate a lost ACK: the same sequenced report hits the server
            # twice.  The second application must be refused.
            request = {"op": "report", "worker": "w1", "seq": 1, "outcome": record}
            reply_first = client.call(dict(request))
            reply_replay = client.call(dict(request))
            assert reply_first["applied"] is True
            assert reply_replay["applied"] is False
            client.close()
        assert shard_digests(queue) == [job["digest"]]

    def test_replayed_push_report_re_offers_its_piggybacked_job(self, tmp_path):
        # A push-mode report re-sent after a lost ACK carries the same claim
        # token: the outcome is journaled once, and the replay gets back the
        # job the first attempt claimed instead of claiming a second one.
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0, mode="push")
            job = client.claim()
            request = {
                "op": "report",
                "worker": "w1",
                "session": client.session,
                "seq": 1,
                "outcome": outcome_record(job, "w1", summary={}, error=None, wall_time=0.0),
                "claim": {"token": "t1"},
            }
            first = client.call(dict(request))
            replay = client.call(dict(request))
            client.close()
        assert first["applied"] is True and replay["applied"] is False
        assert first["job"] is not None and replay["job"] == first["job"]
        assert queue.snapshot() == {"pending": len(cells) - 2, "claimed": 1, "done": 1}
        assert shard_digests(queue) == [job["digest"]]

    def test_restarted_worker_with_reused_id_is_not_mistaken_for_a_replay(self, tmp_path):
        # A worker process that crashes and is relaunched with the same
        # --worker-id starts its report numbering over at 1.  Replay dedup is
        # scoped per client session, so the new life's reports must apply.
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            digests = []
            for life in range(2):  # two client lives, same worker id
                client = RemoteQueueClient(server.address, "gpu1", retry_window=5.0)
                job = client.claim()
                digests.append(job["digest"])
                client.report(job, summary={"life": life}, error=None, wall_time=0.0)
                client.close()
        assert shard_digests(queue) == digests  # both lives journaled

    def failed_upload(self, tmp_path):
        """A client whose first report failed against a server now stopped,
        and a counting server brought up on the same address."""
        queue = enqueue(tmp_path, small_matrix(replicates=2).scenarios())
        server = QueueServer(queue, port=0)
        server.start()
        host, port = server.address
        client = RemoteQueueClient((host, port), "w1", retry_window=0.3, retry_interval=0.05)
        job = client.claim()
        server.stop()
        with pytest.raises(RemoteQueueError):
            client.report(job, summary={"report": "a"}, error=None, wall_time=0.0)
        second = CountingServer(queue, host=host, port=port)
        second.start()
        return queue, client, job, second

    def test_failed_upload_is_replayed_with_its_original_seq(self, tmp_path):
        # The failed outcome stays unacknowledged under the seq it was
        # assigned; the next report re-sends it first, then gets seq 2.
        queue, client, first_job, second = self.failed_upload(tmp_path)
        second_job = client.claim()
        client.report(second_job, summary={"report": "b"}, error=None, wall_time=0.0)
        client.close()  # nothing left to replay
        second.stop()
        reports = second.ops("report")
        assert [r["seq"] for r in reports] == [1, 2]
        assert [r["outcome"]["digest"] for r in reports] == [first_job["digest"], second_job["digest"]]
        assert shard_digests(queue) == [first_job["digest"], second_job["digest"]]

    def test_close_replays_a_failed_upload(self, tmp_path):
        queue, client, job, second = self.failed_upload(tmp_path)
        client.close()
        second.stop()
        assert [(r["seq"], r["outcome"]["digest"]) for r in second.ops("report")] == [
            (1, job["digest"])
        ]
        assert shard_digests(queue) == [job["digest"]]

    def test_later_reports_still_apply(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            client = RemoteQueueClient(server.address, "w1", retry_window=5.0)
            digests = []
            for _ in range(2):
                job = client.claim()
                digests.append(job["digest"])
                client.report(job, summary={}, error=None, wall_time=0.0)
            client.close()
        assert shard_digests(queue) == digests


class TestReconnect:
    def test_client_survives_a_server_restart(self, tmp_path):
        """The coordinator-restart path: same directory, same port, new server."""
        cells = small_matrix(replicates=1).scenarios()
        queue = enqueue(tmp_path, cells)
        first = QueueServer(queue, port=0)
        first.start()
        host, port = first.address
        client = RemoteQueueClient((host, port), "w1", retry_window=20.0, retry_interval=0.05)
        job = client.claim()
        assert job is not None
        first.stop()

        # Bring a new server life up on the same address after a beat, while
        # the client is already retrying its upload.
        second = QueueServer(queue, host=host, port=port)

        def restart():
            time.sleep(0.3)
            second.start()

        restarter = threading.Thread(target=restart)
        restarter.start()
        # Transparently reconnects and retries.
        client.report(job, summary={"ok": True}, error=None, wall_time=0.0)
        restarter.join()
        second.stop()
        client.close()
        assert shard_digests(queue) == [job["digest"]]

    def test_unreachable_server_fails_after_the_retry_window(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = RemoteQueueClient(
            ("127.0.0.1", free_port), "w1", retry_window=0.3, retry_interval=0.05
        )
        started = time.monotonic()
        with pytest.raises(RemoteQueueError, match="unreachable"):
            client.snapshot()  # any request; heartbeats alone are best-effort
        assert time.monotonic() - started >= 0.25


class TestDrainRemote:
    def test_drain_executes_and_journals_everything(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            executed = drain(
                RemoteQueueClient(server.address, "tcp-w1", poll_interval=0.02),
                idle_timeout=0.3,
            )
        assert executed == len(cells)
        assert queue.is_drained()
        records = queue.read_new_outcomes({})
        assert sorted(r["digest"] for r in records) == sorted(c.cell_digest() for c in cells)
        assert {r["worker"] for r in records} == {"tcp-w1"}
        assert all(r["error"] is None and r["summary"]["terminated"] for r in records)


class CountingServer(QueueServer):
    """A server that records every request it dispatches, in order."""

    def __init__(self, queue, **options):
        super().__init__(queue, **options)
        self.requests: list[dict] = []

    def _dispatch(self, request):
        self.requests.append(request)
        return super()._dispatch(request)

    def ops(self, op):
        return [request for request in self.requests if request.get("op") == op]


class TestOneRoute:
    """An outcome crosses the wire once: one ``report`` per cell, nothing else."""

    def test_pull_mode_sends_one_report_and_one_claim_per_cell(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with CountingServer(queue) as server:
            drain(
                RemoteQueueClient(
                    server.address, "w1", poll_interval=0.05, heartbeat_interval=60.0
                ),
                idle_timeout=0.2,
            )
        reports, claims = server.ops("report"), server.ops("claim")
        assert len(reports) == len(cells)
        assert all(r["outcome"]["worker"] == "w1" and "claim" not in r for r in reports)
        assert [r["seq"] for r in reports] == list(range(1, len(cells) + 1))
        idle_claims = len(claims) - len(cells)
        assert 1 <= idle_claims <= 10  # idle_timeout / poll_interval, with slack
        assert all("wait" not in c for c in claims)
        assert {r["op"] for r in server.requests} == {"hello", "claim", "report"}
        assert len(shard_digests(queue)) == len(cells)

    def test_push_mode_piggybacks_every_claim_but_the_first_and_the_idle_ones(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        queue = enqueue(tmp_path, cells)
        with CountingServer(queue) as server:
            drain(
                RemoteQueueClient(
                    server.address, "w1", mode="push", claim_wait=0.1, heartbeat_interval=60.0
                ),
                idle_timeout=0.25,
            )
        reports, claims = server.ops("report"), server.ops("claim")
        assert len(reports) == len(cells)
        assert all(r["outcome"]["worker"] == "w1" and r["claim"]["token"] for r in reports)
        assert 2 <= len(claims) <= 6  # the first, then long-polls until idle_timeout
        assert all(c["wait"] == 0.1 for c in claims)
        assert server.requests[1]["op"] == "claim"  # right after hello
        assert {r["op"] for r in server.requests} == {"hello", "claim", "report"}
        assert len(shard_digests(queue)) == len(cells)

    def test_progress_op_of_an_old_worker_is_refused_and_the_connection_lives(self, tmp_path):
        queue = enqueue(tmp_path, small_matrix(replicates=1).scenarios())
        with QueueServer(queue) as server:
            with socket.create_connection(server.address, timeout=5.0) as old_worker:
                write_frame(old_worker, {"op": "hello", "worker": "old", "protocol": PROTOCOL_VERSION})
                assert read_frame(old_worker)["ok"]
                write_frame(
                    old_worker,
                    {"op": "progress", "worker": "old", "event": {"kind": "cell-finished"}},
                )
                reply = read_frame(old_worker)
                assert reply["ok"] is False and "unknown op" in reply["error"]
                write_frame(old_worker, {"op": "claim", "worker": "old", "token": "t1"})
                assert read_frame(old_worker)["job"] is not None


class TestOneDrainLoop:
    """Directory and TCP workers run one loop and journal the same records."""

    def populate(self, root):
        """Three jobs: success, raising executor, unimportable executor."""
        cells = small_matrix(replicates=2).scenarios()[:3]
        queue = WorkQueue(root)
        queue.enqueue([(0, cells[0])], EXECUTOR_REF)
        queue.enqueue([(1, cells[1])], "test_remote:raising_executor")
        queue.enqueue([(2, cells[2])], "definitely_not_a_module:nope")
        return queue, [cell.cell_digest() for cell in cells]

    def journaled(self, queue, digests):
        records = {record["digest"]: record for record in queue.read_new_outcomes({})}
        assert sorted(records) == sorted(digests)
        assert all(records[digest].pop("wall_time") > 0.0 for digest in digests)
        return [{k: v for k, v in records[digest].items() if k != "worker"} for digest in digests]

    @pytest.mark.parametrize("mode", ["claim", "push"])
    def test_transports_journal_equal_records(self, tmp_path, mode):
        directory, digests = self.populate(tmp_path / "directory")
        assert drain(QueueWorker(directory, "dir-w"), idle_timeout=0.2) == 3
        expected = self.journaled(directory, digests)
        success, raised, unimportable = expected
        assert success["summary"] == remote_executor(small_matrix().scenarios()[0])
        assert raised["summary"] is None and "always fails" in raised["error"]
        assert unimportable["summary"] is None and "definitely_not_a_module" in unimportable["error"]

        served, _ = self.populate(tmp_path / "served")
        with QueueServer(served) as server:
            client = RemoteQueueClient(
                server.address, "tcp-w", mode=mode, claim_wait=0.1, poll_interval=0.02
            )
            assert drain(client, idle_timeout=0.3) == 3
        assert self.journaled(served, digests) == expected  # tracebacks included


class TestRemoteBackend:
    def test_two_tcp_subprocess_workers_match_serial(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        serial = SuiteRunner(executor=remote_executor).run(cells)
        backend = RemoteWorkQueueBackend(
            tmp_path / "q", workers=2, poll_interval=0.02, timeout=120.0
        )
        streamed: list[int] = []
        sharded = SuiteRunner(
            backend=backend,
            executor=remote_executor,
            progress=lambda completed, total, outcome: streamed.append(completed),
        ).run(cells)
        assert sharded.summaries() == serial.summaries()
        assert [o.scenario for o in sharded] == [o.scenario for o in serial]
        assert sharded.backend == "remote-queue"
        assert not sharded.errors and not sharded.skipped
        assert streamed == list(range(1, len(cells) + 1))  # per-cell progress
        assert backend.server is None  # torn down with the sweep

    def test_full_simulation_is_bit_identical_across_the_wire(self, tmp_path):
        """Acceptance: same cell_digests and summaries as SerialBackend."""
        cells = small_matrix(replicates=1).scenarios()
        serial = SuiteRunner().run(cells)  # default executor: full simulation
        backend = RemoteWorkQueueBackend(
            tmp_path / "q", workers=1, poll_interval=0.02, timeout=120.0
        )
        sharded = SuiteRunner(backend=backend).run(cells)
        assert sharded.summaries() == serial.summaries()
        assert [o.scenario.cell_digest() for o in sharded] == [
            o.scenario.cell_digest() for o in serial
        ]

    def test_resume_with_no_workers_stitches_from_shards(self, tmp_path):
        cells = small_matrix(replicates=2).scenarios()
        root = tmp_path / "q"
        first = SuiteRunner(
            backend=RemoteWorkQueueBackend(root, workers=1, poll_interval=0.02, timeout=120.0),
            executor=remote_executor,
        ).run(cells)
        resumed = SuiteRunner(
            backend=RemoteWorkQueueBackend(root, workers=0, poll_interval=0.02, timeout=30.0),
            executor=remote_executor,
        ).run(cells)
        assert resumed.summaries() == first.summaries()

    def test_external_worker_batched_outcomes_survive_sweep_teardown(self, tmp_path):
        # The README's headline flow: workers=0, an externally launched
        # worker drains over TCP and gets no signal when the sweep ends.
        # Every outcome the coordinator saw came out of a shard, so when
        # _teardown returns the queue directory holds no claim without a
        # journaled outcome and the resume pass below re-executes nothing.
        cells = small_matrix(replicates=2).scenarios()
        root = tmp_path / "q"
        backend = RemoteWorkQueueBackend(root, workers=0, poll_interval=0.02, timeout=120.0)
        outcome: dict = {}

        def coordinate() -> None:
            outcome["suite"] = SuiteRunner(backend=backend, executor=remote_executor).run(cells)

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        deadline = time.monotonic() + 30.0
        while backend.address is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert backend.address is not None
        try:
            drain(
                RemoteQueueClient(
                    backend.address,
                    "external",
                    poll_interval=0.05,
                    retry_window=1.0,
                ),
                idle_timeout=5.0,
            )
        except RemoteQueueError:
            pass  # the coordinator tears the server down once the sweep is done
        coordinator.join(timeout=60.0)
        suite = outcome["suite"]
        serial = SuiteRunner(executor=remote_executor).run(cells)
        assert suite.summaries() == serial.summaries()
        # Every outcome must be journaled in the queue dir: a fresh
        # zero-worker coordinator stitches the whole sweep from shards.
        resumed = SuiteRunner(
            backend=RemoteWorkQueueBackend(root, workers=0, poll_interval=0.02, timeout=30.0),
            executor=remote_executor,
        ).run(cells)
        assert resumed.summaries() == serial.summaries()

    def test_worker_errors_are_collected_not_fatal(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        backend = RemoteWorkQueueBackend(
            tmp_path / "q", workers=1, poll_interval=0.02, timeout=120.0
        )
        suite = SuiteRunner(backend=backend, executor=raising_executor).run(cells)
        assert len(suite.errors) == len(cells)
        assert all("always fails" in outcome.error for outcome in suite.errors)


def raising_executor(scenario) -> dict:
    raise RuntimeError(f"cell {scenario.name} always fails")


class TestWorkerCli:
    def test_requires_exactly_one_source(self):
        from repro.experiments.worker import main

        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["--queue", "somewhere", "--connect", "host:1"])

    def test_connect_mode_drains_over_tcp(self, tmp_path, capsys):
        from repro.experiments.worker import main

        cells = small_matrix(replicates=1).scenarios()
        queue = enqueue(tmp_path, cells)
        with QueueServer(queue) as server:
            code = main(
                [
                    "--connect",
                    format_address(server.address),
                    "--worker-id",
                    "cli-tcp",
                    "--idle-timeout",
                    "0.3",
                    "--poll-interval",
                    "0.02",
                ]
            )
        assert code == 0
        assert f"executed {len(cells)} jobs" in capsys.readouterr().out
        assert queue.is_drained()


class TestStandaloneServerCli:
    def test_serves_a_directory_to_tcp_workers(self, tmp_path):
        import os
        import re
        import subprocess
        import sys as _sys

        cells = small_matrix(replicates=1).scenarios()
        queue = enqueue(tmp_path, cells)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in _sys.path if p)
        proc = subprocess.Popen(
            [
                _sys.executable,
                "-m",
                "repro.experiments.queue_server",
                "--queue",
                str(queue.root),
                "--host",
                "127.0.0.1",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert proc.stdout is not None
            banner = proc.stdout.readline()
            match = re.search(r"on (\S+):(\d+)", banner)
            assert match, f"unexpected server banner: {banner!r}"
            executed = drain(
                RemoteQueueClient(
                    (match.group(1), int(match.group(2))),
                    "cli-standalone",
                    poll_interval=0.02,
                ),
                idle_timeout=0.3,
            )
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        assert executed == len(cells)
        assert queue.is_drained()


class TestGracefulTermination:
    def test_sigterm_mid_cell_keeps_the_finished_cell_and_frees_the_running_one(self, tmp_path):
        """A coordinator's terminate() loses nothing a worker already finished.

        The worker's first cell is in its shard the moment it is reported;
        SIGTERM arrives while the second is executing, which it does until
        signalled, because its executor never returns.  The CLI's signal
        handler turns that into SystemExit(143), and the second claim — never
        reported — is reclaimed once the worker's lease runs out.
        """
        import os
        import signal as _signal
        import subprocess
        import sys as _sys
        import time as _time

        cells = small_matrix(replicates=2).scenarios()
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue(list(enumerate(cells)), BLOCKING_REF)
        with QueueServer(queue) as server:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in _sys.path if p)
            proc = subprocess.Popen(
                [
                    _sys.executable,
                    "-m",
                    "repro.experiments.worker",
                    "--connect",
                    format_address(server.address),
                    "--worker-id",
                    "sigterm-w",
                    "--idle-timeout",
                    "3600",
                    "--poll-interval",
                    "0.02",
                ],
                env=env,
            )
            try:
                deadline = _time.monotonic() + 60.0
                while _time.monotonic() < deadline and not shard_digests(queue):
                    _time.sleep(0.02)
                first = shard_digests(queue)
                assert len(first) == 1, "worker never journaled its first cell"
                # The first cell is journaled before its claim moves to done/,
                # so "one claimed" alone may still be the first cell.  Wait for
                # the first done *and* the second claimed: the second cell
                # blocks, so once reached this state holds until the signal.
                running = {"pending": len(cells) - 2, "claimed": 1, "done": 1}
                while _time.monotonic() < deadline and queue.snapshot() != running:
                    _time.sleep(0.02)
                assert queue.snapshot() == running  # the second cell is running
                proc.send_signal(_signal.SIGTERM)
                assert proc.wait(timeout=30) == 143
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert shard_digests(queue) == first  # journaled before the signal, and only it
        assert queue.snapshot() == running
        _time.sleep(0.3)
        assert len(queue.reclaim_expired(lease=0.2)) == 1
        assert queue.snapshot() == {"pending": len(cells) - 1, "claimed": 0, "done": 1}
