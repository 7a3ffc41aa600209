"""TCP transport for the work queue: server, worker client and backend.

The filesystem :class:`~repro.experiments.backends.queue.WorkQueue` requires
every worker to share the coordinator's filesystem.  This module lifts that
requirement without changing the queue protocol: a :class:`QueueServer`
(run in-process by :class:`RemoteWorkQueueBackend`, or standalone via
``python -m repro.experiments.queue_server``) owns the queue directory and
serves the *same* job/outcome JSON records over length-prefixed frames
(:mod:`~repro.experiments.backends.transport`), so workers on any machine
can drain a suite with ``python -m repro.experiments.worker --connect
host:port``.

Design points:

* **Claiming, leases and heartbeats are unchanged.**  The server maps each
  request onto the filesystem queue's own primitives — ``claim`` is still
  an atomic rename, every request from a worker refreshes that worker's
  heartbeat file, and the coordinator's reclamation loop reclaims dead
  *remote* workers exactly as it reclaims dead local ones.
* **One outcome per report.**  The moment a cell finishes, the worker
  uploads its outcome record in one ``report`` request and the server
  journals it into that worker's shard; the backend collects by tailing the
  shards, as the directory transport does, so a record the coordinator has
  seen is durable and :class:`~repro.experiments.runner.SuiteRunner`'s
  progress callback fires per cell.  Each upload carries a per-worker
  sequence number, so one re-sent after a lost ACK or a reconnect is
  applied at most once per server life (no duplicate journal entries).
* **Durable state stays coordinator-side.**  Outcome shards live in the
  server's queue directory, so re-running a coordinator over the same
  directory works unchanged across transports, and remote runs are
  bit-identical to serial ones (same ``cell_digest``s, same summaries).
  Only cells and outcomes cross the wire; ``SuiteRunner.run(store=...)``
  keeps its cross-sweep cache on the coordinator.
* **One worker loop.**  :func:`repro.experiments.worker.drain` runs against
  a :class:`RemoteQueueClient` exactly as against a directory
  :class:`~repro.experiments.backends.queue.QueueWorker`.
"""

from __future__ import annotations

import socket
import sys
import threading
import time  # lint: allow-file[DET-SEED-CLOCK] operational timing: connection deadlines, retry backoff and progress display
import traceback
import uuid
from pathlib import Path
from typing import Any

from repro.experiments.backends.queue import (
    Job,
    WorkQueue,
    WorkQueueBackend,
    outcome_record,
    sanitize_worker_id,
)
from repro.experiments.backends.transport import (
    COMPRESS_MIN_BYTES,
    TransportError,
    read_frame,
    write_frame,
)

#: Exchanged in ``hello``, which refuses a peer speaking another version
#: instead of mis-parsing it.  Version 2 carries one ``outcome`` per
#: ``report`` (version 1 sent an ``outcomes`` list).
PROTOCOL_VERSION = 2

#: Upper bound on one long-poll claim park (server side).  Clients asking
#: for more simply re-poll; bounding the park keeps connections responsive
#: to shutdown and lease bookkeeping.
MAX_CLAIM_WAIT = 30.0


class RemoteQueueError(RuntimeError):
    """A queue-protocol request failed for good (server refused, or gone)."""


def parse_address(value: str) -> tuple[str, int]:
    """Parse a ``host:port`` string (the ``--connect`` argument)."""
    host, separator, port = value.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def format_address(address: tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------
class QueueServer:
    """Serve one work-queue directory to TCP workers.

    The server is a thin translation layer: every operation maps onto the
    filesystem queue the coordinator already trusts, under one lock (queue
    operations are filesystem-atomic, the lock just keeps directory scans
    from racing each other).  It is intentionally stateless across
    restarts — a new server over the same directory resumes exactly where
    the old one stopped, because all durable state is the directory.

    Parameters
    ----------
    queue:
        The queue directory (or an existing :class:`WorkQueue`).
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    lease / reclaim_interval:
        When ``reclaim_interval`` is set (the standalone CLI does this), a
        background thread reclaims expired claims every interval; embedded
        servers leave reclamation to the coordinator's collect loop.
    """

    def __init__(
        self,
        queue: WorkQueue | str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease: float = 60.0,
        reclaim_interval: float | None = None,
    ) -> None:
        self.queue = queue if isinstance(queue, WorkQueue) else WorkQueue(queue)
        self._bind_host = host
        self._bind_port = port
        self.lease = lease
        self.reclaim_interval = reclaim_interval
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._queue_lock = threading.Lock()
        self._state_lock = threading.Lock()
        #: Highest applied report sequence number per (worker, session).  The
        #: session half is what distinguishes a *replayed* report (same client
        #: life re-sending after a lost ACK — must be dropped) from a
        #: *restarted* worker reusing its id whose fresh numbering starts
        #: over at 1 (must be applied).
        self._applied_seq: dict[tuple[str, str], int] = {}
        #: Last claim reply per (worker, session): ``(token, reply)``.  A
        #: claim re-sent with the same token (the client lost the ACK and
        #: retried) gets the cached reply back instead of claiming a second
        #: job — without this, the first job would sit in ``claimed/`` under
        #: a live worker whose heartbeats keep its lease fresh forever.
        self._claim_replies: dict[tuple[str, str], tuple[str, dict[str, Any]]] = {}
        self._stopping = threading.Event()

    # Lifecycle -------------------------------------------------------------
    def start(self) -> "QueueServer":
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.create_server((self._bind_host, self._bind_port))
        listener.settimeout(0.2)  # so the accept loop notices stop()
        self._listener = listener
        self.address = listener.getsockname()[:2]
        accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        accept_thread.start()
        self._threads.append(accept_thread)
        if self.reclaim_interval is not None:
            reclaim_thread = threading.Thread(target=self._reclaim_loop, daemon=True)
            reclaim_thread.start()
            self._threads.append(reclaim_thread)
        return self

    def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._state_lock:
            connections = tuple(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "QueueServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # Internals -------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                break
            try:
                connection, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._state_lock:
                self._connections.add(connection)
            worker_thread = threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            )
            worker_thread.start()

    def _reclaim_loop(self) -> None:
        assert self.reclaim_interval is not None
        while not self._stopping.wait(self.reclaim_interval):
            with self._queue_lock:
                self.queue.reclaim_expired(self.lease)

    def _serve_connection(self, connection: socket.socket) -> None:
        compress_min: int | None = None
        try:
            while not self._stopping.is_set():
                try:
                    request = read_frame(connection)
                except TransportError:
                    break  # dead or non-protocol peer; leases clean up after it
                except OSError:
                    break
                if request is None:
                    break  # clean disconnect
                response = self._handle(request)
                if request.get("op") == "hello" and response.get("ok"):
                    # Compression is per-connection and write-side: frames to
                    # this peer deflate only after it asked for it here.  A
                    # peer that never sends the request never sees a
                    # compressed frame.
                    negotiated = response.get("compress")
                    if isinstance(negotiated, dict):
                        compress_min = int(negotiated["min_bytes"])
                try:
                    write_frame(connection, response, compress_min=compress_min)
                except OSError:
                    break
        finally:
            with self._state_lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    def _handle(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            return self._dispatch(request)
        except Exception:
            return {"ok": False, "error": traceback.format_exc(limit=8)}

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        worker = request.get("worker")
        if op in ("claim", "report", "heartbeat") and not worker:
            return {"ok": False, "error": f"op {op!r} requires a worker id"}
        if worker:
            # Any request is a sign of life: remote workers lease-extend
            # through the same heartbeat files as filesystem workers.
            self.queue.heartbeat(str(worker))
        if op == "hello":
            client_protocol = request.get("protocol")
            if client_protocol != PROTOCOL_VERSION:
                return {
                    "ok": False,
                    "error": f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
                    f"client sent {client_protocol!r}",
                }
            reply = {"ok": True, "server": "repro-queue", "protocol": PROTOCOL_VERSION}
            requested = request.get("compress")
            if isinstance(requested, dict) and requested.get("algo") == "zlib":
                min_bytes = max(1, int(requested.get("min_bytes") or COMPRESS_MIN_BYTES))
                reply["compress"] = {"algo": "zlib", "min_bytes": min_bytes}
            return reply
        if op == "claim":
            token = request.get("token")
            key = (sanitize_worker_id(str(worker)), str(request.get("session") or ""))
            wait = float(request.get("wait") or 0.0)
            return self._claim_reply(str(worker), key, token, wait)
        if op == "heartbeat":
            return {"ok": True}
        if op == "report":
            return self._apply_report(str(worker), request)
        if op == "snapshot":
            return {"ok": True, "snapshot": self.queue.snapshot()}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _claim_reply(
        self, worker: str, key: tuple[str, str], token: Any, wait: float
    ) -> dict[str, Any]:
        """Claim one job for ``worker``, parking up to ``wait`` seconds.

        The long-poll park is what turns the claim protocol into server
        push: an idle worker's claim sits here until a job lands in the
        queue (or the bounded wait elapses), so job hand-off costs zero
        idle round-trips.  The park polls the filesystem queue *without*
        holding the queue lock between attempts, so reports and other
        claims proceed while workers wait.  Token caching is unchanged: a
        lost-ACK retry (same token) gets the cached reply, parked or not.
        """
        # Anything that is not 0 <= wait parks for 0 s: NaN compares false, and
        # a NaN deadline would never pass.
        deadline = time.monotonic() + (min(wait, MAX_CLAIM_WAIT) if wait >= 0.0 else 0.0)
        while True:
            with self._queue_lock:
                if isinstance(token, str):
                    cached = self._claim_replies.get(key)
                    if cached is not None and cached[0] == token:
                        return cached[1]  # lost-ACK retry: same claim again
                job = self.queue.claim(worker)
                if job is not None or time.monotonic() >= deadline or self._stopping.is_set():
                    reply: dict[str, Any] = {"ok": True, "job": job}
                    if isinstance(token, str):
                        self._claim_replies[key] = (token, reply)
                    return reply
            # Parked between polls: a parked worker is alive, keep its
            # heartbeat fresh so snapshots and reclamation see it that way.
            self.queue.heartbeat(worker)
            self._stopping.wait(0.05)

    def _apply_report(self, worker: str, request: dict[str, Any]) -> dict[str, Any]:
        """Journal one uploaded outcome, at most once per sequence number.

        Replay safety: the client re-sends a report (same ``seq``) whenever
        an ACK may have been lost — after an i/o timeout or a reconnect.  A
        report whose sequence number was already applied is acknowledged
        without touching the journal, so replays never duplicate entries.
        """
        record = request.get("outcome")
        if not isinstance(record, dict) or "digest" not in record:
            return {"ok": False, "error": "report carries no outcome record"}
        seq = request.get("seq")
        key = (sanitize_worker_id(worker), str(request.get("session") or ""))
        with self._queue_lock:
            applied = not (isinstance(seq, int) and seq <= self._applied_seq.get(key, 0))
            if applied:
                # Marked applied only once journaled: if an i/o error aborts
                # the append, the client's replay (same seq) is journaled
                # rather than dropped.
                self.queue.journal_record(worker, record)
                if isinstance(seq, int):
                    self._applied_seq[key] = seq
        reply: dict[str, Any] = {"ok": True, "applied": applied}
        # Server push: a push-mode worker piggybacks its next claim on the
        # report, folding report + claim into one round-trip.  The claim
        # runs through the tokened path (outside the journal lock hold
        # above), so a replayed report re-offers the *same* job instead of
        # stranding the first one under a live worker.  It never parks: the
        # ACK of an already-journaled outcome must not wait for a job to
        # appear (the worker's heartbeats queue behind it on the same
        # connection); on an empty queue the worker's next explicit claim
        # long-polls instead.
        claim = request.get("claim")
        if isinstance(claim, dict) and isinstance(claim.get("token"), str):
            reply["job"] = self._claim_reply(worker, key, claim["token"], 0.0).get("job")
        return reply


# ---------------------------------------------------------------------------
# Worker-side client
# ---------------------------------------------------------------------------
class RemoteQueueClient:
    """One worker's connection to a :class:`QueueServer`.

    All requests go through :meth:`call`, which serialises access to the
    socket (the heartbeat thread shares it with the drain loop) and
    transparently reconnects on connection loss — retrying the request for
    up to ``retry_window`` seconds, which is what lets a worker survive a
    coordinator restart.  Requests are idempotent by construction: claims
    carry per-attempt tokens (a lost-ACK retry gets the same job back),
    heartbeats are monotone, and reports carry sequence numbers.

    The client is the TCP side of the surface
    :func:`repro.experiments.worker.drain` is written against, and owns what
    is particular to this transport.  :meth:`report` uploads each outcome at
    once in one sequenced request, durable server-side when it returns; an
    upload that failed is replayed under its original sequence number.
    ``mode="push"`` flips the claim economics: every report piggybacks a
    claim (report + next job in one round-trip), and an idle
    claim long-polls ``claim_wait`` seconds server-side instead of burning
    ``poll_interval`` claim round-trips.  Cells, outcomes and journal records
    are identical between the modes; only the rhythm differs.
    """

    def __init__(
        self,
        address: tuple[str, int] | str,
        worker_id: str,
        *,
        connect_timeout: float = 10.0,
        io_timeout: float = 120.0,
        retry_window: float = 60.0,
        retry_interval: float = 0.5,
        compress_min: int | None = None,
        mode: str = "claim",
        claim_wait: float = 5.0,
        poll_interval: float = 0.1,
        heartbeat_interval: float = 5.0,
    ) -> None:
        if mode not in ("claim", "push"):
            raise ValueError(f"mode must be 'claim' or 'push', got {mode!r}")
        self.address = parse_address(address) if isinstance(address, str) else address
        self.worker_id = worker_id
        self.push = mode == "push"
        #: Seconds an idle claim parks server-side; ``None`` outside push mode.
        self.claim_wait = claim_wait if self.push else None
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.retry_window = retry_window
        self.retry_interval = retry_interval
        #: Request zlib compression for frames at least this large (``None``
        #: disables the request).  Actually compressing requires the server
        #: to ack the request in ``hello``.
        self.compress_min = compress_min
        self._write_compress: int | None = None
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        #: Unique per client *instance*: report replay protection is scoped
        #: to this session, so a restarted worker process reusing a worker
        #: id starts a fresh sequence space instead of colliding with the
        #: dead one's.
        self.session = uuid.uuid4().hex
        self._seq = 0
        #: The one outcome uploaded but not yet acknowledged, with the
        #: sequence number it was assigned, so a re-send is a true replay
        #: the server can deduplicate.  The drain loop stops at a failed
        #: upload, so there is never more than one.
        self._unacked: tuple[int, dict[str, Any]] | None = None
        #: Push mode: the job the last report's piggybacked claim handed back.
        self._next_job: Job | None = None

    # Connection ------------------------------------------------------------
    def _connect_locked(self) -> None:
        sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        sock.settimeout(self.io_timeout)
        hello: dict[str, Any] = {
            "op": "hello",
            "worker": self.worker_id,
            "protocol": PROTOCOL_VERSION,
        }
        if self.compress_min is not None:
            hello["compress"] = {"algo": "zlib", "min_bytes": int(self.compress_min)}
        write_frame(sock, hello)
        reply = read_frame(sock)
        if reply is None or not reply.get("ok"):
            sock.close()
            raise RemoteQueueError(f"server at {format_address(self.address)} rejected hello: {reply!r}")
        if reply.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise RemoteQueueError(
                f"server at {format_address(self.address)} speaks protocol "
                f"{reply.get('protocol')!r}, this client speaks {PROTOCOL_VERSION}"
            )
        # Compress writes only when the server acked the request (its
        # threshold echo is authoritative); a server that ignored it —
        # an older build, say — keeps this connection uncompressed.
        acked = reply.get("compress")
        if isinstance(acked, dict) and acked.get("algo") == "zlib":
            self._write_compress = int(acked["min_bytes"])
        else:
            self._write_compress = None
        self._sock = sock

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Replay an upload that failed, then drop the connection."""
        if self._unacked is not None:
            try:
                self._upload(claim=False)
            except RemoteQueueError as error:
                print(f"worker {self.worker_id}: final upload failed: {error}", file=sys.stderr)
        with self._lock:
            self._close_locked()

    # Requests --------------------------------------------------------------
    def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and return the server's reply.

        Connection-level failures (refused, reset, truncated, timed out)
        trigger reconnect-and-retry until ``retry_window`` elapses;
        application-level refusals (``ok: false``) raise immediately.
        """
        with self._lock:
            deadline = time.monotonic() + self.retry_window
            while True:
                try:
                    if self._sock is None:
                        self._connect_locked()
                    assert self._sock is not None
                    write_frame(self._sock, payload, compress_min=self._write_compress)
                    reply = read_frame(self._sock)
                    if reply is None:
                        raise TransportError("server closed the connection")
                except RemoteQueueError:
                    raise
                except (OSError, TransportError) as error:
                    self._close_locked()
                    if time.monotonic() >= deadline:
                        raise RemoteQueueError(
                            f"queue server {format_address(self.address)} unreachable for "
                            f"{self.retry_window:.0f}s: {error}"
                        ) from error
                    time.sleep(self.retry_interval)
                    continue
                if not reply.get("ok"):
                    raise RemoteQueueError(
                        f"server refused {payload.get('op')!r}: {reply.get('error', 'unknown error')}"
                    )
                return reply

    def claim(self, *, wait: float | None = None) -> Job | None:
        """Claim one job; ``None`` when the queue has nothing pending.

        Each logical claim carries a fresh token; a connection-level retry
        re-sends the same token, so the server hands back the same job
        instead of claiming a second one (claims are otherwise not
        idempotent — a lost ACK would strand the first job).

        ``wait`` (default: the client's ``claim_wait``) long-polls: the
        server parks the claim until a job appears or the wait (bounded
        server-side) elapses, so idle push-mode workers burn no claim
        round-trips.  A job piggybacked on the last :meth:`report` is handed
        out first.
        """
        job, self._next_job = self._next_job, None
        if job is not None:
            return job
        if wait is None:
            wait = self.claim_wait
        payload: dict[str, Any] = {
            "op": "claim",
            "worker": self.worker_id,
            "session": self.session,
            "token": uuid.uuid4().hex,
        }
        if wait is not None and wait > 0:
            payload["wait"] = wait
        reply = self.call(payload)
        job = reply.get("job")
        return job if isinstance(job, dict) else None

    def heartbeat(self) -> None:
        """Best-effort sign of life (every other request is one too)."""
        try:
            self.call({"op": "heartbeat", "worker": self.worker_id})
        except RemoteQueueError:
            pass  # the drain loop surfaces persistent connectivity loss

    def snapshot(self) -> dict[str, int]:
        reply = self.call({"op": "snapshot"})
        return dict(reply.get("snapshot") or {})

    def _upload(self, *, claim: bool) -> Job | None:
        """Send the unacknowledged outcome; it is journaled once this returns.

        With ``claim`` (push mode) the report piggybacks a tokened claim and
        the next job — or ``None``, at once: the server never parks a
        piggybacked claim — is returned.  The token is fixed for the call,
        so a transport-level retry re-receives the same job.
        """
        assert self._unacked is not None
        seq, record = self._unacked
        payload: dict[str, Any] = {
            "op": "report",
            "worker": self.worker_id,
            "session": self.session,
            "seq": seq,
            "outcome": record,
        }
        if claim:
            payload["claim"] = {"token": uuid.uuid4().hex}
        reply = self.call(payload)
        self._unacked = None
        job = reply.get("job")
        return job if isinstance(job, dict) else None

    # The drain-loop surface ------------------------------------------------
    def report(
        self, job: Job, *, summary: dict[str, Any] | None, error: str | None, wall_time: float
    ) -> None:
        """Upload one finished job's outcome (journaled once this returns).

        An upload that fails stays unacknowledged under its sequence number
        and is replayed ahead of the next report, or by :meth:`close`.
        """
        if self._unacked is not None:
            self._upload(claim=False)
        self._seq += 1
        record = outcome_record(job, self.worker_id, summary=summary, error=error, wall_time=wall_time)
        self._unacked = (self._seq, record)
        self._next_job = self._upload(claim=self.push)

    def idle(self) -> None:
        """Nothing to claim: wait one poll interval."""
        if not self.push:  # a push claim already waited server-side
            time.sleep(self.poll_interval)


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------
class RemoteWorkQueueBackend(WorkQueueBackend):
    """A work-queue backend whose workers connect over TCP.

    The collect loop, resume semantics, lease reclamation and journal
    layout are all inherited from :class:`WorkQueueBackend` — this class
    only changes the transport: :meth:`_setup` starts an embedded
    :class:`QueueServer` over the queue directory, spawned workers are
    handed ``--connect host:port`` instead of a ``--queue`` path, and the
    server journals each uploaded record into the shards the collect loop
    tails.  Externally launched workers on other machines can join the same
    sweep by connecting to :attr:`address`.
    """

    name = "remote-queue"

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        poll_interval: float = 0.1,
        lease: float = 60.0,
        idle_timeout: float = 10.0,
        timeout: float | None = None,
        push: bool = False,
        claim_wait: float = 5.0,
        compress_min: int | None = None,
    ) -> None:
        super().__init__(
            root,
            workers=workers,
            poll_interval=poll_interval,
            lease=lease,
            idle_timeout=idle_timeout,
            timeout=timeout,
        )
        self.host = host
        self.port = port
        #: Spawn workers in server-push mode: idle claims long-poll and every
        #: report piggybacks the next claim.  Outcomes are identical either
        #: way; push folds report + claim into one round-trip per cell.
        self.push = push
        self.claim_wait = claim_wait
        #: Compression threshold spawned workers request in their hello
        #: (``None`` leaves the wire uncompressed).
        self.compress_min = compress_min
        self.server: QueueServer | None = None

    @property
    def address(self) -> tuple[str, int] | None:
        """The live server's ``(host, port)``, for externally launched workers."""
        return self.server.address if self.server is not None else None

    # Transport hooks --------------------------------------------------------
    def _setup(self, queue: WorkQueue) -> None:
        self.server = QueueServer(queue, host=self.host, port=self.port, lease=self.lease)
        self.server.start()

    def _teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _worker_command(self, queue: WorkQueue, worker_id: str) -> list[str]:
        address = self.address
        assert address is not None, "_setup starts the server before workers spawn"
        command = [
            sys.executable,
            "-m",
            "repro.experiments.worker",
            "--connect",
            format_address(address),
            "--worker-id",
            worker_id,
            "--poll-interval",
            str(self.poll_interval),
            "--idle-timeout",
            str(self.idle_timeout),
            "--heartbeat-interval",
            str(max(self.lease / 4.0, 0.05)),
        ]
        if self.push:
            command += ["--mode", "push", "--claim-wait", str(self.claim_wait)]
        if self.compress_min is not None:
            command += ["--compress-min", str(self.compress_min)]
        return command


__all__ = [
    "PROTOCOL_VERSION",
    "QueueServer",
    "RemoteQueueClient",
    "RemoteQueueError",
    "RemoteWorkQueueBackend",
    "format_address",
    "parse_address",
]
