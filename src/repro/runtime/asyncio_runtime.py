"""Live execution of the protocol stack over real TCP sockets.

An :class:`AsyncioRuntime` implements the :class:`~repro.runtime.base.Runtime`
seam on an asyncio event loop: every registered process gets its own TCP
server on the loopback interface, and every message crosses a real socket as
one of the work-queue's length-prefixed JSON frames
(:mod:`repro.experiments.backends.transport`), with payloads serialised by
the lossless tagged codec (:mod:`repro.runtime.codec`).  The protocol
handlers run byte-for-byte the same code as under the simulator — only the
clock and the transport differ.

Time is *scaled wall clock*: ``time_scale`` is the number of wall seconds
per protocol time unit, so a PBFT view timeout of 20 units fires after
``20 * time_scale`` real seconds and ``Runtime.now`` reports units since
:meth:`AsyncioRuntime.start`.  Real socket latency stands in for the
synchrony model's delay draws (loopback delivery is far below one unit at
any reasonable scale, consistent with the post-GST contract); scripted
:class:`~repro.adversary.schedule.NetworkSchedule` rules are applied at the
send gate exactly as the simulated network applies them — delays via timer
callbacks, partitions/withholds via per-link drop decisions, crash rules via
scheduled :meth:`crash` calls.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.adversary.schedule import CrashRule, NetworkSchedule
from repro.experiments.backends.transport import (
    TransportError,
    read_frame_async,
    write_frame_async,
)
from repro.graphs.knowledge_graph import ProcessId
from repro.runtime.base import Runtime
from repro.runtime.codec import PayloadCodecError, decode_frame, encode_frame
from repro.sim.messages import Envelope, payload_kind
from repro.sim.network import NetworkRule, _Withhold
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SynchronyModel
    from repro.sim.process import Process

#: Sentinel queued on a link to shut its writer task down.
_CLOSE = object()


@dataclass
class LiveRunStats:
    """Counters specific to live (socket) execution of a run."""

    #: Frames handed to the transport (after the send-gate rules).
    messages_sent: int = 0
    #: Frames delivered to a process's handler.
    messages_received: int = 0
    #: Messages dropped because a link never came up (after retries).
    messages_lost: int = 0
    #: Undecodable frames discarded at the receiving side.
    codec_errors: int = 0
    #: Successful TCP connects, and re-connects after a link failure.
    connections: int = 0
    reconnects: int = 0
    #: One-shot runtime timers that actually fired (not cancelled).
    timer_fires: int = 0
    #: Wall-clock seconds from start to the last correct decision.
    decide_wall_seconds: float | None = None
    #: Wall-clock seconds the whole run was live.
    wall_seconds: float = 0.0

    def summary_entries(self) -> dict[str, Any]:
        """The ``live_*`` keys merged into :meth:`RunResult.summary`."""
        return {
            "live_messages_sent": self.messages_sent,
            "live_messages_received": self.messages_received,
            "live_messages_lost": self.messages_lost,
            "live_reconnects": self.reconnects,
            "live_timer_fires": self.timer_fires,
            "live_decide_wall_seconds": self.decide_wall_seconds,
            "live_wall_seconds": self.wall_seconds,
        }


class _LiveTimer:
    """One-shot timer over ``loop.call_later``, satisfying ``TimerHandle``."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


@dataclass
class _Link:
    """Outbound state for one (sender, receiver) direction.

    A single writer task drains the queue, so frames keep FIFO order per
    link — the live counterpart of the reliable ordered channel the
    simulated network provides.
    """

    sender: ProcessId
    receiver: ProcessId
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    task: asyncio.Task | None = None
    writer: asyncio.StreamWriter | None = None
    ever_connected: bool = False


class AsyncioRuntime(Runtime):
    """Runtime where each process serves and dials real TCP sockets."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        time_scale: float = 0.02,
        trace: SimulationTrace | None = None,
        faulty: frozenset[ProcessId] = frozenset(),
        connect_attempts: int = 20,
        reconnect_delay: float = 0.05,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive (wall seconds per time unit)")
        self.host = host
        self.time_scale = time_scale
        self.trace = trace if trace is not None else SimulationTrace()
        self.faulty = frozenset(faulty)
        self.connect_attempts = connect_attempts
        self.reconnect_delay = reconnect_delay
        self.stats = LiveRunStats()
        #: Unexpected handler exceptions, surfaced by the harness after the run.
        self.errors: list[BaseException] = []
        self._processes: dict[ProcessId, "Process"] = {}
        self._ports: dict[ProcessId, int] = {}
        self._servers: list[asyncio.Server] = []
        self._links: dict[tuple[ProcessId, ProcessId], _Link] = {}
        self._rules: list[NetworkRule] = []
        self._crashed: set[ProcessId] = set()
        self._delayed: set[asyncio.TimerHandle] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Protocol time units elapsed since :meth:`start` (0.0 before)."""
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    def register(self, process: "Process") -> None:
        if self._loop is not None:
            raise RuntimeError("register every process before AsyncioRuntime.start()")
        if process.process_id in self._processes:
            raise ValueError(f"process {process.process_id!r} already registered")
        self._processes[process.process_id] = process

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> _LiveTimer:
        del label  # labels are a debugging aid; call_later has no use for them
        loop = self._require_loop()
        timer: _LiveTimer

        def fire() -> None:
            if timer.cancelled or self._closed:
                return
            self.stats.timer_fires += 1
            self._guarded(callback)

        timer = _LiveTimer(loop.call_later(max(delay, 0.0) * self.time_scale, fire))
        return timer

    def crash(self, process_id: ProcessId) -> None:
        """Crash semantics matching the simulated network: silence both ways."""
        self._crashed.add(process_id)

    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            payload=payload,
            sent_at=self.now,
            kind=payload_kind(payload),
        )
        self.trace.on_send(envelope)

        if self._closed:
            self.trace.on_drop(envelope, "runtime stopped")
            return
        if sender in self._crashed:
            self.trace.on_drop(envelope, "sender crashed")
            return
        if receiver not in self._processes:
            self.trace.on_drop(envelope, "unknown receiver")
            return

        # Same first-match-wins rule gate as Network.send: scripted faults
        # decide before the transport sees the message.
        for rule in self._rules:
            decision = rule.decide(envelope, now=self.now)
            if decision is None:
                continue
            if isinstance(decision, _Withhold):
                self.trace.on_rule_drop(envelope, rule.name)
                return
            delay = float(decision)
            self.trace.on_rule_delay(envelope, rule.name, delay)
            self._enqueue_later(envelope, delay)
            return
        self._enqueue(envelope)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    @property
    def process_ids(self) -> frozenset[ProcessId]:
        return frozenset(self._processes)

    @property
    def crashed(self) -> frozenset[ProcessId]:
        return frozenset(self._crashed)

    def add_rule(self, rule: NetworkRule) -> None:
        """Install a compiled scheduling rule on the live send gate."""
        self._rules.append(rule)

    def install_schedule(self, schedule: NetworkSchedule, *, model: "SynchronyModel") -> None:
        """Apply a declarative fault schedule to the live transport.

        Validation is the same model-contract check the simulated network
        runs; message rules compile onto the send gate, crash rules become
        runtime timers.  Call after :meth:`start` (crash timers need the
        loop) and before proposing.
        """
        processes = self.process_ids
        schedule.validate(model, processes=processes, faulty=self.faulty)
        for rule in schedule.rules:
            if isinstance(rule, CrashRule):
                self.schedule(
                    max(rule.at - self.now, 0.0),
                    lambda process=rule.process: self.crash(process),
                    label=f"schedule rule {rule.rule_name}",
                )
            else:
                self.add_rule(rule.compile(processes=processes, faulty=self.faulty))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind one TCP server per registered process and start the clock."""
        if self._loop is not None:
            raise RuntimeError("AsyncioRuntime.start() may only be called once")
        loop = asyncio.get_running_loop()
        for process_id in sorted(self._processes, key=repr):

            def handler(
                reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter,
                receiver: ProcessId = process_id,
            ) -> "asyncio.Future[None]":
                return self._serve_connection(receiver, reader, writer)

            server = await asyncio.start_server(handler, self.host, 0)
            self._servers.append(server)
            self._ports[process_id] = server.sockets[0].getsockname()[1]
        self._loop = loop
        self._t0 = loop.time()

    async def shutdown(self) -> None:
        """Tear the transport down: links first, then the servers."""
        self._closed = True
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        link_tasks = []
        for link in self._links.values():
            if link.task is not None:
                link.queue.put_nowait(_CLOSE)
                link_tasks.append(link.task)
        if link_tasks:
            results = await asyncio.gather(*link_tasks, return_exceptions=True)
            for result in results:
                # A writer task that died of anything but our own cancellation
                # is a real bug; surface it through the harness like handler
                # exceptions instead of letting gather() swallow it.
                if isinstance(result, BaseException) and not isinstance(
                    result, asyncio.CancelledError
                ):
                    self.errors.append(result)
        for link in self._links.values():
            if link.writer is not None:
                link.writer.close()
                link.writer = None
        for server in self._servers:
            server.close()
        await asyncio.gather(  # lint: allow[ASYNC-GATHER] best-effort teardown: wait_closed failures carry no protocol signal
            *(server.wait_closed() for server in self._servers), return_exceptions=True
        )
        self.stats.wall_seconds = (
            (self._loop.time() - self._t0) if self._loop is not None else 0.0
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("AsyncioRuntime is not started; timers need the event loop")
        return self._loop

    def _guarded(self, callback: Callable[[], None]) -> None:
        """Run a protocol callback, collecting (not swallowing) its failures.

        A handler exception under the simulator aborts the run loudly; on the
        event loop it would only kill one connection task, so the runtime
        records it and the harness re-raises after the run.
        """
        try:
            callback()
        except Exception as error:  # noqa: BLE001 - surfaced by the harness
            self.errors.append(error)

    def _enqueue_later(self, envelope: Envelope, delay: float) -> None:
        loop = self._require_loop()
        handle: asyncio.TimerHandle

        def release() -> None:
            self._delayed.discard(handle)
            if not self._closed:
                self._enqueue(envelope)

        handle = loop.call_later(max(delay, 0.0) * self.time_scale, release)
        self._delayed.add(handle)

    def _enqueue(self, envelope: Envelope) -> None:
        loop = self._require_loop()
        key = (envelope.sender, envelope.receiver)
        link = self._links.get(key)
        if link is None:
            link = _Link(sender=envelope.sender, receiver=envelope.receiver)
            link.task = loop.create_task(self._run_link(link))
            self._links[key] = link
        self.stats.messages_sent += 1
        link.queue.put_nowait(envelope)

    async def _run_link(self, link: _Link) -> None:
        """Writer task: drain the link queue into its TCP connection."""
        while True:
            item = await link.queue.get()
            if item is _CLOSE:
                return
            envelope: Envelope = item
            frame = encode_frame(envelope.sender, envelope.sent_at, envelope.payload)
            delivered = False
            for _attempt in range(self.connect_attempts):
                try:
                    if link.writer is None:
                        _reader, writer = await asyncio.open_connection(
                            self.host, self._ports[link.receiver]
                        )
                        link.writer = writer
                        self.stats.connections += 1
                        if link.ever_connected:
                            self.stats.reconnects += 1
                        link.ever_connected = True
                    await write_frame_async(link.writer, frame)
                    delivered = True
                    break
                except (ConnectionError, OSError):
                    if link.writer is not None:
                        link.writer.close()
                        link.writer = None
                    if self._closed:
                        break
                    await asyncio.sleep(self.reconnect_delay)
            if not delivered:
                self.stats.messages_lost += 1
                self.trace.on_drop(envelope, "live link failed", self.now)

    async def _serve_connection(
        self,
        receiver: ProcessId,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Server side of a link: decode frames and deliver to the process."""
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None or self._closed:
                    return
                try:
                    sender, sent_at, payload = decode_frame(frame)
                except PayloadCodecError:
                    self.stats.codec_errors += 1
                    continue
                envelope = Envelope(
                    sender=sender,
                    receiver=receiver,
                    payload=payload,
                    sent_at=sent_at,
                    kind=payload_kind(payload),
                )
                # The crashed-receiver gate sits at delivery time, exactly
                # like Network._deliver_one: frames in flight when the
                # process crashes are dropped, not buffered.
                if receiver in self._crashed:
                    self.trace.on_drop(envelope, "receiver crashed", self.now)
                    continue
                self.stats.messages_received += 1
                self.trace.on_deliver(envelope)
                self._guarded(lambda: self._processes[receiver].receive(envelope))
        except (TransportError, ConnectionError, OSError):
            return  # peer died mid-frame; its writer task will reconnect
        finally:
            writer.close()


__all__ = ["AsyncioRuntime", "LiveRunStats"]
