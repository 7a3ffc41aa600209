"""Live execution of the protocol stack over real TCP sockets.

An :class:`AsyncioRuntime` implements the :class:`~repro.runtime.base.Runtime`
seam on an asyncio event loop: every registered process gets its own TCP
server on the loopback interface, and every message crosses a real socket as
one length-prefixed JSON frame (:mod:`repro.runtime.framing`, the format
the work queue's TCP transport uses too), with payloads serialised by
the lossless tagged codec (:mod:`repro.runtime.codec`).  The protocol
handlers run byte-for-byte the same code as under the simulator — only the
clock and the transport differ.

Outbound traffic is keyed by *receiver*: a run opens at most one connection
and one writer task per process, whoever the senders are.  Each frame
carries its sender, taken from the envelope the send gate built, and one
FIFO queue per receiver keeps every ordered pair's frames in send order.
Each time a writer task wakes it encodes everything queued on its link
(once per frame, through the run's :class:`~repro.runtime.codec.EncodeMemo`),
writes it and drains the socket once.

Time is *scaled wall clock*: ``time_scale`` is the number of wall seconds
per protocol time unit, so a PBFT view timeout of 20 units fires after
``20 * time_scale`` real seconds and ``Runtime.now`` reports units since
:meth:`AsyncioRuntime.run` bound the sockets.  Real socket latency stands in
for the synchrony model's delay draws (loopback delivery is far below one
unit at any reasonable scale, consistent with the post-GST contract).
Membership, crashes and scripted
:class:`~repro.adversary.schedule.NetworkSchedule` rules go through the same
:class:`~repro.sim.gate.SendGate` the simulated network uses: a rule's delay
becomes a timer callback, a message no rule claims goes straight onto its
link, and crash rules become scheduled :meth:`crash` calls.
"""

from __future__ import annotations

import asyncio
import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.graphs.knowledge_graph import ProcessId
from repro.runtime.base import Runtime
from repro.runtime.codec import EncodeMemo, PayloadCodecError, decode_frame, encode_frame
from repro.runtime.framing import TransportError, pack_frame, read_frame_async
from repro.sim.gate import SendGate, invalid_delay
from repro.sim.messages import Envelope, payload_kind
from repro.sim.synchrony import PartialSynchronyModel, SynchronyModel
from repro.sim.tracing import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process

#: Tries per batch to (re)connect a link and write it, and the wall-clock
#: pause between tries, before each of its frames is counted as lost.
_CONNECT_ATTEMPTS = 20
_RECONNECT_DELAY = 0.05


class LiveRunError(RuntimeError):
    """A protocol handler raised while running on the live runtime."""


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
    """Outbound state for every message addressed to one receiver.

    A single writer task drains ``pending`` in order, so each ordered pair's
    frames keep FIFO order — the live counterpart of the reliable ordered
    channel the simulated network provides.
    """

    receiver: ProcessId
    pending: list[Envelope] = field(default_factory=list)
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None
    writer: asyncio.StreamWriter | None = None
    ever_connected: bool = False


class AsyncioRuntime(Runtime):
    """Runtime where each process serves and dials real TCP sockets."""

    def __init__(
        self,
        *,
        max_time: float,
        host: str = "127.0.0.1",
        time_scale: float = 0.02,
        synchrony: SynchronyModel | None = None,
        faulty: frozenset[ProcessId] = frozenset(),
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive (wall seconds per time unit)")
        self.max_time = max_time
        self.host = host
        self.time_scale = time_scale
        self.model = synchrony if synchrony is not None else PartialSynchronyModel()
        self.trace = SimulationTrace()
        self.faulty = frozenset(faulty)
        self.stats = LiveRunStats()
        #: Unexpected handler exceptions, raised as LiveRunError when the run ends.
        self.errors: list[BaseException] = []
        self._gate = SendGate(self.trace)
        self._ports: dict[ProcessId, int] = {}
        self._servers: list[asyncio.Server] = []
        self._links: dict[ProcessId, _Link] = {}
        self._memo = EncodeMemo()
        self._delayed: set[asyncio.TimerHandle] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float = 0.0
        self._closed = False
        self._stopped_at: float | None = None
        self._until: Callable[[], bool] = lambda: False
        self._done = asyncio.Event()

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Protocol time units since :meth:`run` started its clock (0.0 before, frozen after)."""
        if self._loop is None:
            return 0.0
        end = self._loop.time() if self._stopped_at is None else self._stopped_at
        return (end - self._t0) / self.time_scale

    def register(self, process: "Process") -> None:
        if self._loop is not None:
            raise RuntimeError("register every process before AsyncioRuntime.run()")
        super().register(process)

    def schedule(self, delay: float, callback: Callable[[], None]) -> _LiveTimer:
        if not delay >= 0.0:  # also catches NaN, which ``delay < 0`` lets through
            raise invalid_delay(delay)
        loop = self._require_loop()
        timer: _LiveTimer

        def fire() -> None:
            if timer.cancelled or self._closed:
                return
            self.stats.timer_fires += 1
            self._guarded(callback)

        timer = _LiveTimer(loop.call_later(delay * self.time_scale, fire))
        return timer

    def send(self, sender: ProcessId, receiver: ProcessId, payload: Any) -> None:
        # The same send gate as Network.send; real sockets stand in for the
        # synchrony model, so a message no rule delays goes out at once.
        admitted = self._gate.admit(sender, receiver, payload, self.now)
        if admitted is None:
            return
        envelope, delay = admitted
        if delay is None:
            self._enqueue(envelope)
        else:
            self._enqueue_later(envelope, delay)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self, start: Callable[[], None], until: Callable[[], bool]) -> None:
        asyncio.run(self._run(start, until))
        if self.errors:
            raise LiveRunError(
                f"{len(self.errors)} protocol handler failure(s) on the live runtime"
            ) from self.errors[0]

    async def _run(self, start: Callable[[], None], until: Callable[[], bool]) -> None:
        if self._loop is not None:
            raise RuntimeError("AsyncioRuntime.run() may only be called once")
        self._until = until
        try:
            # One TCP server per registered process, then the clock starts.
            for process_id in sorted(self._gate.processes, key=repr):
                serve = functools.partial(self._serve_connection, process_id)
                server = await asyncio.start_server(serve, self.host, 0)
                self._servers.append(server)
                self._ports[process_id] = server.sockets[0].getsockname()[1]
            self._loop = asyncio.get_running_loop()
            self._t0 = self._loop.time()
            start()
            if not until():
                try:
                    await asyncio.wait_for(
                        self._done.wait(), timeout=self.max_time * self.time_scale
                    )
                except asyncio.TimeoutError:
                    pass  # reported as termination=False, same as a sim horizon hit
        finally:
            await self._shutdown()

    def result_fields(self) -> dict[str, Any]:
        return {
            "virtual_duration": self.now,
            "events_processed": self.stats.messages_received + self.stats.timer_fires,
            "runtime_name": "live",
            "live": self.stats,
        }

    async def _shutdown(self) -> None:
        """Tear the transport down: links first, then the servers."""
        self._closed = True
        if self._loop is not None:
            self._stopped_at = self._loop.time()
        for handle in self._delayed:
            handle.cancel()
        self._delayed.clear()
        link_tasks = []
        for link in self._links.values():
            if link.task is not None:
                link.wakeup.set()
                link_tasks.append(link.task)
        if link_tasks:
            results = await asyncio.gather(*link_tasks, return_exceptions=True)
            for result in results:
                # A writer task that died of anything but our own cancellation
                # is a real bug; surface it through run() like handler
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
        # Best-effort teardown: wait_closed failures carry no protocol signal,
        # so the exceptions gather() collects are dropped on purpose.
        await asyncio.gather(
            *(server.wait_closed() for server in self._servers), return_exceptions=True
        )
        if self._loop is not None:
            self.stats.wall_seconds = self._loop.time() - self._t0
        decided_at = [
            time
            for process, (_value, time) in self.trace.decisions.items()
            if process not in self.faulty
        ]
        if decided_at:
            self.stats.decide_wall_seconds = max(decided_at) * self.time_scale

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
        records it and :meth:`run` raises :class:`LiveRunError` at the end.
        Every protocol step passes through here, so the stop predicate is
        evaluated here.
        """
        try:
            callback()
        except Exception as error:  # noqa: BLE001 - raised by run()
            self.errors.append(error)
        if self._until():
            self._done.set()

    def _enqueue_later(self, envelope: Envelope, delay: float) -> None:
        loop = self._require_loop()
        handle: asyncio.TimerHandle

        def release() -> None:
            self._delayed.discard(handle)
            if not self._closed:
                self._enqueue(envelope)

        handle = loop.call_later(delay * self.time_scale, release)
        self._delayed.add(handle)

    def _enqueue(self, envelope: Envelope) -> None:
        link = self._links.get(envelope.receiver)
        if link is None:
            link = _Link(receiver=envelope.receiver)
            link.task = self._require_loop().create_task(self._run_link(link))
            self._links[envelope.receiver] = link
        self.stats.messages_sent += 1
        link.pending.append(envelope)
        link.wakeup.set()

    async def _run_link(self, link: _Link) -> None:
        """Writer task: on each wakeup, write everything queued on the link."""
        while True:
            await link.wakeup.wait()
            link.wakeup.clear()
            batch, link.pending = link.pending, []
            if batch:
                await self._write_batch(link, batch)
            if self._closed:
                return

    async def _write_batch(self, link: _Link, batch: list[Envelope]) -> None:
        """Encode each frame once, then (re)connect and write until one drain succeeds."""
        data = b"".join(
            [
                pack_frame(encode_frame(envelope.sender, envelope.sent_at, envelope.payload, self._memo))
                for envelope in batch
            ]
        )
        for _attempt in range(_CONNECT_ATTEMPTS):
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
                link.writer.write(data)
                await link.writer.drain()
                return
            except (ConnectionError, OSError):
                if link.writer is not None:
                    link.writer.close()
                    link.writer = None
                if self._closed:
                    break
                await asyncio.sleep(_RECONNECT_DELAY)
        for envelope in batch:
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
                # The crashed-receiver check sits at delivery time, exactly
                # like Network._deliver_one: frames in flight when the
                # process crashes are dropped, not buffered.
                if receiver in self._gate.crashed:
                    self._gate.drop_at_crashed_receiver(envelope, self.now)
                    continue
                self.stats.messages_received += 1
                self.trace.on_deliver(envelope)
                self._guarded(lambda: self._gate.processes[receiver].receive(envelope))
        except (TransportError, ConnectionError, OSError):
            return  # peer died mid-frame; its writer task will reconnect
        finally:
            writer.close()


__all__ = ["AsyncioRuntime", "LiveRunError", "LiveRunStats"]
