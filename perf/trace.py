"""In-memory span recorder, installed from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` replaces the public
entry points of each layer (class methods and module functions) with timing
wrappers *before* any node is built, and puts the originals back afterwards.
A module function is replaced in every loaded ``repro`` module that holds a
reference to it, because ``from m import f`` copies the binding.

Every wrapper call is one span: name, start, end, parent (the span open on
the same thread when it started) and run id (the ordinal of the root span it
descends from: every operation the benchmark times is one root).  A span's
*self time* is its duration minus the time its child spans cover, so the
self times of all spans under one root add up to the root's duration and
each host second is attributed to exactly one layer.  Self time, call counts
and inclusive time are accumulated for every span; the span records
themselves are kept only for the first ``keep_spans`` spans each thread
starts (a 5000-process run opens about a million), in one flat array per
thread so that a long trace adds no objects for the garbage collector to
walk.  Spans of one thread nest, so parent and run id are not stored: the
parent is the innermost kept span that encloses a span, found when the trace
is written.

Span names are ``<layer>:<entry point>``; the per-layer numbers sum the
spans of one layer.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass
class SpanTotals:
    """Accumulated numbers of one span name."""

    count: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    #: Calls whose result passed the span's ``tally`` predicate.
    tally: int = 0


#: Doubles stored per kept span: name index, start, end.
_RECORD = 3


class _ThreadState:
    """Open-span stack and accumulators of one thread (no sharing, no locks)."""

    def __init__(self, names: int, room: int) -> None:
        #: How many more spans this thread may keep.
        self.room = room
        #: Time covered by child spans, one entry per open span.
        self.child: list[float] = []
        #: Kept spans, ``_RECORD`` doubles each, in start order.
        self.kept = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        # One column per accumulated number, indexed by span-name index.
        self.count = [0] * names
        self.tally = [0] * names
        self.self_s = [0.0] * names
        self.total_s = [0.0] * names


class Tracer:
    """Span recorder plus the patch list that installs and removes it."""

    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        tally: Callable[[Any], bool] | None = None,
        around: Callable[[Callable[..., Any]], Callable[..., Any]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class method or module function) by a span wrapper.

        ``tally`` counts the calls whose result satisfies it; ``around``
        adapts the original first (e.g. to hand it a byte-counting socket).
        """
        original = owner.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        if hasattr(original, "__perf_span__"):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        wrapper = self._wrapper(original if around is None else around(original), name, tally)
        functools.update_wrapper(wrapper, original)
        wrapper.__perf_span__ = name  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_function(self, function: Callable[..., Any], name: str, **options: Any) -> None:
        """Wrap a module function wherever a loaded ``repro`` module binds it."""
        bindings = [
            (module, attr)
            for module_name, module in sorted(sys.modules.items())
            if module is not None and (module_name == "repro" or module_name.startswith("repro."))
            for attr, value in list(vars(module).items())
            if value is function
        ]
        if not bindings:
            raise LookupError(f"no loaded repro module binds {function!r}")
        first_module, first_attr = bindings[0]
        self.wrap(first_module, first_attr, name, **options)
        wrapper = getattr(first_module, first_attr)
        for module, attr in bindings[1:]:
            setattr(module, attr, wrapper)
            self._patches.append((module, attr, function))

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_index(self, name: str) -> int:
        with self._lock:
            index = self._index.get(name)
            if index is None:
                index = self._index[name] = len(self.names)
                self.names.append(name)
                for state in self._states:  # threads that recorded before this wrap
                    state.count.append(0)
                    state.tally.append(0)
                    state.self_s.append(0.0)
                    state.total_s.append(0.0)
            return index

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = self._local.state = _ThreadState(len(self.names), self.keep_spans)
                self._states.append(state)
        return state

    def count(self, counter: str, amount: float = 1) -> None:
        """Add to a free-form counter recorded at a span boundary (e.g. bytes)."""
        self._state().counters[counter] += amount

    def _wrapper(
        self, function: Callable[..., Any], name: str, tally: Callable[[Any], bool] | None
    ) -> Callable[..., Any]:
        index = self._name_index(name)
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            child = state.child
            child.append(0.0)
            position = -1
            if state.room:
                state.room -= 1
                kept = state.kept
                position = len(kept)
                kept.extend((index, 0.0, 0.0))
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                covered = child.pop()
                state.count[index] += 1
                state.self_s[index] += duration - covered
                state.total_s[index] += duration
                if child:
                    child[-1] += duration
                if position >= 0:
                    kept[position + 1] = start
                    kept[position + 2] = end
            if tally is not None and tally(result):
                state.tally[index] += 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, SpanTotals]:
        """Per-span-name numbers summed over every thread that recorded."""
        with self._lock:
            states = list(self._states)
            names = list(self.names)
        merged = {name: SpanTotals() for name in names}
        for state in states:
            columns = zip(names, state.count, state.self_s, state.total_s, state.tally, strict=False)
            for name, count, self_s, total_s, tally in columns:
                totals = merged[name]
                totals.count += count
                totals.self_s += self_s
                totals.total_s += total_s
                totals.tally += tally
        return merged

    def counters(self) -> dict[str, float]:
        merged: defaultdict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for counter, amount in list(state.counters.items()):
                merged[counter] += amount
        return dict(merged)

    def spans_started(self) -> int:
        return sum(totals.count for totals in self.totals().values())

    def kept_spans(self) -> list[dict[str, Any]]:
        """The kept spans with ids and parents, threads one after another.

        Within a thread the records are in start order and properly nested,
        so a stack of the still-open spans yields each span's parent.
        """
        with self._lock:
            states = list(self._states)
            names = list(self.names)
        spans: list[dict[str, Any]] = []
        runs = 0
        for state in states:
            kept = state.kept
            open_spans: list[dict[str, Any]] = []
            for position in range(0, len(kept), _RECORD):
                index, start, end = kept[position : position + _RECORD]
                if end == 0.0:
                    continue  # still open (or cut short by a timeout) when read
                while open_spans and open_spans[-1]["end"] <= start:
                    open_spans.pop()
                if not open_spans:
                    runs += 1
                span = {
                    "id": len(spans),
                    "parent": open_spans[-1]["id"] if open_spans else -1,
                    "name": names[int(index)],
                    "run": runs - 1,
                    "start": start,
                    "end": end,
                }
                spans.append(span)
                open_spans.append(span)
        return spans

    def write_jsonl(self, path: Path) -> int:
        """Write the kept spans after one header line; return how many."""
        spans = self.kept_spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            header = {
                "kind": "header",
                "spans_started": self.spans_started(),
                "spans_kept": len(spans),
            }
            out.write(json.dumps(header) + "\n")
            for span in spans:
                out.write(json.dumps(span) + "\n")
        return len(spans)


def layer_of(span_name: str) -> str:
    return span_name.partition(":")[0]


def layer_table(totals: dict[str, SpanTotals]) -> str:
    """The per-layer table: one row per span, layers grouped, self time first."""
    whole = sum(entry.self_s for entry in totals.values()) or 1.0
    rows = sorted(totals.items(), key=lambda item: (layer_of(item[0]), -item[1].self_s))
    lines = [f"{'span':44} {'calls':>10} {'self_s':>10} {'share':>7} {'total_s':>10}"]
    for name, entry in rows:
        if entry.count:
            lines.append(
                f"{name:44} {entry.count:>10} {entry.self_s:>10.4f} "
                f"{entry.self_s / whole:>7.1%} {entry.total_s:>10.4f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the standard wrap set: one entry per layer boundary
# ----------------------------------------------------------------------
class _CountingSocket:
    """Stands in for a socket inside ``read_frame``/``write_frame`` to count bytes."""

    __slots__ = ("_sock", "moved")

    def __init__(self, sock: Any) -> None:
        self._sock = sock
        self.moved = 0

    def sendall(self, data: bytes) -> None:
        self.moved += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self.moved += len(chunk)
        return chunk


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a run passes through.

    Call before any node, runtime or backend object is built.  Coroutines
    and generators are left alone: a span around their *creation* would
    time nothing.
    """
    import repro.experiments  # noqa: F401 - load every module that binds a wrapped function
    import repro.experiments.worker  # noqa: F401
    import repro.runtime.harness  # noqa: F401
    from repro.analysis import harness
    from repro.core.discovery import DiscoveryState
    from repro.core.locators import CoreLocator, SinkLocator
    from repro.core.node import ConsensusNode
    from repro.crypto import aggregate
    from repro.crypto.signatures import KeyRegistry, SigningKey
    from repro.experiments.backends import transport
    from repro.experiments.lake import ResultStore
    from repro.experiments.runner import SuiteRunner
    from repro.experiments.scenario import GraphSpec, Scenario
    from repro.graphs import components, connectivity, sink_search
    from repro.pbft.replica import SingleShotPbft
    from repro.runtime import codec
    from repro.runtime import harness as live_harness
    from repro.runtime.asyncio_runtime import AsyncioRuntime
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.process import Process
    from repro.workloads import builders

    def counting(counter: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def around(function: Callable[..., Any]) -> Callable[..., Any]:
            def call(sock: Any, *args: Any, **kwargs: Any) -> Any:
                proxy = _CountingSocket(sock)
                try:
                    return function(proxy, *args, **kwargs)
                finally:
                    tracer.count(counter, proxy.moved)

            return call

        return around

    # Roots: one per kind of operation the workloads time.
    tracer.wrap_function(harness.run_consensus, "analysis.harness:run_consensus")
    tracer.wrap_function(live_harness.run_live_consensus, "runtime.harness:run_live_consensus")
    tracer.wrap(SuiteRunner, "run", "experiments.runner:run")

    tracer.wrap(Simulator, "run", "sim.engine:run")
    tracer.wrap(Network, "send", "sim.network:send")
    tracer.wrap(Network, "broadcast", "sim.network:broadcast")

    tracer.wrap(Process, "receive", "core.node:receive")
    tracer.wrap(Process, "send_to_all", "core.node:send_to_all")
    tracer.wrap(ConsensusNode, "propose", "core.node:propose")
    tracer.wrap(DiscoveryState, "absorb", "core.discovery:absorb", tally=bool)

    tracer.wrap(SinkLocator, "locate", "graphs:locate")
    tracer.wrap(CoreLocator, "locate", "graphs:locate")
    tracer.wrap_function(sink_search.find_sink_with_fault_threshold, "graphs.sink_search:find")
    tracer.wrap_function(sink_search.find_core_candidate, "graphs.sink_search:find")
    tracer.wrap_function(
        connectivity.is_k_strongly_connected, "graphs.connectivity:is_k_strongly_connected"
    )
    tracer.wrap_function(components.strongly_connected_components, "graphs.components:scc")

    tracer.wrap(SigningKey, "sign", "crypto:sign")
    tracer.wrap(KeyRegistry, "verify", "crypto:verify")
    tracer.wrap(KeyRegistry, "verify_batch", "crypto:verify_batch")
    tracer.wrap_function(aggregate.aggregate_signatures, "crypto:aggregate")
    tracer.wrap_function(aggregate.verify_aggregate, "crypto:verify_aggregate")

    tracer.wrap(SingleShotPbft, "start", "pbft:start")
    tracer.wrap(SingleShotPbft, "handle", "pbft:handle")
    tracer.wrap(SingleShotPbft, "handle_view_change", "pbft:handle_view_change")
    tracer.wrap(SingleShotPbft, "handle_new_view", "pbft:handle_new_view")

    tracer.wrap_function(harness.build_protocol_nodes, "analysis.harness:build")
    tracer.wrap_function(harness.collect_run_result, "analysis.harness:collect")
    tracer.wrap_function(builders.scenario_run_config, "workloads.builders:config")
    tracer.wrap(GraphSpec, "build", "graphs.generators:build")

    tracer.wrap(Scenario, "cell_digest", "experiments.scenario:digest")
    tracer.wrap_function(
        transport.write_frame,
        "experiments.transport:write_frame",
        around=counting("experiments.transport.bytes"),
    )
    tracer.wrap_function(
        transport.read_frame,
        "experiments.transport:read_frame",
        tally=lambda frame: frame is not None,
        around=counting("experiments.transport.bytes"),
    )
    tracer.wrap(ResultStore, "put", "experiments.lake:put")
    tracer.wrap(ResultStore, "get", "experiments.lake:get", tally=lambda hit: hit is not None)

    tracer.wrap_function(codec.encode_frame, "runtime.codec:encode")
    tracer.wrap_function(codec.decode_frame, "runtime.codec:decode")
    tracer.wrap(AsyncioRuntime, "send", "runtime.asyncio:send")
