"""The process-local sink-search memo, shared across search granularities.

One bounded store memoises *whole* sink/core searches across discovery
states with identical view content (:mod:`repro.core.locators`) and the two
expensive *sub-searches* a full search is composed of:

* the ``(f+1)``-strong-connectivity checks of ``isSinkGdi``
  (:meth:`repro.graphs.view_index.ViewIndex._is_k_connected`), and
* the stronger-proper-subsink scans of the core search
  (:func:`repro.graphs.sink_search.has_stronger_subsink`) --

keyed by the *content* of exactly the inputs each depends on (the member
ids and the view restricted to them,
:meth:`~repro.graphs.view_index.ViewIndex.content`), never by object
identity, bit position or the full view.  Content keys make every hit an
exact replay of a previous computation, so memoisation can never change a
result -- only skip recomputing it.

The memo lives here (in the dependency-free ``graphs`` layer) so both the
search modules and :mod:`repro.core.locators` can share one store without an
import cycle; every caller reaches it through :func:`sink_search_memo`.

Every key is a tuple whose first element names the search kind (``"sink"``,
``"core"``, ``"conn"``, ``"subsink"``); :meth:`SinkSearchMemo.stats` breaks
hits and misses down by kind so benchmarks can report where the reuse
actually happens.  Hits against misses of one cold pass of each
``perf/run.py`` workload at seed 301 (exact for a fixed seed):

* ``cup_large_partial``: ``sink`` 2 / 9,570 -- one large view that keeps
  changing, so whole searches rarely repeat;
* ``cupft_core_search``: ``core`` 321 / 4,420;
* ``sweep_backends``, serial pass: ``sink`` 882 / 368, ``core`` 1,352 / 254;
* ``live_sockets``: ``core`` 1,056 / 24.

Each kind stays because answering its lookups as misses costs a workload
well over 5% of CPU time (2-CPU Linux box): without ``sink`` and ``core``
the serial sweep pass goes from 0.86 to 1.13 s (median of 9), and without
``conn`` or without ``subsink`` one ``cupft_core_search`` repetition goes
from 1.7 to 4.5 or 4.2 s (median of 3).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

#: Capacity of the process-local memo; the oldest entry goes first.
SINK_SEARCH_MEMO_ENTRIES = 4096


class SinkSearchMemo:
    """Bounded process-local memo of sink/core search (and sub-search) results.

    Keys embed the full content the memoised computation depends on, so a
    hit is always an exact repeat of a previous computation (including
    ``None``/negative results — by far the most frequent case while
    discovery is converging).  Eviction is FIFO: keys are reached through
    monotonically growing discovery states, so old views never come back.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hits_by_kind: Counter = Counter()
        self.misses_by_kind: Counter = Counter()

    _MISS = object()

    def lookup(self, key: tuple) -> Any:
        """Return the cached result or :data:`SinkSearchMemo._MISS`."""
        result = self._entries.get(key, self._MISS)
        if result is self._MISS:
            self.misses += 1
            self.misses_by_kind[key[0]] += 1
        else:
            self.hits += 1
            self.hits_by_kind[key[0]] += 1
        return result

    def store(self, key: tuple, value: Any) -> None:
        while len(self._entries) >= SINK_SEARCH_MEMO_ENTRIES:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hits_by_kind": dict(self.hits_by_kind),
            "misses_by_kind": dict(self.misses_by_kind),
        }


#: The process-local memo shared by every locator and sub-search in this process.
_PROCESS_MEMO = SinkSearchMemo()


def sink_search_memo() -> SinkSearchMemo:
    """The process-local search memo (exposed for stats and tests)."""
    return _PROCESS_MEMO


__all__ = ["SINK_SEARCH_MEMO_ENTRIES", "SinkSearchMemo", "sink_search_memo"]
