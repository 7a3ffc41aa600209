"""Sink and Core locators: Algorithms 2 and 4 as incremental searches.

Both algorithms are "wait until the current knowledge view contains a
witness" loops; the locators below encapsulate the witness search plus the
shortcuts that keep it from re-running work:

* :class:`SinkLocator` -- Algorithm 2: requires the fault threshold ``f``
  and returns the sink ``S1 ∪ S2`` once ``isSinkGdi(f, S1, S2)`` holds.
* :class:`CoreLocator` -- Algorithm 4: no fault threshold; returns the core
  once the view contains a strongest sink with no equally-strong proper
  subset (Theorem 8, as clarified in DESIGN.md, "Core rule"), together with
  the implied fault-threshold estimate ``f_Gdi``.

Two layers make the locators cheap on large graphs:

1. **Witness pinning** — once found, a witness is returned forever without
   looking at the view again (the algorithms return at the first witness).
   The sink locator also skips while fewer than ``2f + 1`` PDs were
   received: property P1 needs ``|S1| >= 2f + 1`` and every candidate
   ``S1`` is drawn from the received processes, so no witness can exist
   yet.  The node calls ``locate`` at its proposal and after each
   ``absorb`` that changed the view.
2. **Process-local memoisation** — searches that do run are answered from
   the process-local :class:`~repro.graphs.search_memo.SinkSearchMemo`
   keyed by the exact view content (:meth:`DiscoveryState.view_key`): in a
   run, all correct nodes converge towards the same received-PD view, so
   most searches are exact repeats of a search some other node already ran.
   The same store memoises the sub-searches (connectivity checks, subsink
   scans) of the searches that do miss.

Neither layer changes any result: the searches are pure functions of
the view and the threshold, and the ``2f + 1`` skip is backed by P1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.discovery import DiscoveryState
from repro.graphs.knowledge_graph import ProcessId
from repro.graphs.predicates import SinkWitness
from repro.graphs.search_memo import SinkSearchMemo, sink_search_memo
from repro.graphs.sink_search import (
    CoreWitness,
    find_core_candidate,
    find_sink_with_fault_threshold,
)


@dataclass
class SinkLocator:
    """The Sink algorithm (Algorithm 2): locate the sink given ``f``."""

    fault_threshold: int
    _witness: SinkWitness | None = field(init=False, default=None)
    #: Searches consulted (memo hits and misses alike): deterministic per
    #: run, unlike the hit/miss split, which depends on what the process
    #: computed earlier.
    searches: int = field(init=False, default=0)
    #: Locate calls short-circuited without consulting the memo (too few
    #: received PDs, or a pinned witness).
    skips: int = field(init=False, default=0)

    def locate(self, discovery: DiscoveryState) -> SinkWitness | None:
        """Return the sink witness if the current view admits one.

        Skips the search when fewer than ``2f + 1`` PDs were received (P1
        makes a witness impossible), or when a witness was already found.
        """
        if self._witness is not None:
            self.skips += 1
            return self._witness
        if len(discovery.records) < 2 * self.fault_threshold + 1:
            self.skips += 1
            return None
        self.searches += 1
        key = ("sink", self.fault_threshold, discovery.view_key())
        memo = sink_search_memo()
        cached = memo.lookup(key)
        if cached is SinkSearchMemo._MISS:
            cached = find_sink_with_fault_threshold(discovery.view(), self.fault_threshold)
            memo.store(key, cached)
        self._witness = cached
        return cached

    @property
    def result(self) -> SinkWitness | None:
        return self._witness

    def members(self) -> frozenset[ProcessId] | None:
        """The located sink (``S1 ∪ S2``), or ``None`` when not yet located."""
        return None if self._witness is None else self._witness.members

    def estimated_fault_threshold(self) -> int | None:
        """The fault threshold used (the provided ``f``), once located."""
        return None if self._witness is None else self.fault_threshold


@dataclass
class CoreLocator:
    """The Core algorithm (Algorithm 4): locate the core without knowing ``f``."""

    _core: CoreWitness | None = field(init=False, default=None)
    searches: int = field(init=False, default=0)
    skips: int = field(init=False, default=0)

    def locate(self, discovery: DiscoveryState) -> CoreWitness | None:
        """Return the core witness if the current view admits one."""
        if self._core is not None:
            self.skips += 1
            return self._core
        self.searches += 1
        key = ("core", discovery.view_key())
        memo = sink_search_memo()
        cached = memo.lookup(key)
        if cached is SinkSearchMemo._MISS:
            cached = find_core_candidate(discovery.view())
            memo.store(key, cached)
        self._core = cached
        return cached

    @property
    def result(self) -> CoreWitness | None:
        return self._core

    def members(self) -> frozenset[ProcessId] | None:
        """The located core, or ``None`` when not yet located."""
        return None if self._core is None else self._core.members

    def estimated_fault_threshold(self) -> int | None:
        """The fault-threshold estimate ``f_Gdi(core)`` once located."""
        return None if self._core is None else self._core.estimated_f


__all__ = ["SinkLocator", "CoreLocator"]
