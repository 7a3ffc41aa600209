"""Sink and Core locators: Algorithms 2 and 4 as incremental searches.

Both algorithms are "wait until the current knowledge view contains a
witness" loops; the locators below encapsulate the witness search plus an
incremental-delta cache so the search only re-runs when the discovery state
changed *in a way the predicates can observe*:

* :class:`SinkLocator` -- Algorithm 2: requires the fault threshold ``f``
  and returns the sink ``S1 ∪ S2`` once ``isSinkGdi(f, S1, S2)`` holds.
* :class:`CoreLocator` -- Algorithm 4: no fault threshold; returns the core
  once the view contains a strongest sink with no equally-strong proper
  subset (Theorem 8, as clarified in DESIGN.md, "Core rule"), together with
  the implied fault-threshold estimate ``f_Gdi``.

Three layers make the locators cheap on large graphs:

1. **Witness pinning** — once found, a witness is returned forever without
   looking at the view again (the algorithms return at the first witness).
2. **Delta gating** — :meth:`DiscoveryState.absorb` classifies each change;
   a delta that only adds known processes outside every stored PD cannot
   change any search result (such processes have no in-edges in the
   received-PD graph), so the locators skip the search entirely while
   ``discovery.analysis_version`` is unchanged.  The sink locator further
   skips while fewer than ``2f + 1`` PDs were received: property P1 needs
   ``|S1| >= 2f + 1`` and every candidate ``S1`` is drawn from the received
   processes, so no witness can exist yet.
3. **Process-local memoisation** — searches that do run are answered from
   the process-local :class:`~repro.graphs.search_memo.SinkSearchMemo`
   keyed by the exact view content (:meth:`DiscoveryState.view_key`): in a
   run, all correct nodes converge towards the same received-PD view, so
   most searches are exact repeats of a search some other node already ran.
   The same store memoises the sub-searches (connectivity checks, subsink
   scans) of the searches that do miss.

None of the layers changes any result: the searches are pure functions of
the view and the threshold, and every skip is backed by the
invisibility argument above.
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
    _last_analysis_version: int = field(init=False, default=-1)
    _witness: SinkWitness | None = field(init=False, default=None)
    #: Searches consulted (memo hits and misses alike): deterministic per
    #: run, unlike the hit/miss split, which depends on what the process
    #: computed earlier.
    searches: int = field(init=False, default=0)
    #: Locate calls short-circuited without consulting the memo (unchanged
    #: analysis version, too few received PDs, or a pinned witness).
    skips: int = field(init=False, default=0)

    def locate(self, discovery: DiscoveryState) -> SinkWitness | None:
        """Return the sink witness if the current view admits one.

        Skips the search when the view did not change visibly since the
        last call, when fewer than ``2f + 1`` PDs were received (P1 makes a
        witness impossible), or when a witness was already found.
        """
        if self._witness is not None:
            self.skips += 1
            return self._witness
        if discovery.analysis_version == self._last_analysis_version:
            self.skips += 1
            return None
        self._last_analysis_version = discovery.analysis_version
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

    _last_analysis_version: int = field(init=False, default=-1)
    _core: CoreWitness | None = field(init=False, default=None)
    searches: int = field(init=False, default=0)
    skips: int = field(init=False, default=0)

    def locate(self, discovery: DiscoveryState) -> CoreWitness | None:
        """Return the core witness if the current view admits one."""
        if self._core is not None:
            self.skips += 1
            return self._core
        if discovery.analysis_version == self._last_analysis_version:
            self.skips += 1
            return None
        self._last_analysis_version = discovery.analysis_version
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
