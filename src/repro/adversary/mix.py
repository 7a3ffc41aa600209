"""Declarative per-process adversary mixes.

A :class:`~repro.adversary.spec.FaultSpec` describes *one* faulty process.
An :class:`AdversaryMix` lifts the fault assignment to a first-class,
declarative axis: an ordered list of :class:`MixEntry` roles — a behaviour
name, how many faulty processes play it (an exact count or ``"rest"``),
optional parameter overrides and an optional placement *target*
(``inside_core`` / ``outside_core`` relative to the scenario's expected
sink/core, or an explicit id set) — plus a deterministic, seed-derived
placement of those roles onto the faulty set.

The mix is plain data: it is hashable, picklable and JSON round-trippable
(:meth:`AdversaryMix.to_dict` / :meth:`AdversaryMix.from_dict`), so it
crosses the work-queue job codec losslessly alongside the rest of a
:class:`~repro.experiments.scenario.Scenario`.  The workload builders turn
each placed entry into a ``FaultSpec`` inside the executing process
(:func:`repro.workloads.builders.fault_assignment`).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.adversary.nodes import behaviour_params
from repro.core.seeding import derive_seed
from repro.graphs.knowledge_graph import ProcessId

#: Sentinel count assigning an entry to every faulty process not claimed by
#: a fixed-count entry.
REST = "rest"

#: Symbolic placement targets: restrict an entry to the faulty processes
#: attached to (or detached from) the expected sink/core of the scenario's
#: graph — "place the equivocator inside vs outside the expected sink".
INSIDE_CORE = "inside_core"
OUTSIDE_CORE = "outside_core"
_SYMBOLIC_TARGETS = frozenset({INSIDE_CORE, OUTSIDE_CORE})


@dataclass(frozen=True)
class MixEntry:
    """One role of a mix: a behaviour, a head-count and parameter overrides.

    ``count`` is a non-negative integer or :data:`REST` (``"rest"``); at
    most one entry of a mix may claim the rest.  ``params`` override the
    behaviour's fixed parameter defaults (its node class's ``PARAMS`` in
    :data:`repro.adversary.nodes.BEHAVIOURS`: ``at`` for ``crash``,
    ``poison_value`` for ``wrong_value`` and ``equivocating_leader``), each
    with a value of its default's type.  Those defaults are JSON scalars, so
    the entry round-trips through job files; a participant-detector set
    would not, and a mix cannot set one.

    ``target`` optionally restricts *which* faulty processes may play the
    role: :data:`INSIDE_CORE` / :data:`OUTSIDE_CORE` (relative to the
    scenario's expected sink/core, see
    :func:`repro.workloads.builders.core_attached_faulty`) or an explicit
    tuple of process ids.  A ``rest`` entry cannot be targeted — it absorbs
    whatever the targeted entries left over.
    """

    behaviour: str
    count: int | str = 1
    params: tuple[tuple[str, Any], ...] = ()
    target: str | tuple[ProcessId, ...] | None = None

    def __post_init__(self) -> None:
        params = behaviour_params(self.behaviour, dict(self.params), fixed_only=True)
        object.__setattr__(self, "params", params)
        if isinstance(self.count, bool) or not (
            self.count == REST or (isinstance(self.count, int) and self.count >= 0)
        ):
            raise ValueError(
                f"entry count must be a non-negative integer or {REST!r}, got {self.count!r}"
            )
        if self.target is not None:
            if self.count == REST:
                raise ValueError(
                    f"a {REST!r} entry cannot be targeted; it absorbs the untargeted leftovers"
                )
            if isinstance(self.target, str):
                if self.target not in _SYMBOLIC_TARGETS:
                    raise ValueError(
                        f"unknown target {self.target!r}; expected one of "
                        f"{sorted(_SYMBOLIC_TARGETS)} or an explicit process-id tuple"
                    )
            else:
                ids = tuple(sorted(self.target, key=repr))
                if not ids:
                    raise ValueError("an explicit target set must not be empty")
                object.__setattr__(self, "target", ids)

    @property
    def key(self) -> str:
        """Stable human-readable identity of the entry."""
        rendered = "".join(f",{name}={value!r}" for name, value in self.params)
        if self.target is None:
            targeted = ""
        elif isinstance(self.target, str):
            targeted = f"@{self.target}"
        else:
            targeted = "@[" + ",".join(repr(p) for p in self.target) + "]"
        return f"{self.behaviour}{rendered}{targeted}:{self.count}"

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"behaviour": self.behaviour, "count": self.count}
        if self.params:
            payload["params"] = {name: value for name, value in self.params}
        if self.target is not None:
            payload["target"] = self.target if isinstance(self.target, str) else list(self.target)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MixEntry":
        target = payload.get("target")
        if target is not None and not isinstance(target, str):
            target = tuple(target)
        return cls(
            behaviour=payload["behaviour"],
            count=payload.get("count", 1),
            params=tuple(sorted(payload.get("params", {}).items())),
            target=target,
        )


@dataclass(frozen=True)
class AdversaryMix:
    """A declarative, heterogeneous assignment of behaviours to faulty processes.

    ``entries`` are filled in order: fixed-count entries claim processes
    first, then the (at most one) ``"rest"`` entry claims whoever is left.
    Placement onto a concrete faulty set is performed by :meth:`assign`,
    which shuffles the (sorted) faulty processes with a seed derived from
    the run seed and the mix identity — deterministic for a given
    ``(mix, faulty set, seed)`` in every process, yet varying across seed
    replicates so no process is systematically assigned the same role.
    """

    entries: tuple[MixEntry, ...]
    #: Optional short label used in scenario names, labels and digests
    #: instead of the spelled-out entry list.
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("an adversary mix needs at least one entry")
        rests = sum(1 for entry in self.entries if entry.count == REST)
        if rests > 1:
            raise ValueError(f"at most one mix entry may claim {REST!r}, got {rests}")

    @classmethod
    def of(cls, name: str = "", /, **counts: int | str) -> "AdversaryMix":
        """Shorthand constructor: ``AdversaryMix.of(equivocating_pd=1, silent="rest")``.

        Keyword order is preserved and determines placement priority; the
        optional positional ``name`` labels the mix in reports.
        """
        if not counts:
            raise ValueError("an adversary mix needs at least one behaviour=count entry")
        return cls(
            entries=tuple(MixEntry(behaviour=b, count=c) for b, c in counts.items()),
            name=name,
        )

    @property
    def key(self) -> str:
        """Stable identity used for labels, seed derivation and digests."""
        spelled = ",".join(entry.key for entry in self.entries)
        return f"mix:{self.name}({spelled})" if self.name else f"mix({spelled})"

    def assign(
        self,
        faulty: frozenset[ProcessId],
        *,
        seed: int = 0,
        inside_core: frozenset[ProcessId] | None = None,
    ) -> dict[ProcessId, MixEntry]:
        """Deterministically place each entry's role onto the faulty set.

        ``inside_core`` is the subset of ``faulty`` attached to the expected
        sink/core (the workload builders compute it from the scenario's
        ground truth); it is only required when an entry carries an
        :data:`INSIDE_CORE` / :data:`OUTSIDE_CORE` target.  Targeted
        entries claim their processes *first* (in entry order), so an
        untargeted fixed count can never starve a later targeted entry of
        its only eligible processes — placement succeeds whenever any
        assignment exists, independent of the shuffle.  Untargeted entries
        then place exactly as they did before targeting existed: fixed
        counts claim prefixes of the seed-shuffled faulty list, then the
        (at most one) ``rest`` entry claims whoever is left.
        """
        ordered = sorted(faulty, key=repr)
        rng = random.Random(derive_seed(seed, "adversary-mix", self.key))
        rng.shuffle(ordered)
        assignment: dict[ProcessId, MixEntry] = {}
        available = list(ordered)
        rest_entry: MixEntry | None = None
        fixed = [entry for entry in self.entries if entry.count != REST]
        for entry in self.entries:
            if entry.count == REST:
                rest_entry = entry
        placement_order = [entry for entry in fixed if entry.target is not None] + [
            entry for entry in fixed if entry.target is None
        ]
        for entry in placement_order:
            eligible = [
                process
                for process in available
                if self._eligible(entry, process, faulty, inside_core)
            ]
            take = int(entry.count)
            if take > len(eligible):
                raise ValueError(
                    f"mix {self.key} entry {entry.key!r} needs {take} eligible faulty "
                    f"process(es) but the scenario offers only {len(eligible)} "
                    f"(faulty: {len(ordered)})"
                )
            for process in eligible[:take]:
                assignment[process] = entry
                available.remove(process)
        if rest_entry is not None:
            for process in available:
                assignment[process] = rest_entry
        elif available:
            raise ValueError(
                f"mix {self.key} covers {len(assignment)} faulty processes but the scenario "
                f"has {len(ordered)}; add a behaviour={REST!r} entry to absorb the remainder"
            )
        return assignment

    @staticmethod
    def _eligible(
        entry: MixEntry,
        process: ProcessId,
        faulty: frozenset[ProcessId],
        inside_core: frozenset[ProcessId] | None,
    ) -> bool:
        if entry.target is None:
            return True
        if isinstance(entry.target, tuple):
            targeted = frozenset(entry.target)
            stray = targeted - faulty
            if stray:
                raise ValueError(
                    f"mix entry {entry.key!r} targets {sorted(stray, key=repr)}, "
                    "which the scenario does not declare faulty"
                )
            return process in targeted
        if inside_core is None:
            raise ValueError(
                f"mix entry {entry.key!r} targets the expected core, but the scenario "
                "does not expose one (pass inside_core= to assign())"
            )
        if entry.target == INSIDE_CORE:
            return process in inside_core
        return process not in inside_core

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"entries": [entry.to_dict() for entry in self.entries]}
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AdversaryMix":
        """Rebuild a mix from its :meth:`to_dict` JSON representation."""
        return cls(
            entries=tuple(MixEntry.from_dict(entry) for entry in payload["entries"]),
            name=payload.get("name", ""),
        )


__all__ = ["REST", "INSIDE_CORE", "OUTSIDE_CORE", "MixEntry", "AdversaryMix"]
