"""Declarative scenarios and sweep matrices.

The paper's evidence is a *matrix* of executions: protocol mode × graph
family × adversary behaviour × synchrony model × seed.  This module gives
that matrix a first-class, fully declarative representation:

* :class:`GraphSpec` names a knowledge-connectivity-graph source (a paper
  figure or a generator family plus its parameters) without building it —
  specs are hashable and picklable;
* :class:`SynchronySpec` does the same for the synchrony models;
* :class:`Scenario` bundles one complete cell: graph, protocol mode, fault
  behaviour (or :class:`~repro.adversary.mix.AdversaryMix`), network fault
  schedule (:class:`~repro.adversary.schedule.NetworkSchedule`), synchrony,
  seed, horizon and protocol options;
* :class:`ScenarioMatrix` expands cartesian products over all axes with
  deterministic per-cell seed derivation (via
  :func:`repro.core.seeding.derive_seed`), so the same matrix always
  expands to byte-identical scenario lists in any process.

Everything here is plain data: the expensive objects (graphs, synchrony
models, run configs, nodes) are only materialised behind the runner, which
is what makes scenarios safe to ship to a process pool.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import product
from typing import Any

from repro.adversary.mix import AdversaryMix
from repro.adversary.nodes import behaviour_params
from repro.adversary.schedule import NetworkSchedule
from repro.core.config import DEFAULT_HORIZON, ProtocolMode
from repro.core.seeding import derive_seed
from repro.graphs.figures import GraphScenario, paper_figures
from repro.graphs.generators import (
    generate_bft_cup_graph,
    generate_bft_cupft_graph,
    generate_split_brain_graph,
)
from repro.sim.synchrony import (
    AsynchronousModel,
    PartialSynchronyModel,
    SynchronousModel,
    SynchronyModel,
)

Params = tuple[tuple[str, Any], ...]


def _freeze_params(params: Mapping[str, Any]) -> Params:
    """Canonicalise a keyword mapping into a sorted, hashable tuple."""
    return tuple(sorted(params.items()))


def _format_params(params: Params) -> str:
    return ",".join(f"{name}={value!r}" for name, value in params)


def _encode_value(value: Any) -> Any:
    """JSON-encode one parameter value, tagging enums so they round-trip."""
    if isinstance(value, enum.Enum):
        cls = type(value)
        return {"__enum__": f"{cls.__module__}:{cls.__qualname__}", "value": value.value}
    return value


def _decode_value(value: Any) -> Any:
    """Invert :func:`_encode_value` (plain JSON values pass through)."""
    if isinstance(value, dict) and "__enum__" in value:
        module_name, _, qualname = value["__enum__"].partition(":")
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj(value["value"])
    return value


#: Generator families understood by :meth:`GraphSpec.build`.
_GRAPH_FAMILIES = {
    "bft_cup": generate_bft_cup_graph,
    "bft_cupft": generate_bft_cupft_graph,
    "split_brain": generate_split_brain_graph,
}


@dataclass(frozen=True)
class GraphSpec:
    """Declarative reference to a knowledge connectivity graph.

    ``family`` is either ``"figure"`` (with a ``name`` parameter naming one
    of the :func:`repro.graphs.figures.paper_figures` reconstructions) or a
    generator family from :mod:`repro.graphs.generators`.
    """

    family: str
    params: Params = ()

    # Constructors ----------------------------------------------------------
    @classmethod
    def figure(cls, name: str) -> "GraphSpec":
        """Reference a paper-figure reconstruction (``"fig1b"``, ``"fig4b"``, ...)."""
        return cls(family="figure", params=(("name", name),))

    @classmethod
    def bft_cup(cls, **params: Any) -> "GraphSpec":
        """Reference :func:`~repro.graphs.generators.generate_bft_cup_graph`."""
        return cls(family="bft_cup", params=_freeze_params(params))

    @classmethod
    def bft_cupft(cls, **params: Any) -> "GraphSpec":
        """Reference :func:`~repro.graphs.generators.generate_bft_cupft_graph`."""
        return cls(family="bft_cupft", params=_freeze_params(params))

    @classmethod
    def split_brain(cls, **params: Any) -> "GraphSpec":
        """Reference :func:`~repro.graphs.generators.generate_split_brain_graph`."""
        return cls(family="split_brain", params=_freeze_params(params))

    @classmethod
    def sweep(cls, family: str, **axes: Iterable[Any]) -> tuple["GraphSpec", ...]:
        """Cartesian product over generator parameters.

        >>> GraphSpec.sweep("bft_cup", f=[1, 2], non_sink_size=[4, 8])
        ... # doctest: +SKIP
        """
        names = sorted(axes)
        specs = []
        for values in product(*(tuple(axes[name]) for name in names)):
            specs.append(cls(family=family, params=_freeze_params(dict(zip(names, values, strict=True)))))
        return tuple(specs)

    # Introspection ---------------------------------------------------------
    @property
    def key(self) -> str:
        """Stable human-readable identity, used for seeds, caches and reports."""
        return f"{self.family}({_format_params(self.params)})"

    def parameters(self) -> dict[str, Any]:
        return dict(self.params)

    def build(self) -> GraphScenario:
        """Materialise the graph scenario (deterministic for a given spec)."""
        params = self.parameters()
        if self.family == "figure":
            name = params["name"]
            figures = paper_figures()
            if name not in figures:
                raise KeyError(f"unknown figure {name!r}; available: {sorted(figures)}")
            return figures[name]
        generator = _GRAPH_FAMILIES.get(self.family)
        if generator is None:
            raise KeyError(
                f"unknown graph family {self.family!r}; "
                f"available: {sorted(_GRAPH_FAMILIES) + ['figure']}"
            )
        return generator(**params)

    def to_dict(self) -> dict[str, Any]:
        return {"family": self.family, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GraphSpec":
        """Rebuild a spec from its :meth:`to_dict` JSON representation."""
        return cls(family=payload["family"], params=_freeze_params(payload.get("params", {})))


#: Synchrony model families understood by :meth:`SynchronySpec.build`.
_SYNCHRONY_FAMILIES = {
    "synchronous": SynchronousModel,
    "partial": PartialSynchronyModel,
    "asynchronous": AsynchronousModel,
}


@dataclass(frozen=True)
class SynchronySpec:
    """Declarative reference to a synchrony model."""

    kind: str = "partial"
    params: Params = ()

    @classmethod
    def synchronous(cls, **params: Any) -> "SynchronySpec":
        return cls(kind="synchronous", params=_freeze_params(params))

    @classmethod
    def partial(cls, **params: Any) -> "SynchronySpec":
        return cls(kind="partial", params=_freeze_params(params))

    @classmethod
    def asynchronous(cls, **params: Any) -> "SynchronySpec":
        return cls(kind="asynchronous", params=_freeze_params(params))

    @property
    def key(self) -> str:
        return f"{self.kind}({_format_params(self.params)})"

    def parameters(self) -> dict[str, Any]:
        return dict(self.params)

    def build(self) -> SynchronyModel:
        model = _SYNCHRONY_FAMILIES.get(self.kind)
        if model is None:
            raise KeyError(
                f"unknown synchrony kind {self.kind!r}; available: {sorted(_SYNCHRONY_FAMILIES)}"
            )
        return model(**self.parameters())

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SynchronySpec":
        """Rebuild a spec from its :meth:`to_dict` JSON representation."""
        return cls(kind=payload["kind"], params=_freeze_params(payload.get("params", {})))


@dataclass(frozen=True)
class Scenario:
    """One fully specified experiment cell.

    A scenario is declarative and picklable; the runner materialises the
    graph, synchrony model, protocol config and nodes from it (in the worker
    process when running on a pool).
    """

    name: str
    graph: GraphSpec
    mode: ProtocolMode = ProtocolMode.BFT_CUPFT
    behaviour: str = "silent"
    #: Optional heterogeneous per-process fault assignment.  When set it
    #: supersedes ``behaviour`` (which is kept purely as a report label);
    #: plain behaviour strings remain the homogeneous shorthand.
    mix: AdversaryMix | None = None
    #: Optional declarative network fault schedule (scripted delays,
    #: partitions, crashes) installed on the run's network and validated
    #: against the synchrony model when the cell is materialised.
    schedule: NetworkSchedule | None = None
    synchrony: SynchronySpec = SynchronySpec(kind="partial")
    seed: int = 0
    horizon: float = DEFAULT_HORIZON
    #: Extra keyword arguments forwarded to the :class:`ProtocolConfig`
    #: constructor (e.g. ``(("quorum_rule", QuorumRule.CLASSIC),)``).
    protocol_options: Params = ()
    #: Axis coordinates attached by the matrix (used for grouping/reporting).
    labels: Params = ()

    def __post_init__(self) -> None:
        if self.mix is None:
            # An unknown behaviour fails the declaration, not the run.
            behaviour_params(self.behaviour, {})
        elif self.behaviour == "silent":
            # A mix supersedes the behaviour string; leaving the constructor
            # default in place would let reports misattribute heterogeneous
            # cells to "silent".  (The matrix sets this explicitly; this
            # covers directly constructed scenarios.)
            object.__setattr__(self, "behaviour", self.mix.key)

    def label(self, key: str, default: Any = None) -> Any:
        """Look up one axis coordinate recorded by the matrix."""
        for name, value in self.labels:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        """Faithful JSON representation (suite exports, job files, digests).

        The encoding is lossless for every declarative field — enum-valued
        protocol options are tagged rather than ``repr``'d, adversary mixes
        and network schedules are encoded entry by entry / rule by rule — so
        :meth:`from_dict` reconstructs an equal scenario in any process.
        The ``mix`` and ``schedule`` keys are only present when set, which
        keeps the encoding (and therefore :meth:`cell_digest`) of scenarios
        without them byte-identical to earlier releases.
        """
        payload = {
            "name": self.name,
            "graph": self.graph.to_dict(),
            "mode": self.mode.value,
            "behaviour": self.behaviour,
            "synchrony": self.synchrony.to_dict(),
            "seed": self.seed,
            "horizon": self.horizon,
            "protocol_options": {name: _encode_value(value) for name, value in self.protocol_options},
            "labels": {name: value for name, value in self.labels},
        }
        if self.mix is not None:
            payload["mix"] = self.mix.to_dict()
        if self.schedule is not None:
            payload["schedule"] = self.schedule.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from its :meth:`to_dict` JSON representation.

        This is what lets work-queue jobs cross process (and machine)
        boundaries as plain JSON files: ``Scenario.from_dict(s.to_dict())``
        equals ``s`` whenever the specs were built through the documented
        constructors (which canonicalise parameter order).
        """
        return cls(
            name=payload["name"],
            graph=GraphSpec.from_dict(payload["graph"]),
            mode=ProtocolMode(payload["mode"]),
            behaviour=payload["behaviour"],
            mix=AdversaryMix.from_dict(payload["mix"]) if payload.get("mix") else None,
            schedule=(
                NetworkSchedule.from_dict(payload["schedule"])
                if payload.get("schedule")
                else None
            ),
            synchrony=SynchronySpec.from_dict(payload["synchrony"]),
            seed=payload["seed"],
            horizon=payload["horizon"],
            protocol_options=tuple(
                sorted((name, _decode_value(value)) for name, value in payload.get("protocol_options", {}).items())
            ),
            labels=_freeze_params(payload.get("labels", {})),
        )

    def cell_digest(self) -> str:
        """Stable content hash identifying this cell across processes.

        The digest is SHA-256 over the canonical JSON encoding of
        :meth:`to_dict`, so it survives JSON round-trips (job files, outcome
        shards) and is identical in every worker — it is the key the work
        queue matches journaled outcomes back to scenarios by, and the cell
        half of a :func:`~repro.experiments.lake.result_key`.
        """
        material = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), default=repr)
        return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class ScenarioMatrix:
    """Cartesian sweep builder over every experiment axis.

    The expansion order is deterministic (graphs × modes × adversaries ×
    synchrony × replicate, where the adversary axis is ``behaviours``
    followed by ``mixes``), and every cell's run seed is derived from the
    matrix ``base_seed`` and the cell's coordinates with
    :func:`~repro.core.seeding.derive_seed` — so two expansions of an equal
    matrix (in any process) produce identical scenario lists, while distinct
    cells get statistically independent seeds.  Behaviour strings and
    declarative :class:`~repro.adversary.mix.AdversaryMix` cells coexist on
    the adversary axis; a behaviours-only matrix expands (names, labels,
    seeds and digests) exactly as it did before mixes existed.
    """

    name: str
    graphs: tuple[GraphSpec, ...]
    modes: tuple[ProtocolMode, ...] = (ProtocolMode.BFT_CUPFT,)
    behaviours: tuple[str, ...] = ("silent",)
    #: Heterogeneous adversary cells, swept alongside ``behaviours``.
    mixes: tuple[AdversaryMix, ...] = ()
    #: Declarative network fault schedules, swept as their own axis.
    #: ``None`` entries are unscripted reference cells; the default single
    #: ``None`` keeps schedule-less matrices expanding (names, seeds,
    #: digests) byte-identically to pre-schedule releases.
    schedules: tuple[NetworkSchedule | None, ...] = (None,)
    synchrony: tuple[SynchronySpec, ...] = (SynchronySpec(kind="partial"),)
    #: Number of seed replicates per cell.
    replicates: int = 1
    base_seed: int = 0
    horizon: float = DEFAULT_HORIZON
    protocol_options: Params = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.graphs = tuple(self.graphs)
        self.modes = tuple(self.modes)
        self.behaviours = tuple(self.behaviours)
        self.mixes = tuple(self.mixes)
        self.schedules = tuple(self.schedules)
        self.synchrony = tuple(self.synchrony)
        self.protocol_options = tuple(self.protocol_options)
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not self.graphs:
            raise ValueError("a matrix needs at least one graph spec")
        if not self.behaviours and not self.mixes:
            raise ValueError("a matrix needs at least one behaviour or mix")
        if not self.schedules:
            raise ValueError(
                "a matrix needs at least one schedule (use None for the unscripted reference)"
            )

    def __len__(self) -> int:
        return (
            len(self.graphs)
            * len(self.modes)
            * (len(self.behaviours) + len(self.mixes))
            * len(self.synchrony)
            * len(self.schedules)
            * self.replicates
        )

    def scenarios(self) -> list[Scenario]:
        """Expand the matrix into its deterministic scenario list."""
        cells: list[Scenario] = []
        adversaries: tuple[str | AdversaryMix, ...] = self.behaviours + self.mixes
        for graph, mode, adversary, synchrony, schedule in product(
            self.graphs, self.modes, adversaries, self.synchrony, self.schedules
        ):
            mix = adversary if isinstance(adversary, AdversaryMix) else None
            adversary_key = mix.key if mix is not None else adversary
            for replicate in range(self.replicates):
                coordinates = (graph.key, mode.value, adversary_key, synchrony.key)
                if schedule is not None:
                    # Scheduled cells append their coordinate (and get an
                    # independent derived seed); unscripted cells keep the
                    # exact pre-schedule coordinates, so their names, seeds
                    # and ``cell_digest``s stay byte-identical.
                    coordinates += (schedule.key,)
                coordinates += (replicate,)
                seed = derive_seed(self.base_seed, *coordinates)
                labels = {
                    "matrix": self.name,
                    "graph": graph.key,
                    "mode": mode.value,
                    "behaviour": adversary_key,
                    "synchrony": synchrony.key,
                    "replicate": replicate,
                }
                if mix is not None:
                    # Extra axis label for mix cells only: plain behaviour
                    # cells keep their label set (and hence their
                    # ``cell_digest``) byte-identical to pre-mix releases.
                    labels["mix"] = mix.key
                if schedule is not None:
                    labels["schedule"] = schedule.name or schedule.key
                cells.append(
                    Scenario(
                        name=f"{self.name}[{'|'.join(map(str, coordinates))}]",
                        graph=graph,
                        mode=mode,
                        behaviour=adversary_key,
                        mix=mix,
                        schedule=schedule,
                        synchrony=synchrony,
                        seed=seed,
                        horizon=self.horizon,
                        protocol_options=self.protocol_options,
                        labels=_freeze_params(labels),
                    )
                )
        return cells


def chain_matrices(*matrices: ScenarioMatrix) -> list[Scenario]:
    """Concatenate the expansions of several matrices (e.g. one per mode)."""
    scenarios: list[Scenario] = []
    for matrix in matrices:
        scenarios.extend(matrix.scenarios())
    return scenarios


__all__ = [
    "AdversaryMix",
    "NetworkSchedule",
    "GraphSpec",
    "SynchronySpec",
    "Scenario",
    "ScenarioMatrix",
    "chain_matrices",
]
