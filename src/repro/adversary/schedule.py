"""Declarative network fault schedules.

The paper's possibility/impossibility landscape (Table I, Theorem 7) is
driven by *when* and *between whom* messages are delayed.  A
:class:`NetworkSchedule` expresses those scripts as first-class, plain data:

* :class:`DelayRule` -- delay (by a fixed amount, or *until* an absolute
  time) or withhold every message from a source set to a destination set
  inside a virtual-time window;
* :class:`PartitionRule` -- cut the links between disjoint process groups
  for a window, with heal-at-``t_to`` semantics: messages sent across the
  cut during the window are delivered shortly after the partition heals
  (``t_to + heal_delay``), never lost — matching the reliable-channel
  assumption of the system model;
* :class:`CrashRule` -- crash one process at an absolute time.

A schedule is hashable, picklable and JSON round-trippable
(:meth:`NetworkSchedule.to_dict` / :meth:`NetworkSchedule.from_dict`), so it
crosses the work-queue job codec losslessly as a
:class:`~repro.experiments.scenario.Scenario` axis, and
:func:`install_schedule` compiles it onto any
:class:`~repro.runtime.base.Runtime` (simulated or live) with every
drop/delay traced under the matching rule's name.

**Model-contract validation.**  The proofs rely on the declared synchrony
model: under :class:`~repro.sim.synchrony.PartialSynchronyModel` every message
between correct processes must be delivered by ``max(sent, GST) + delta``.
:meth:`NetworkSchedule.validate` rejects any rule that would break that
contract for correct→correct traffic (withholding it forever, delaying it
past the deadline, never healing a partition, crashing a process that is
not declared faulty) unless the rule carries an explicit
``adversarial=True`` marker — the marker documents that the script
deliberately steps outside the model, as the Theorem 7 indistinguishability
construction does.  Rules that only touch traffic involving faulty
processes are always admissible (a Byzantine process may do anything), and
:class:`~repro.sim.synchrony.AsynchronousModel` imposes no delivery contract.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

from repro.graphs.knowledge_graph import ProcessId
from repro.sim.gate import WITHHOLD, NetworkRule, Withhold
from repro.sim.messages import Envelope
from repro.sim.synchrony import PartialSynchronyModel, SynchronousModel, SynchronyModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime

#: Symbolic target sets, resolved against the run's membership at install
#: time: every registered process, the declared-faulty set, or its
#: complement.  Symbolic targets keep one schedule applicable across the
#: graphs of a sweep (explicit id sets are graph-specific).
ALL = "*"
FAULTY = "faulty"
CORRECT = "correct"
_SYMBOLIC_TARGETS = frozenset({ALL, FAULTY, CORRECT})

Targets = Union[str, frozenset]


class ScheduleError(ValueError):
    """A schedule is malformed (bad targets, empty window, bad codec payload)."""


class ScheduleContractError(ScheduleError):
    """A schedule rule violates the declared synchrony-model contract.

    Raised by :meth:`NetworkSchedule.validate` when a rule would withhold or
    over-delay correct→correct traffic (or crash a correct process) under a
    model whose proofs forbid exactly that.  Mark the rule
    ``adversarial=True`` to assert the violation is the point of the
    experiment (e.g. the Theorem 7 construction).
    """


def _freeze_targets(value: Targets | Iterable[ProcessId]) -> Targets:
    if isinstance(value, str):
        if value not in _SYMBOLIC_TARGETS:
            raise ScheduleError(
                f"unknown symbolic target {value!r}; expected one of "
                f"{sorted(_SYMBOLIC_TARGETS)} or an explicit process set"
            )
        return value
    targets = frozenset(value)
    if not targets:
        raise ScheduleError("an explicit target set must not be empty")
    return targets


def _resolve_targets(
    value: Targets, processes: frozenset[ProcessId], faulty: frozenset[ProcessId]
) -> frozenset[ProcessId]:
    if value == ALL:
        return processes
    if value == FAULTY:
        return faulty
    if value == CORRECT:
        return processes - faulty
    return frozenset(value)


def _format_targets(value: Targets) -> str:
    if isinstance(value, str):
        return value
    return "{" + ",".join(repr(p) for p in sorted(value, key=repr)) + "}"


def _encode_targets(value: Targets) -> Any:
    if isinstance(value, str):
        return value
    return sorted(value, key=repr)


def _decode_targets(value: Any) -> Targets:
    if isinstance(value, str):
        return _freeze_targets(value)
    return _freeze_targets(frozenset(value))


def _format_time(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:g}"


def _encode_time(value: float) -> Any:
    # Strict JSON has no Infinity literal; the string survives every parser.
    return "inf" if math.isinf(value) else value


def _decode_time(value: Any) -> float:
    return math.inf if value == "inf" else float(value)


@dataclass(frozen=True)
class DelayRule:
    """Delay or withhold ``src → dst`` messages sent during ``[t_from, t_to)``.

    Exactly one effect applies, chosen by the fields:

    * ``delay=d`` -- matched messages are delivered ``d`` after being sent;
    * ``until=T`` -- matched messages are delivered at absolute time ``T``
      (immediately, if sent after ``T``): "delay every message from X to Y
      until t";
    * neither -- matched messages are withheld forever.
    """

    src: Targets = ALL
    dst: Targets = ALL
    t_from: float = 0.0
    t_to: float = math.inf
    delay: float | None = None
    until: float | None = None
    #: Assert that this rule deliberately violates the synchrony-model
    #: contract (see :class:`ScheduleContractError`).
    adversarial: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", _freeze_targets(self.src))
        object.__setattr__(self, "dst", _freeze_targets(self.dst))
        if self.delay is not None and self.until is not None:
            raise ScheduleError("a delay rule takes delay= or until=, not both")
        if self.delay is not None and not (self.delay >= 0 and math.isfinite(self.delay)):
            raise ScheduleError(f"delay must be finite and non-negative, got {self.delay!r}")
        if self.until is not None and not math.isfinite(self.until):
            # Omit both fields to withhold; an infinite effect would also
            # leak a non-strict-JSON Infinity literal into job files.
            raise ScheduleError(f"until must be finite, got {self.until!r}")
        if not self.t_to > self.t_from >= 0:
            raise ScheduleError(
                f"need 0 <= t_from < t_to, got [{self.t_from!r}, {self.t_to!r})"
            )

    @property
    def withholds(self) -> bool:
        """Whether matched messages are dropped forever (no effect field set)."""
        return self.delay is None and self.until is None

    @property
    def key(self) -> str:
        """Stable human-readable identity (schedule keys, labels, traces)."""
        if self.withholds:
            effect = "withhold"
        elif self.delay is not None:
            effect = f"delay={self.delay:g}"
        else:
            effect = f"until={self.until:g}"
        return (
            f"delay({_format_targets(self.src)}->{_format_targets(self.dst)},"
            f"[{_format_time(self.t_from)},{_format_time(self.t_to)}),{effect})"
        )

    @property
    def rule_name(self) -> str:
        return self.name or self.key

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": "delay",
            "src": _encode_targets(self.src),
            "dst": _encode_targets(self.dst),
            "t_from": self.t_from,
            "t_to": _encode_time(self.t_to),
        }
        if self.delay is not None:
            payload["delay"] = self.delay
        if self.until is not None:
            payload["until"] = self.until
        if self.adversarial:
            payload["adversarial"] = True
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DelayRule":
        return cls(
            src=_decode_targets(payload.get("src", ALL)),
            dst=_decode_targets(payload.get("dst", ALL)),
            t_from=float(payload.get("t_from", 0.0)),
            t_to=_decode_time(payload.get("t_to", "inf")),
            delay=payload.get("delay"),
            until=payload.get("until"),
            adversarial=bool(payload.get("adversarial", False)),
            name=payload.get("name", ""),
        )


@dataclass(frozen=True)
class PartitionRule:
    """Cut the links between disjoint groups during ``[t_from, t_to)``.

    Messages sent across the cut while the partition is up are *delayed*,
    not lost: they are delivered at ``t_to + heal_delay`` (heal-at-``t_to``
    semantics), which is what keeps a "partition until GST" script
    admissible under partial synchrony.  A partition with ``t_to = inf``
    never heals, so cross-group messages are withheld forever.  Processes
    not listed in any group are unaffected.
    """

    groups: tuple[frozenset[ProcessId], ...]
    t_from: float = 0.0
    t_to: float = math.inf
    heal_delay: float = 0.5
    adversarial: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        groups = tuple(frozenset(group) for group in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise ScheduleError("a partition needs at least two groups")
        members: set[ProcessId] = set()
        for group in groups:
            if not group:
                raise ScheduleError("partition groups must not be empty")
            if members & group:
                raise ScheduleError(f"partition groups overlap on {sorted(members & group, key=repr)}")
            members.update(group)
        if self.heal_delay <= 0:
            raise ScheduleError(f"heal_delay must be positive, got {self.heal_delay!r}")
        if not self.t_to > self.t_from >= 0:
            raise ScheduleError(
                f"need 0 <= t_from < t_to, got [{self.t_from!r}, {self.t_to!r})"
            )

    @property
    def key(self) -> str:
        spelled = "|".join(_format_targets(group) for group in self.groups)
        return (
            f"partition({spelled},[{_format_time(self.t_from)},{_format_time(self.t_to)}),"
            f"heal={self.heal_delay:g})"
        )

    @property
    def rule_name(self) -> str:
        return self.name or self.key

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": "partition",
            "groups": [sorted(group, key=repr) for group in self.groups],
            "t_from": self.t_from,
            "t_to": _encode_time(self.t_to),
            "heal_delay": self.heal_delay,
        }
        if self.adversarial:
            payload["adversarial"] = True
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PartitionRule":
        return cls(
            groups=tuple(frozenset(group) for group in payload["groups"]),
            t_from=float(payload.get("t_from", 0.0)),
            t_to=_decode_time(payload.get("t_to", "inf")),
            heal_delay=float(payload.get("heal_delay", 0.5)),
            adversarial=bool(payload.get("adversarial", False)),
            name=payload.get("name", ""),
        )


@dataclass(frozen=True)
class CrashRule:
    """Crash ``process`` at virtual time ``at``.

    A crashed process stops taking steps and its in-flight messages are
    dropped (the standard crash-fault semantics of
    :meth:`~repro.sim.gate.SendGate.crash`).  Crashing a process that the
    run does not declare faulty silently changes the fault model the proofs
    assume, so validation rejects it unless marked ``adversarial=True``.
    """

    process: ProcessId
    at: float = 0.0
    adversarial: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ScheduleError(f"crash time must be non-negative, got {self.at!r}")

    @property
    def key(self) -> str:
        return f"crash({self.process!r}@{self.at:g})"

    @property
    def rule_name(self) -> str:
        return self.name or self.key

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": "crash", "process": self.process, "at": self.at}
        if self.adversarial:
            payload["adversarial"] = True
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CrashRule":
        return cls(
            process=payload["process"],
            at=float(payload.get("at", 0.0)),
            adversarial=bool(payload.get("adversarial", False)),
            name=payload.get("name", ""),
        )


ScheduleRule = Union[DelayRule, PartitionRule, CrashRule]

_RULE_KINDS: dict[str, type] = {
    "delay": DelayRule,
    "partition": PartitionRule,
    "crash": CrashRule,
}


@dataclass(frozen=True)
class NetworkSchedule:
    """An ordered script of network fault rules, as plain data.

    Rule order is precedence: for each message, the first matching rule
    decides (see :class:`~repro.sim.gate.NetworkRule`).  The schedule is
    declarative — nothing is resolved until :func:`install_schedule` binds
    it to a concrete runtime — which is what lets it travel as a
    :class:`~repro.experiments.scenario.Scenario` axis through JSON job
    files and the TCP work queue.
    """

    rules: tuple[ScheduleRule, ...]
    #: Optional short label used in scenario names, labels and digests
    #: alongside the spelled-out rule list.
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ScheduleError("a network schedule needs at least one rule")

    @property
    def key(self) -> str:
        """Stable identity used for labels, seed derivation and digests."""
        spelled = ",".join(rule.key for rule in self.rules)
        return f"sched:{self.name}({spelled})" if self.name else f"sched({spelled})"

    # ------------------------------------------------------------------
    # model-contract validation
    # ------------------------------------------------------------------
    def validate(
        self,
        model: SynchronyModel,
        *,
        processes: frozenset[ProcessId],
        faulty: frozenset[ProcessId],
    ) -> None:
        """Raise :class:`ScheduleContractError` on rules the model forbids.

        Under partial synchrony (GST ``g``, bound ``d``) a correct→correct
        message sent at ``t`` must be delivered by ``max(t, g) + d``; a
        synchronous model is the ``g = 0`` special case.  Asynchronous (and
        unknown) models impose no delivery contract, and rules marked
        ``adversarial=True`` opt out explicitly.  Crash rules are checked
        against the declared faulty set under every model: the fault
        assignment is part of the proofs' hypotheses, not of the synchrony
        contract.
        """
        processes = frozenset(processes)
        faulty = frozenset(faulty)
        if isinstance(model, PartialSynchronyModel):
            gst, delta = model.gst, model.delta
        elif isinstance(model, SynchronousModel):
            gst, delta = 0.0, model.delta
        else:
            gst = delta = None
        for rule in self.rules:
            if rule.adversarial:
                continue
            if isinstance(rule, CrashRule):
                if rule.process not in faulty:
                    raise ScheduleContractError(
                        f"rule {rule.rule_name!r} crashes {rule.process!r}, which the run "
                        "does not declare faulty; crashing a correct process changes the "
                        "fault model — declare it faulty or mark the rule adversarial=True"
                    )
                continue
            if gst is None or delta is None:
                continue
            deadline = gst + delta
            if isinstance(rule, DelayRule):
                self._validate_delay_rule(rule, processes, faulty, gst, delta, deadline)
            elif isinstance(rule, PartitionRule):
                self._validate_partition_rule(rule, faulty, deadline)

    @staticmethod
    def _validate_delay_rule(
        rule: DelayRule,
        processes: frozenset[ProcessId],
        faulty: frozenset[ProcessId],
        gst: float,
        delta: float,
        deadline: float,
    ) -> None:
        correct_src = _resolve_targets(rule.src, processes, faulty) - faulty
        correct_dst = _resolve_targets(rule.dst, processes, faulty) - faulty
        if not correct_src or not correct_dst:
            return  # only traffic involving faulty processes: always admissible
        if rule.withholds:
            raise ScheduleContractError(
                f"rule {rule.rule_name!r} withholds correct→correct traffic forever, "
                "which violates the reliable-channel/partial-synchrony contract "
                f"(every such message must arrive by max(sent, GST) + delta = "
                f"max(sent, {gst:g}) + {delta:g}); use until=/delay= to re-deliver, "
                "or mark the rule adversarial=True"
            )
        if rule.delay is not None:
            # Worst-case delivery: a message sent at sup(window ∩ [0, gst])
            # must make gst + delta; any post-GST send must make sent + delta.
            worst = rule.delay + (gst if rule.t_to > gst else rule.t_to)
            if worst > deadline + 1e-12:
                raise ScheduleContractError(
                    f"rule {rule.rule_name!r} delays correct→correct traffic past the "
                    f"model deadline (delivery up to t={worst:g} > GST + delta = "
                    f"{deadline:g}); shrink the delay/window or mark the rule "
                    "adversarial=True"
                )
        elif rule.until is not None and rule.until > deadline + 1e-12:
            raise ScheduleContractError(
                f"rule {rule.rule_name!r} holds correct→correct traffic until "
                f"t={rule.until:g}, past GST + delta = {deadline:g}; deliver earlier "
                "or mark the rule adversarial=True"
            )

    @staticmethod
    def _validate_partition_rule(
        rule: PartitionRule, faulty: frozenset[ProcessId], deadline: float
    ) -> None:
        correct_groups = sum(1 for group in rule.groups if group - faulty)
        if correct_groups < 2:
            return  # at most one group contains correct processes: no correct pair is cut
        if math.isinf(rule.t_to):
            raise ScheduleContractError(
                f"rule {rule.rule_name!r} partitions correct processes and never heals; "
                "set a finite t_to (heal time) or mark the rule adversarial=True"
            )
        if rule.t_to + rule.heal_delay > deadline + 1e-12:
            raise ScheduleContractError(
                f"rule {rule.rule_name!r} heals at t={rule.t_to + rule.heal_delay:g}, "
                f"past GST + delta = {deadline:g}; heal earlier or mark the rule "
                "adversarial=True"
            )

    # ------------------------------------------------------------------
    # codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"rules": [rule.to_dict() for rule in self.rules]}
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NetworkSchedule":
        """Rebuild a schedule from its :meth:`to_dict` JSON representation."""
        rules = []
        for entry in payload["rules"]:
            kind = entry.get("kind")
            rule_type = _RULE_KINDS.get(kind)
            if rule_type is None:
                raise ScheduleError(
                    f"unknown schedule rule kind {kind!r}; expected one of {sorted(_RULE_KINDS)}"
                )
            rules.append(rule_type.from_dict(entry))
        return cls(rules=tuple(rules), name=payload.get("name", ""))


# The rules the send gate runs; _resolve_targets and validate() must agree with them.
class _CompiledDelayRule(NetworkRule):
    """A :class:`DelayRule` bound to a concrete membership."""

    def __init__(
        self, rule: DelayRule, processes: frozenset[ProcessId], faulty: frozenset[ProcessId]
    ) -> None:
        self.name = rule.rule_name
        self._rule = rule
        self._src = _resolve_targets(rule.src, processes, faulty)
        self._dst = _resolve_targets(rule.dst, processes, faulty)

    def decide(self, envelope: Envelope, *, now: float) -> float | Withhold | None:
        rule = self._rule
        if not rule.t_from <= now < rule.t_to:
            return None
        if envelope.sender not in self._src or envelope.receiver not in self._dst:
            return None
        if rule.withholds:
            return WITHHOLD
        if rule.until is not None:
            return max(rule.until - now, 0.0)
        return rule.delay


class _CompiledPartitionRule(NetworkRule):
    """A :class:`PartitionRule` with its group lookup precomputed."""

    def __init__(self, rule: PartitionRule) -> None:
        self.name = rule.rule_name
        self._rule = rule
        self._group_of: dict[ProcessId, int] = {}
        for index, group in enumerate(rule.groups):
            for member in group:
                self._group_of[member] = index

    def decide(self, envelope: Envelope, *, now: float) -> float | Withhold | None:
        rule = self._rule
        if not rule.t_from <= now < rule.t_to:
            return None
        sender_group = self._group_of.get(envelope.sender)
        receiver_group = self._group_of.get(envelope.receiver)
        if sender_group is None or receiver_group is None or sender_group == receiver_group:
            return None
        if math.isinf(rule.t_to):
            return WITHHOLD
        return (rule.t_to - now) + rule.heal_delay


def install_schedule(schedule: NetworkSchedule, runtime: "Runtime") -> None:
    """Validate ``schedule`` against the runtime's model, then compile it onto the runtime.

    Message rules become ordered :class:`~repro.sim.gate.NetworkRule`
    instances on the send gate (their names show up in trace drop/delay
    reasons); crash rules become runtime timers.  Call from the ``start``
    callback of :meth:`~repro.runtime.base.Runtime.run` (timers need a live
    clock), after every process is registered (symbolic targets resolve
    against the full membership).
    """
    processes, faulty = runtime.process_ids, runtime.faulty
    schedule.validate(runtime.model, processes=processes, faulty=faulty)
    for rule in schedule.rules:
        if isinstance(rule, CrashRule):
            runtime.schedule(
                max(rule.at - runtime.now, 0.0),
                lambda process=rule.process: runtime.crash(process),
            )
        elif isinstance(rule, PartitionRule):
            runtime.add_rule(_CompiledPartitionRule(rule))  # membership-independent
        else:
            runtime.add_rule(_CompiledDelayRule(rule, processes, faulty))


__all__ = [
    "ALL",
    "FAULTY",
    "CORRECT",
    "CrashRule",
    "DelayRule",
    "NetworkSchedule",
    "PartitionRule",
    "ScheduleContractError",
    "ScheduleError",
    "ScheduleRule",
    "install_schedule",
]
