"""Declarative description of a faulty process's behaviour."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.adversary.nodes import behaviour_params


@dataclass(frozen=True, init=False)
class FaultSpec:
    """How one faulty process behaves: a behaviour name and the parameters it sets.

    ``FaultSpec("crash", at=10.0)``.  The behaviour and every parameter are
    checked against :data:`repro.adversary.nodes.BEHAVIOURS` here, so a typo
    fails on every path.  A parameter left unset takes its node class's
    default when the node is built.
    """

    behaviour: str
    params: tuple[tuple[str, Any], ...]

    def __init__(self, behaviour: str = "silent", **params: Any) -> None:
        object.__setattr__(self, "behaviour", behaviour)
        object.__setattr__(self, "params", behaviour_params(behaviour, params))
