"""Protocol configuration.

Two protocol modes are provided, matching the two models of the paper:

* ``BFT_CUP`` -- the authenticated BFT-CUP protocol of Section III: every
  process is given the fault threshold ``f`` and locates the *sink*
  (Algorithm 2) before running / querying the inner consensus.
* ``BFT_CUPFT`` -- the BFT-CUPFT protocol of Section VI: no process knows
  ``f``; processes locate the *core* (Algorithm 4) instead and derive the
  fault-threshold estimate ``f_Gdi`` from it.

Besides the mode and the threshold, a run chooses only the inner
consensus's quorum rule; the predicate searches run with their default
:class:`~repro.graphs.sink_search.SearchOptions`.  The discovery and query
periods are constants of :mod:`repro.core.node`; the view timing of the
inner consensus is a constant of :mod:`repro.pbft.replica`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class ProtocolMode(enum.Enum):
    """Which of the paper's two models the node runs."""

    BFT_CUP = "bft-cup"
    BFT_CUPFT = "bft-cupft"


class QuorumRule(enum.Enum):
    """Quorum rule used by the inner consensus (see :mod:`repro.pbft.quorum`)."""

    PAPER = "paper"
    CLASSIC = "classic"


@dataclass
class ProtocolConfig:
    """Static configuration shared by every correct node in a run."""

    mode: ProtocolMode = ProtocolMode.BFT_CUPFT
    #: The fault threshold handed to every process.  Mandatory for
    #: ``BFT_CUP``; must be ``None`` for ``BFT_CUPFT`` (that is the point of
    #: the model).
    fault_threshold: int | None = None
    #: Quorum rule of the inner consensus; its value (``"paper"`` or
    #: ``"classic"``) is accepted too and coerced here, so a bad rule fails
    #: when the config is built rather than when a member starts consensus.
    quorum_rule: QuorumRule = QuorumRule.PAPER

    def __post_init__(self) -> None:
        if self.mode is ProtocolMode.BFT_CUP and self.fault_threshold is None:
            raise ValueError("the BFT-CUP mode requires the fault threshold to be provided")
        if self.mode is ProtocolMode.BFT_CUPFT and self.fault_threshold is not None:
            raise ValueError(
                "the BFT-CUPFT mode forbids providing the fault threshold to processes; "
                "use BFT_CUP if the threshold is known"
            )
        if self.fault_threshold is not None and self.fault_threshold < 0:
            raise ValueError("the fault threshold must be non-negative")
        try:
            self.quorum_rule = QuorumRule(self.quorum_rule)
        except ValueError:
            allowed = ", ".join(repr(rule.value) for rule in QuorumRule)
            raise ValueError(f"unknown quorum rule {self.quorum_rule!r}; allowed: {allowed}") from None

    @classmethod
    def bft_cup(cls, fault_threshold: int, **kwargs: Any) -> "ProtocolConfig":
        """Convenience constructor for the known-fault-threshold mode."""
        return cls(mode=ProtocolMode.BFT_CUP, fault_threshold=fault_threshold, **kwargs)

    @classmethod
    def bft_cupft(cls, **kwargs: Any) -> "ProtocolConfig":
        """Convenience constructor for the unknown-fault-threshold mode."""
        return cls(mode=ProtocolMode.BFT_CUPFT, fault_threshold=None, **kwargs)
