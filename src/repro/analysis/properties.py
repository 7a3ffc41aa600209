"""Checkers for the consensus properties (Section II-B).

* **Validity** -- if a correct process decides ``v``, then ``v`` was proposed
  by some process.  (The Byzantine form: a value proposed only by faulty
  processes may still be decided, but a value proposed by nobody may not.)
* **Agreement** -- no two correct processes decide differently.
* **Termination** -- every correct process eventually decides (within the
  simulation horizon).
* **Integrity** -- every correct process decides at most once (enforced
  structurally by the node; re-checked here from the decisions the trace
  counted).

Additionally the harness checks **identification agreement**: every correct
process that returned a sink/core returned the same set, which is the
pivotal intermediate property (its violation is how the Agreement violations
of Section IV manifest).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.graphs.knowledge_graph import ProcessId


@dataclass(frozen=True)
class ConsensusProperties:
    """Outcome of the property checks for one run."""

    validity: bool
    agreement: bool
    termination: bool
    integrity: bool
    identification_agreement: bool
    decided_values: dict[ProcessId, Any]
    distinct_decided_values: tuple[Any, ...]

    @property
    def consensus_solved(self) -> bool:
        """All four consensus properties held within the horizon."""
        return self.validity and self.agreement and self.termination and self.integrity


def check_properties(
    *,
    correct: frozenset[ProcessId],
    proposals: dict[ProcessId, Any],
    decisions: dict[ProcessId, Any],
    identified: dict[ProcessId, frozenset[ProcessId]],
    decision_counts: Mapping[ProcessId, int],
) -> ConsensusProperties:
    """Evaluate the consensus properties for one run.

    Parameters
    ----------
    correct:
        The correct processes.
    proposals:
        Every process's proposed value (including faulty processes; the
        Byzantine validity notion allows deciding a faulty process's value).
    decisions:
        The value decided by each correct process that decided.
    identified:
        The sink/core returned by each correct process that identified one.
    decision_counts:
        How many decisions each process reported (for the Integrity check).
    """
    correct_decisions = {process: value for process, value in decisions.items() if process in correct}
    proposed_values = set(proposals.values())

    validity = all(value in proposed_values for value in correct_decisions.values())
    distinct = tuple(sorted({repr(value) for value in correct_decisions.values()}))
    agreement = len({repr(value) for value in correct_decisions.values()}) <= 1
    termination = set(correct_decisions) == set(correct)
    integrity = all(
        decision_counts.get(process, 0) <= 1 for process in correct  # lint: allow[DET-ORDER-SET] all() of a per-process count check is order-free
    )
    correct_identifications = {
        process: members for process, members in identified.items() if process in correct
    }
    identification_agreement = len(set(correct_identifications.values())) <= 1

    # Recover the original (non-repr) distinct values for reporting.
    seen: list[Any] = []
    for value in correct_decisions.values():
        if not any(repr(value) == repr(existing) for existing in seen):
            seen.append(value)

    return ConsensusProperties(
        validity=validity,
        agreement=agreement,
        termination=termination,
        integrity=integrity,
        identification_agreement=identification_agreement,
        decided_values=correct_decisions,
        distinct_decided_values=tuple(seen),
    )
