"""Determinism-and-layering static analysis for the protocol stack.

Every reproducibility guarantee this repository makes — bit-identical
trajectories across execution backends, byte-stable cell digests, the
sim-vs-live fidelity gate — rests on invariants that are invisible to a
conventional linter:

* no iteration over unordered collections on trajectory-affecting paths
  (**DET-ORDER**),
* no unseeded randomness and no wall-clock reads inside protocol code
  (**DET-SEED**),
* no protocol module reaching around the :mod:`repro.runtime` seam into
  the simulator internals, and no package importing another's
  ``_``-prefixed names (**SEAM**).

:mod:`repro.lint` enforces them mechanically: ``python -m repro.lint src``
parses every file once, runs the checker families scoped by
:class:`~repro.lint.config.LintConfig`, applies inline suppressions
(``# lint: allow[RULE] reason``), and exits nonzero on any finding.  Checks
a stock tool already makes stay with that tool: ruff carries event-loop
hygiene and mutable defaults, mypy catches unawaited coroutines.  See the
README's "Static analysis" section for the rule catalog and workflows.
"""

from repro.lint.config import DEFAULT_CONFIG, LintConfig, SeamRule
from repro.lint.model import Finding, LintReport
from repro.lint.runner import lint_file, lint_paths

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintReport",
    "SeamRule",
    "lint_file",
    "lint_paths",
]
