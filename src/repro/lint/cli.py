"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: 0 — no findings (suppressed findings are reported but do not
fail); 1 — at least one finding; 2 — usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.runner import lint_paths

RULE_CATALOG = """\
DET-ORDER-SET     iteration over a set/frozenset without explicit ordering
DET-SEED-GLOBAL   module-level random.* call or import (process-wide RNG)
DET-SEED-RANDOM   random.Random not visibly fed from derive_seed
DET-SEED-CLOCK    wall-clock read (time.time, datetime.now, ...) in deterministic scope
SEAM-IMPORT       import edge forbidden by the declared layering map
SEAM-PRIVATE      import of a _-prefixed name from another package
LINT-SUPPRESS     suppression comment without a justification
LINT-PARSE        file does not parse

Suppressions:  # lint: allow[RULE] reason        (this line / this statement)
               # lint: allow-file[RULE] reason   (whole file)
A RULE matches codes equal to it or extending it with a dash
(allow[DET-SEED] covers DET-SEED-CLOCK).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism-and-layering static analysis for the protocol stack.",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(RULE_CATALOG, end="")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src)")

    missing = [str(p) for p in args.paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    report = lint_paths(list(args.paths))
    print(report.render_text())
    return 0 if report.ok else 1


__all__ = ["build_parser", "main"]
