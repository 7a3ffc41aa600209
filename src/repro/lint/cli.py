"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: 0 — no findings (suppressed findings are reported but do not
fail); 1 — at least one finding; 2 — usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.config import DEFAULT_CONFIG
from repro.lint.runner import lint_paths

RULE_CATALOG = """\
DET-ORDER-SET     iteration over a set/frozenset without explicit ordering
DET-ORDER-DICT    iteration over a dict/dict view (advisory, --strict-dict-order)
DET-SEED-GLOBAL   module-level random.* call or import (process-wide RNG)
DET-SEED-RANDOM   random.Random not visibly fed from derive_seed
DET-SEED-CLOCK    wall-clock read (time.time, datetime.now, ...) in deterministic scope
SEAM-IMPORT       import edge forbidden by the declared layering map
ASYNC-UNAWAITED   local coroutine called but never awaited
ASYNC-TASK        create_task(...) handle discarded (weakly-referenced task)
ASYNC-BLOCKING    blocking call (time.sleep, sync sockets, ...) inside async def
ASYNC-GATHER      gather(return_exceptions=True) result discarded
SLOTS-MUT-DEFAULT mutable default argument
SLOTS-MUT-SLOTS   configured hot-path dataclass missing slots=True
LINT-SUPPRESS     suppression comment without a justification
LINT-CONFIG       lint configuration references a class that no longer exists
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
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict-dict-order",
        action="store_true",
        help="also flag dict/dict-view iteration in trajectory packages (advisory)",
    )
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

    config = DEFAULT_CONFIG
    if args.strict_dict_order:
        from dataclasses import replace

        config = replace(config, dict_iteration=True)

    report = lint_paths(list(args.paths), config)

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())

    return 0 if report.ok else 1


__all__ = ["build_parser", "main"]
