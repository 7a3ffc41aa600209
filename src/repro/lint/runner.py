"""File collection, checker dispatch and suppression application."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.checkers import ALL_CHECKERS
from repro.lint.checkers.base import statement_lines
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.model import Finding, LintReport, SuppressedFinding
from repro.lint.suppressions import parse_suppressions


def module_name(path: Path) -> str:
    """Dotted module name of ``path``, walking up through ``__init__.py`` files.

    ``src/repro/sim/engine.py`` maps to ``repro.sim.engine`` wherever the
    tree is checked out; a loose file without a package context keeps its
    bare stem (scoped checkers then simply do not apply).
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(reversed(parts))


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            seen.update(file.resolve() for file in path.rglob("*.py"))
        elif path.suffix == ".py":
            seen.add(path.resolve())
    return sorted(seen)


def _display_path(path: Path) -> str:
    """Stable path for findings: cwd-relative when possible, POSIX separators."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def lint_file(
    path: Path,
    config: LintConfig = DEFAULT_CONFIG,
) -> tuple[list[Finding], list[SuppressedFinding]]:
    """Lint one file; returns (active findings, suppressed findings)."""
    source = path.read_text()
    display = _display_path(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as error:
        finding = Finding(
            rule="LINT-PARSE",
            path=display,
            line=error.lineno or 0,
            col=error.offset or 0,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], []

    module = module_name(path)
    suppressions = parse_suppressions(source, display)
    findings: list[Finding] = list(suppressions.malformed)
    for checker_cls in ALL_CHECKERS:
        if checker_cls.applies(config, module):
            findings.extend(checker_cls(config, module, display).run(tree))

    active: list[Finding] = []
    suppressed: list[SuppressedFinding] = []
    statement_spans = _statement_spans(tree)
    for finding in findings:
        lines = statement_spans.get(finding.line, (finding.line,))
        reason = suppressions.match(finding.rule, lines)
        if reason is None:
            active.append(finding)
        else:
            suppressed.append(SuppressedFinding(finding=finding, reason=reason))
    return active, suppressed


def _statement_spans(tree: ast.Module) -> dict[int, tuple[int, ...]]:
    """Map a statement's first line to every line it spans.

    A suppression comment on *any* physical line of a multi-line statement
    (say, the closing paren of a long import) applies to findings reported
    at the statement's first line.
    """
    spans: dict[int, tuple[int, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            lines = statement_lines(node)
            if lines:
                existing = spans.get(lines[0], ())
                if len(lines) > len(existing):
                    spans[lines[0]] = lines
    return spans


def lint_paths(paths: list[Path], config: LintConfig = DEFAULT_CONFIG) -> LintReport:
    """Lint every file under ``paths``."""
    report = LintReport()
    for path in collect_files(paths):
        active, suppressed = lint_file(path, config)
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        report.files_checked += 1
    report.sort()
    return report


__all__ = ["collect_files", "lint_file", "lint_paths", "module_name"]
