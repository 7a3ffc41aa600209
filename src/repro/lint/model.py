"""Finding and report data model shared by the checkers, runner and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``rule`` is a stable machine-readable code (``DET-ORDER-SET``,
    ``SEAM-IMPORT``, ...); codes never change meaning once released, so
    suppressions stay valid across linter versions.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(slots=True)
class SuppressedFinding:
    """A finding matched by an inline ``# lint: allow[RULE] reason`` comment."""

    finding: Finding
    reason: str


def _sort_key(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


@dataclass(slots=True)
class LintReport:
    """The outcome of one lint run over a set of files.

    ``findings`` fail the run; ``suppressed`` findings carry their in-source
    justification and do not.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[SuppressedFinding] = field(default_factory=list)
    files_checked: int = 0

    def sort(self) -> None:
        self.findings.sort(key=_sort_key)
        self.suppressed.sort(key=lambda s: _sort_key(s.finding))

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        for suppressed in self.suppressed:
            lines.append(f"{suppressed.finding.render()} [allowed: {suppressed.reason}]")
        lines.append(
            f"{self.files_checked} file(s) checked: "
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)
