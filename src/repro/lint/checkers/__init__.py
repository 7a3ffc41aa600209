"""The checker families.

Each checker is an :class:`ast.NodeVisitor` over one parsed file; the
runner instantiates every family whose scope covers the file's module and
collects their findings.
"""

from repro.lint.checkers.base import BaseChecker
from repro.lint.checkers.det_order import DetOrderChecker
from repro.lint.checkers.det_seed import DetSeedChecker
from repro.lint.checkers.seam import SeamChecker

#: Family instantiation order (stable, so reports are stable).
ALL_CHECKERS: tuple[type[BaseChecker], ...] = (
    DetOrderChecker,
    DetSeedChecker,
    SeamChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "BaseChecker",
    "DetOrderChecker",
    "DetSeedChecker",
    "SeamChecker",
]
