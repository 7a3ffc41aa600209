"""SEAM: the declared import-layering map.

Each :class:`~repro.lint.config.SeamRule` forbids one class of import edge
(for example: protocol packages must not import the simulator engine or
network directly — only through the :mod:`repro.runtime` interface).
Relative imports are resolved against the module under check, so ``from
..sim import network`` cannot sneak past the map.  Imports inside an ``if
TYPE_CHECKING:`` block are exempt: type-only references create no runtime
coupling, and moving an import there is the standard fix for
annotation-only violations.

``SEAM-PRIVATE`` applies to every module, mapped or not: no ``from`` import
of a ``_``-prefixed name (or module) out of another top-level package of the
same distribution, such as ``repro.runtime`` importing ``repro.sim.x._Y``.
It holds under ``TYPE_CHECKING`` too: an annotation couples to the name.
"""

from __future__ import annotations

import ast

from repro.lint.checkers.base import BaseChecker, dotted_name
from repro.lint.config import LintConfig, SeamRule


def _resolve_relative(module: str, node: ast.ImportFrom) -> str | None:
    """Absolute module targeted by a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    # ``module`` is the importer; level 1 strips the module's own name,
    # each further level strips one package.
    parts = module.split(".")
    if node.level > len(parts):
        return None  # beyond the package root; not resolvable
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


class SeamChecker(BaseChecker):
    family = "SEAM"

    def __init__(self, config: LintConfig, module: str, path: str) -> None:
        super().__init__(config, module, path)
        self._type_checking_depth = 0
        self._rules = [
            rule
            for rule in config.seam_rules
            if self._in_prefix(module, rule.scope) and not self._excepted(module, rule)
        ]

    @staticmethod
    def _in_prefix(module: str, prefix: str) -> bool:
        return module == prefix or module.startswith(prefix + ".")

    @classmethod
    def _excepted(cls, module: str, rule: SeamRule) -> bool:
        return any(cls._in_prefix(module, exception) for exception in rule.exceptions)

    # -- TYPE_CHECKING tracking ----------------------------------------

    @staticmethod
    def _is_type_checking_test(test: ast.expr) -> bool:
        name = dotted_name(test)
        return name in {"TYPE_CHECKING", "typing.TYPE_CHECKING"}

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- import checks -------------------------------------------------

    def _check_target(self, target: str | None, node: ast.AST) -> bool:
        if target is None or self._type_checking_depth:
            return False
        for rule in self._rules:
            for forbidden in rule.forbidden:
                if self._in_prefix(target, forbidden):
                    self.report(
                        node,
                        "SEAM-IMPORT",
                        f"{self.module} imports {target}, forbidden for {rule.scope}.*"
                        f" by the layering map ({rule.reason})",
                    )
                    return True
        return False

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_target(alias.name, node)
        self.generic_visit(node)

    def _check_private(self, base: str, node: ast.ImportFrom) -> None:
        importer, source = self.module.split("."), base.split(".")
        if importer[0] != source[0] or importer[:2] == source[:2]:
            return  # another distribution, or inside one package
        private = [part for part in source if part.startswith("_")]
        private += [alias.name for alias in node.names if alias.name.startswith("_")]
        private = [name for name in private if not name.startswith("__")]
        if private:
            self.report(
                node,
                "SEAM-PRIVATE",
                f"{self.module} imports private {', '.join(private)} from {base}; "
                f"make the name public or keep its users inside {'.'.join(source[:2])}",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_relative(self.module, node)
        if not self._check_target(base, node) and base is not None:
            # ``from repro.sim import engine`` names the forbidden module in
            # the alias list, not in ``node.module`` — check the joins too.
            for alias in node.names:
                if self._check_target(f"{base}.{alias.name}", node):
                    break
        if base is not None:
            self._check_private(base, node)
        self.generic_visit(node)


__all__ = ["SeamChecker"]
