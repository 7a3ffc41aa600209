"""DET-ORDER: iteration over unordered collections in trajectory code.

Set iteration order depends on element hashes — for strings it changes
between interpreter invocations unless ``PYTHONHASHSEED`` is pinned, so a
``for`` loop over a set on a trajectory-affecting path silently breaks
bit-identical runs.  The checker flags iteration (``for``/``async for``
statements and the ``for`` clauses of list, set and dict comprehensions and
generator expressions) whose iterable is provably set-typed:

* set literals, set comprehensions, ``set(...)`` / ``frozenset(...)`` calls,
* results of ``.union()`` / ``.intersection()`` / ``.difference()`` /
  ``.symmetric_difference()``,
* names annotated or assigned as sets in the enclosing scopes (including
  ``self.attr`` via class-body annotations and method assignments),

looking through order-preserving wrappers (``list``, ``tuple``, ``iter``,
``enumerate``, ``reversed``).  ``sorted(...)`` is the fix and is never
flagged.  Dict walks are not flagged: CPython dicts iterate in insertion
order, so they are as deterministic as the insertions, which this rule and
DET-SEED police.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.checkers.base import BaseChecker, dotted_name
from repro.lint.config import LintConfig

SET_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
SET_OP_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
ORDER_PRESERVING = {"list", "tuple", "iter", "enumerate", "reversed"}


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _is_set_annotation(annotation.left) or _is_set_annotation(annotation.right)
    name = dotted_name(annotation)
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in SET_NAMES


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Yield statements of one scope without descending into nested scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ScopeInfo:
    """Names known set-typed (and names assigned otherwise) in one scope."""

    __slots__ = ("unordered", "other")

    def __init__(self) -> None:
        self.unordered: set[str] = set()
        self.other: set[str] = set()

    def is_unordered(self, name: str) -> bool:
        # An annotation or set assignment marks the name; any competing
        # non-set assignment withdraws the claim (conservative: we would
        # rather miss a finding than flag `x = sorted(x)` rebinding).
        return name in self.unordered and name not in self.other


class DetOrderChecker(BaseChecker):
    family = "DET-ORDER"

    def __init__(self, config: LintConfig, module: str, path: str) -> None:
        super().__init__(config, module, path)
        self._scopes: list[_ScopeInfo] = [_ScopeInfo()]
        self._class_attrs: list[_ScopeInfo] = []

    @classmethod
    def applies(cls, config: LintConfig, module: str) -> bool:
        return config.in_trajectory_scope(module)

    # -- scope bookkeeping ---------------------------------------------

    def _collect_scope(self, node: ast.AST) -> _ScopeInfo:
        """Pre-scan a function/module body for set-typed names."""
        info = _ScopeInfo()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _is_set_annotation(arg.annotation):
                    info.unordered.add(arg.arg)
        body = list(getattr(node, "body", []))
        for stmt in _walk_scope(body):
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _is_set_annotation(stmt.annotation):
                    info.unordered.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                unordered = self._is_unordered_expr(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        (info.unordered if unordered else info.other).add(target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for target in ast.walk(stmt.target):
                    if isinstance(target, ast.Name):
                        info.other.add(target.id)
        return info

    def _collect_class_attrs(self, node: ast.ClassDef) -> _ScopeInfo:
        """Class-level annotations plus ``self.x = <set>`` assignments."""
        info = _ScopeInfo()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _is_set_annotation(stmt.annotation):
                    info.unordered.add(stmt.target.id)
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in _walk_scope(list(method.body)):
                if not isinstance(stmt, ast.Assign):
                    continue
                unordered = self._is_unordered_expr(stmt.value)
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        (info.unordered if unordered else info.other).add(target.attr)
        return info

    # -- unordered-expression classification ---------------------------

    def _is_unordered_expr(self, node: ast.expr) -> bool:
        return self._describe_unordered(node) is not None

    def _describe_unordered(self, node: ast.expr) -> str | None:
        """Return a description when ``node`` evaluates to an unordered value."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in {"set", "frozenset"}:
                    return f"{func.id}(...)"
                if func.id in ORDER_PRESERVING and node.args:
                    inner = self._describe_unordered(node.args[0])
                    if inner is not None:
                        return f"{inner} (through {func.id}(...))"
                return None
            if isinstance(func, ast.Attribute):
                if func.attr in SET_OP_METHODS and self._describe_unordered(func.value):
                    return f"a set operation .{func.attr}()"
            return None
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope.unordered or node.id in scope.other:
                    return (
                        f"set-typed name {node.id!r}" if scope.is_unordered(node.id) else None
                    )
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self" and self._class_attrs:
                info = self._class_attrs[-1]
                if info.is_unordered(node.attr):
                    return f"set-typed attribute self.{node.attr}"
        return None

    # -- visitors ------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self._scopes[0] = self._collect_scope(node)
        self.generic_visit(node)

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scopes.append(self._collect_scope(node))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_attrs.append(self._collect_class_attrs(node))
        self.generic_visit(node)
        self._class_attrs.pop()

    def _check_iteration(self, iterable: ast.expr, node: ast.AST) -> None:
        description = self._describe_unordered(iterable)
        if description is None:
            return
        self.report(
            node,
            "DET-ORDER-SET",
            f"iteration over {description} without an explicit ordering"
            " — wrap the iterable in sorted(...)",
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # One ``for`` clause of any comprehension kind; the clause itself
        # carries no position, so the finding sits on its iterable.
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)


__all__ = ["DetOrderChecker"]
