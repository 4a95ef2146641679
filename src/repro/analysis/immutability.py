"""Snapshot-immutability checker.

Serving correctness rests on copy-on-merge snapshot isolation (PR 4): a
published ``DataTable``/``SketchStore``/``Column`` is shared by every
in-flight query, so mutating one in place silently corrupts concurrent
results.  The contract is that those types are only ever *built* —
populated inside their own constructor modules or rebuilt fresh (via
constructors, ``from_parts``-style classmethods, or a sketch's own
``copy()``) — and never mutated after publication.

This rule flags, outside the whitelisted builder modules:

* attribute or subscript assignment through a tracked object
  (``table.columns[...] = ...``, ``store.version = ...``);
* mutating-method calls on a tracked object (``sketch.merge(...)``,
  ``store.update(...)``, ``column.values.sort()``).

An object is *tracked* when a function parameter or annotated local is
typed as one of the immutable types; it stops being tracked once
reassigned from a fresh-construction expression (constructor call,
classmethod on the type, a ``.copy()`` method such as
:meth:`repro.sketch.base.Sketch.copy`, ``dataclasses.replace``, or the
``copy`` module's functions) — mutating your own fresh copy is the
sanctioned pattern, and ``sketch.copy()`` is how the merge paths get one.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import Finding, Rule, SourceModule
from .project import ProjectConfig

__all__ = ["ImmutabilityRule"]

RULE_ID = "snapshot-immutability"

_FRESH_CALLS = {"deepcopy", "copy", "replace"}


def _annotation_types(node: ast.expr | None) -> set[str]:
    """Direct type names of an annotation.

    Handles ``X``, ``mod.X``, ``X | None``, ``Optional[X]`` and their
    string-literal forms.  Container generics (``list[X]``,
    ``dict[str, X]``) deliberately contribute *nothing*: a list of
    snapshot objects is itself a plain mutable list — only the elements
    are protected, and element access is tracked at its own annotation
    sites.
    """
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
        return _annotation_types(parsed)
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_types(node.left) | _annotation_types(node.right)
    if isinstance(node, ast.Subscript):
        base = _annotation_types(node.value)
        if base & {"Optional", "Annotated", "Final"}:
            inner = node.slice
            if isinstance(inner, ast.Tuple):
                return _annotation_types(inner.elts[0]) if inner.elts else set()
            return _annotation_types(inner)
        return set()
    return set()


class _FunctionChecker:
    def __init__(self, rule: "ImmutabilityRule", module: SourceModule, fn: ast.AST):
        self.rule = rule
        self.module = module
        self.fn = fn
        self.tracked: set[str] = set()
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        args = self.fn.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            if arg.arg == "self":
                continue
            if _annotation_types(arg.annotation) & self.rule.immutable_types:
                self.tracked.add(arg.arg)
        self._walk(self.fn.body)
        return self.findings

    # ------------------------------------------------------------------
    def _is_fresh(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name) and func.id in self.rule.immutable_types:
            return True
        if isinstance(func, ast.Name) and func.id in _FRESH_CALLS:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _FRESH_CALLS:
                return True  # sketch.copy(), dataclasses.replace(x), copy.copy(x)
            # Classmethod constructors: SketchStore.from_parts(...).
            if isinstance(func.value, ast.Name) and func.value.id in self.rule.immutable_types:
                return True
        return False

    def _root_name(self, node: ast.expr) -> str | None:
        """The base Name of an attribute/subscript chain, if any."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _flag(self, line: int, what: str, name: str) -> None:
        self.findings.append(
            Finding(
                rule=RULE_ID,
                path=self.module.rel,
                line=line,
                message=(
                    f"{what} on published snapshot object '{name}' outside a "
                    "builder module; copy (.copy()/from_parts) before mutating"
                ),
            )
        )

    def _walk(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                self._handle_assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                self._handle_annassign(stmt)
            elif isinstance(stmt, ast.AugAssign):
                root = self._root_name(stmt.target)
                if (
                    isinstance(stmt.target, (ast.Attribute, ast.Subscript))
                    and root in self.tracked
                ):
                    self._flag(stmt.lineno, "augmented assignment", root)
            for node in self._own_calls(stmt):
                self._handle_call(node)
            for name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, name, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    self._walk(sub)
            for handler in getattr(stmt, "handlers", None) or []:
                self._walk(handler.body)

    def _own_calls(self, stmt: ast.stmt):
        """Call nodes in this statement's own expressions (not nested
        statements or nested function bodies — those are visited on
        their own)."""

        def rec(parent: ast.AST):
            for child in ast.iter_child_nodes(parent):
                if isinstance(
                    child,
                    (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue
                if isinstance(child, ast.Call):
                    yield child
                yield from rec(child)

        yield from rec(stmt)

    def _handle_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                # Rebinding: fresh copies leave the tracked set; aliasing
                # a tracked object keeps the new name tracked too.
                if self._is_fresh(value):
                    self.tracked.discard(target.id)
                elif isinstance(value, ast.Name) and value.id in self.tracked:
                    self.tracked.add(target.id)
                continue
            root = self._root_name(target)
            if isinstance(target, (ast.Attribute, ast.Subscript)) and root in self.tracked:
                kind = "attribute assignment" if isinstance(target, ast.Attribute) else "item assignment"
                self._flag(target.lineno, kind, root)

    def _handle_annassign(self, stmt: ast.AnnAssign) -> None:
        if isinstance(stmt.target, ast.Name):
            types = _annotation_types(stmt.annotation) & self.rule.immutable_types
            if types and not (stmt.value is not None and self._is_fresh(stmt.value)):
                self.tracked.add(stmt.target.id)
            return
        root = self._root_name(stmt.target)
        if isinstance(stmt.target, (ast.Attribute, ast.Subscript)) and root in self.tracked:
            self._flag(stmt.lineno, "attribute assignment", root)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in self.rule.mutating_methods:
            return
        root = self._root_name(func.value)
        if root in self.tracked:
            self._flag(node.lineno, f"mutating call .{func.attr}()", root)


class ImmutabilityRule(Rule):
    id = RULE_ID

    def __init__(self, config: ProjectConfig):
        self.config = config
        self.immutable_types = set(config.immutable_types)
        self.mutating_methods = set(config.mutating_methods)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not module.in_scope(self.config.immutability_scopes):
            return ()
        if any(module.matches(builder) for builder in self.config.builder_modules):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(_FunctionChecker(self, module, node).run())
        return findings
