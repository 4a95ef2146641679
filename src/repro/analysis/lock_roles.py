"""Lock-order checker: every lock is made with a declared role.

Each lock names its role where it is made — ``lockhook.lock(role)`` or
``lockhook.rlock(role)`` — and :data:`repro.obs.lockhook.ROLES` gives
each role its level, from which the runtime tracker
(:class:`repro.analysis.runtime.LockTracker`) checks the order of real
acquisitions.  That check is only as good as the roles, so this rule
keeps two things true:

* no module but ``obs/lockhook.py`` builds a lock itself: a call to, or
  any other use of, ``threading.Lock`` / ``threading.RLock`` (or
  ``_thread.allocate_lock`` / ``_thread.RLock``) — say as a dataclass
  ``default_factory`` — is flagged (type annotations are not).  So is
  ``threading.Semaphore`` / ``BoundedSemaphore``, and a
  ``threading.Condition`` not handed a lock: each builds a lock of its
  own inside ``threading`` that carries no role;
* every ``lockhook.lock(...)`` / ``lockhook.rlock(...)`` names its role
  with a string literal that is a key of ``ROLES``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.obs.lockhook import ROLES

from .engine import Finding, Rule, SourceModule, dotted

__all__ = ["LockOrderRule"]

RULE_ID = "lock-order"

#: The one module allowed to build a lock itself.
_OWNER = "obs/lockhook.py"
_FACTORIES = {
    ("threading", "Lock"),
    ("threading", "RLock"),
    ("threading", "Condition"),
    ("threading", "Semaphore"),
    ("threading", "BoundedSemaphore"),
    ("_thread", "allocate_lock"),
    ("_thread", "RLock"),
}
_CONDITION = {("threading", "Condition")}
_HOOK_FACTORIES = {("lockhook", "lock"), ("lockhook", "rlock")}


def _code(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and every node under it, type annotations left out."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else (value,):
            if isinstance(child, ast.AST):
                yield from _code(child)


def _imported(tree: ast.Module, pairs: set) -> set[str]:
    """Local names bound to one of ``pairs`` by a ``from module import
    attr [as name]``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if (node.module.rsplit(".", 1)[-1], alias.name) in pairs
    }


def _denotes(node: ast.AST, pairs: set, bound: set) -> bool:
    """Whether ``node`` names one of ``pairs``: ``module.attr`` or a name
    imported from it."""
    if isinstance(node, ast.Name):
        return node.id in bound
    return isinstance(node, ast.Attribute) and dotted(node)[-2:] in pairs


class LockOrderRule(Rule):
    id = RULE_ID

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.matches(_OWNER):
            return []
        factories = _imported(module.tree, _FACTORIES)
        conditions = _imported(module.tree, _CONDITION)
        hooks = _imported(module.tree, _HOOK_FACTORIES)
        findings: list[Finding] = []
        # A Condition handed a lock wraps that lock and builds none.
        wrapping: set[int] = set()

        def flag(node: ast.AST, message: str) -> None:
            findings.append(Finding(rule=RULE_ID, path=module.rel,
                                    line=node.lineno, message=message))

        for node in _code(module.tree):
            if isinstance(node, ast.Call):
                if _denotes(node.func, _HOOK_FACTORIES, hooks):
                    self._check_role(node, flag)
                elif ((node.args or node.keywords)
                        and _denotes(node.func, _CONDITION, conditions)):
                    wrapping.add(id(node.func))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in wrapping
                    and _denotes(node, _FACTORIES, factories)):
                flag(node, (
                    f"lock built with {'.'.join(dotted(node))} outside "
                    f"{_OWNER}; make it with "
                    "lockhook.lock(role) or lockhook.rlock(role)"))
        return findings

    @staticmethod
    def _check_role(call: ast.Call, flag) -> None:
        role = call.args[0] if call.args else next(
            (kw.value for kw in call.keywords if kw.arg == "role"), None)
        if not (isinstance(role, ast.Constant) and isinstance(role.value, str)):
            flag(call, "a lock's role must be a string literal")
        elif role.value not in ROLES:
            flag(call, f"lock role {role.value!r} is not in lockhook.ROLES")
