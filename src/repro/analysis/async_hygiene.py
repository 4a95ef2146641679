"""Async-hygiene checker for the serving layer.

A single blocking call inside a coroutine stalls the whole event loop —
every connected client, not just the offending request.  The server
wraps all blocking workspace work in ``loop.run_in_executor``; this rule
keeps it that way by flagging, inside ``async def`` bodies in the
configured scopes:

* ``time.sleep(...)`` (use ``asyncio.sleep``);
* ``os.fsync(...)`` / ``os.replace(...)`` and friends — disk flushes
  belong on the executor thread;
* blocking ``<lock>.acquire(...)`` — only ``acquire(blocking=False)``
  or an *awaited* async ``acquire`` (e.g. the admission controller's)
  is acceptable on the loop thread;
* direct workspace calls (``self._workspace.handle(...)``,
  ``.register(...)``, ...) — these must go through ``run_in_executor``.
  The exceptions are named, not inferred: ``peek_cached`` and
  ``answer_warm`` — the serving calls built never to wait, enumerate or
  score — and the counter snapshots behind the ops endpoints
  (``ProjectConfig.workspace_loop_safe_methods``).
  A new workspace method is a finding until it is added there.

Nested synchronous ``def`` functions and lambdas inside a coroutine are
excluded: they run wherever they are called, typically on the executor.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import Finding, Rule, SourceModule, dotted
from .project import ProjectConfig

__all__ = ["AsyncHygieneRule"]

RULE_ID = "async-hygiene"


class AsyncHygieneRule(Rule):
    id = RULE_ID

    def __init__(self, config: ProjectConfig):
        self.config = config
        self.blocking_calls = {tuple(name.split(".")) for name in config.async_blocking_calls}

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not module.in_scope(self.config.async_scopes):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                findings.extend(self._check_coroutine(module, node))
        return findings

    def _sync_calls(self, fn: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
        """Non-awaited Call nodes in the coroutine's own body."""
        awaited: set[int] = set()

        def rec(parent: ast.AST) -> Iterator[ast.Call]:
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(child, ast.Await) and isinstance(child.value, ast.Call):
                    awaited.add(id(child.value))
                if isinstance(child, ast.Call):
                    yield child
                yield from rec(child)

        for call in rec(fn):
            if id(call) not in awaited:
                yield call

    def _check_coroutine(
        self, module: SourceModule, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for call in self._sync_calls(fn):
            parts = dotted(call.func)
            tail2 = tuple(parts[-2:]) if len(parts) >= 2 else ()
            if tail2 in self.blocking_calls or tuple(parts) in self.blocking_calls:
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=call.lineno,
                    message=(
                        f"blocking call {'.'.join(parts)}() inside async def "
                        f"'{fn.name}' stalls the event loop; move it to "
                        "run_in_executor (or asyncio.sleep for sleeps)"
                    ),
                )
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                blocking = True
                if call.args and isinstance(call.args[0], ast.Constant):
                    blocking = bool(call.args[0].value)
                for kw in call.keywords:
                    if kw.arg == "blocking" and isinstance(kw.value, ast.Constant):
                        blocking = bool(kw.value.value)
                if blocking:
                    yield Finding(
                        rule=RULE_ID,
                        path=module.rel,
                        line=call.lineno,
                        message=(
                            f"blocking lock acquire inside async def '{fn.name}'; "
                            "use acquire(blocking=False) with backoff or move the "
                            "critical section to run_in_executor"
                        ),
                    )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in self.config.workspace_loop_safe_methods
            ):
                receiver = dotted(func.value)
                if receiver and receiver[-1] in self.config.workspace_receivers:
                    yield Finding(
                        rule=RULE_ID,
                        path=module.rel,
                        line=call.lineno,
                        message=(
                            f"direct workspace call .{func.attr}() inside async def "
                            f"'{fn.name}' may block the event loop; dispatch it via "
                            "loop.run_in_executor (only the methods listed in "
                            "workspace_loop_safe_methods never wait)"
                        ),
                    )
