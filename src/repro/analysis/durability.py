"""Durability-protocol checker.

The WAL discipline only works if its properties hold everywhere, not
just in the code paths the crash tests happen to exercise.  Two are
checked here:

* **d1 — single writer.** Files under ``data_dir`` are created, renamed
  and deleted only by ``ingest/durable.py``.  Any other module in the
  durability scopes that opens a file for writing, calls
  ``os.rename``/``os.replace``/``os.remove``/``shutil.*``, or uses
  ``Path.write_text``-style mutators is flagged.
* **d2 — fsync before rename.** Inside the owner module, every
  ``os.replace``/``os.rename`` that publishes a journal/snapshot must be
  lexically preceded (same function) by an ``os.fsync`` of the tmp file.

* **d3 — journal writes under the entry lock.** A journal write
  (``self._journal.append`` / ``write_snapshot`` / ``begin_generation``
  / ``sync``, or ``load(..., repair=True)``) appears only in a method
  whose name ends in ``_locked``, or in ``_recover_persisted`` (startup
  recovery, before any other thread can see the workspace).  The
  ``*_locked`` journal writers of ``service/workspace.py`` in turn
  refuse to run unless the calling thread holds ``entry.lock``, so the
  lock is checked at run time and no write can bypass the check.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import Finding, Rule, SourceModule, dotted
from .project import ProjectConfig

__all__ = ["DurabilityRule"]

RULE_ID = "durability-protocol"

_FS_MUTATORS = {"rename", "replace", "remove", "unlink", "truncate", "rmdir", "removedirs"}
# Note: bare ``.replace()``/``.rename()`` attribute calls are *not*
# listed — ``str.replace`` is ubiquitous and the dangerous forms are
# caught as ``os.replace``/``os.rename`` above.
_PATH_MUTATORS = {
    "write_text",
    "write_bytes",
    "unlink",
    "rmdir",
    "touch",
}
_WRITE_MODES = set("wax+")
_JOURNAL_WRITES = {"append", "write_snapshot", "begin_generation", "sync"}
#: The one journal writer that runs before the workspace is shared.
_STARTUP_RECOVERY = "_recover_persisted"


def _is_journal_write(call: ast.Call) -> bool:
    parts = dotted(call.func)
    if len(parts) != 3 or parts[:2] != ("self", "_journal"):
        return False
    if parts[2] == "load":
        repair = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "repair"), None)
        return repair is not None and not (
            isinstance(repair, ast.Constant) and not repair.value)
    return parts[2] in _JOURNAL_WRITES


def _open_mode(call: ast.Call) -> str | None:
    """The mode argument of an ``open``-style call, if statically known."""
    mode_expr: ast.expr | None = None
    if len(call.args) >= 2:
        mode_expr = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_expr = kw.value
    if mode_expr is None:
        return "r"
    if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str):
        return mode_expr.value
    return None  # not statically known


class DurabilityRule(Rule):
    id = RULE_ID

    def __init__(self, config: ProjectConfig):
        self.config = config

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not module.in_scope(self.config.durability_scopes):
            return ()
        if module.matches(self.config.durability_owner):
            return self._check_owner(module)
        return [*self._check_foreign_writes(module),
                *self._check_journal_writes(module.tree, None, module)]

    # ------------------------------------------------------------------
    # d1: only the owner writes files
    # ------------------------------------------------------------------
    def _check_foreign_writes(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted(node.func)
            if parts == ("open",):
                mode = _open_mode(node)
                if mode is None or _WRITE_MODES & set(mode):
                    yield Finding(
                        rule=RULE_ID,
                        path=module.rel,
                        line=node.lineno,
                        message=(
                            "file opened for writing outside ingest/durable.py; "
                            "all data_dir writes go through the journal owner"
                        ),
                    )
                continue
            if len(parts) == 2 and parts[0] == "os" and parts[1] in _FS_MUTATORS:
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"os.{parts[1]}() outside ingest/durable.py; file-system "
                        "mutation is reserved to the journal owner"
                    ),
                )
                continue
            if parts and parts[0] == "shutil" and len(parts) == 2:
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"shutil.{parts[1]}() outside ingest/durable.py; file-system "
                        "mutation is reserved to the journal owner"
                    ),
                )
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _PATH_MUTATORS
                and len(parts) != 2  # os./shutil. handled above
            ):
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f".{func.attr}() file mutation outside ingest/durable.py; "
                        "route writes through the journal owner"
                    ),
                )

    # ------------------------------------------------------------------
    # d3: journal writes only from the entry-lock-checked helpers
    # ------------------------------------------------------------------
    def _check_journal_writes(self, node: ast.AST, function: str | None,
                              module: SourceModule) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_journal_writes(child, child.name, module)
                continue
            if (isinstance(child, ast.Call) and _is_journal_write(child)
                    and not (function or "").endswith("_locked")
                    and function != _STARTUP_RECOVERY):
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=child.lineno,
                    message=(
                        f"journal {child.func.attr}() outside a *_locked "
                        "helper; write through one that checks the entry lock"
                    ),
                )
            yield from self._check_journal_writes(child, function, module)

    # ------------------------------------------------------------------
    # d2: fsync precedes publishing renames inside the owner
    # ------------------------------------------------------------------
    def _check_owner(self, module: SourceModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fsync_lines: list[int] = []
            renames: list[ast.Call] = []
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                parts = dotted(node.func)
                if parts == ("os", "fsync"):
                    fsync_lines.append(node.lineno)
                elif parts in (("os", "replace"), ("os", "rename")):
                    renames.append(node)
            for rename in renames:
                if not any(line < rename.lineno for line in fsync_lines):
                    findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=module.rel,
                            line=rename.lineno,
                            message=(
                                "rename publishes a file without a preceding "
                                "os.fsync of the tmp file in this function; a "
                                "crash can publish an empty or torn file"
                            ),
                        )
                    )
        return findings
