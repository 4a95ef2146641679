"""Lock-order checker: static nested-acquisition graph over declared locks.

The rule extracts every ``threading.Lock``/``RLock`` acquisition site in
the configured modules — ``with <lock>:`` blocks, bare ``.acquire()``
calls (held lexically until the matching ``.release()`` or the end of
the function), and calls to same-module ``@contextmanager`` helpers that
yield with a lock held — then checks three things:

1. every lock object created in those modules is declared in the
   project hierarchy (:data:`repro.analysis.project.DEFAULT_CONFIG`);
2. every *nested* acquisition respects the declared levels: holding a
   lock of level L you may only take locks of level >= L — strictly
   greater unless re-entering the same reentrant lock;
3. the acquisition graph over equal-level edges (which rule 2 cannot
   order) is acyclic.

The extraction is interprocedural within a module: calling a local
function while holding a lock creates edges to every lock that function
transitively acquires, and entering a local ``@contextmanager`` adds its
yield-held locks to the caller's held set for the body of the ``with``.
Non-blocking ``acquire(blocking=False)`` attempts cannot deadlock, so
they never produce ordering findings, but locks *held* after a
successful try-acquire still order whatever is taken underneath them.
"""

from __future__ import annotations

import ast
import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .engine import Finding, Rule, SourceModule, iter_python_files, load_module
from .project import DEFAULT_CONFIG, LockSpec, ProjectConfig

__all__ = [
    "LockOrderRule",
    "LockSite",
    "ModuleLockModel",
    "extract_module",
    "collect_lock_sites",
    "LockSiteResolver",
]

RULE_ID = "lock-order"

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _is_lock_like(attr: str) -> bool:
    return attr == "lock" or attr.endswith("_lock") or attr.startswith("lock_")


def _expr_key(node: ast.expr) -> str:
    """A stable textual key for a lock expression, e.g. ``self._lock``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_expr_key(node.value)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return f"{_expr_key(node.value)}[]"
    if isinstance(node, ast.Call):
        return f"{_expr_key(node.func)}()"
    return f"<{type(node).__name__}>"


@dataclass(frozen=True)
class LockSite:
    """One static acquisition (or creation) of a lock."""

    path: str
    line: int
    lock_id: str | None
    kind: str  # "with" | "acquire" | "create"
    blocking: bool
    function: str
    expr: str


@dataclass(frozen=True)
class _Edge:
    src: str
    dst: str
    path: str
    line: int
    function: str
    blocking: bool


@dataclass
class _CallSite:
    line: int
    callee: str
    held: frozenset


@dataclass
class _JournalSite:
    line: int
    method: str
    held: frozenset
    repair: bool


@dataclass
class _FnModel:
    qualname: str
    node: ast.AST
    cls: str | None
    is_contextmanager: bool = False
    is_entry: bool = True  # flipped off once observed as a local callee
    direct_roles: set = field(default_factory=set)
    transitive_roles: set = field(default_factory=set)
    yield_held: set = field(default_factory=set)
    local_callees: set = field(default_factory=set)
    call_sites: list = field(default_factory=list)
    journal_sites: list = field(default_factory=list)
    #: manual acquire intervals: (role, start_line, end_line, blocking)
    manual: list = field(default_factory=list)


@dataclass
class ModuleLockModel:
    module: SourceModule
    functions: dict
    sites: list
    edges: list
    findings: list


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_blocking(call: ast.Call) -> bool:
    """Is this ``.acquire(...)`` call a blocking acquisition?"""
    blocking = True
    if call.args and isinstance(call.args[0], ast.Constant):
        blocking = bool(call.args[0].value)
    for kw in call.keywords:
        if kw.arg == "blocking" and isinstance(kw.value, ast.Constant):
            blocking = bool(kw.value.value)
    return blocking


class _Extractor:
    """Builds the per-module lock model over four passes.

    discover    — find functions/classes, flag undeclared lock creations
    pass_direct — per-function direct roles, manual-hold intervals, local
                  call graph; fixpoint for transitive role sets
    pass_yields — held-at-yield sets for @contextmanager helpers (run
                  twice so cm-inside-cm converges)
    pass_edges  — the full walk emitting nesting edges, ordering
                  findings, and journal/call sites for the durability rule
    """

    def __init__(self, module: SourceModule, config: ProjectConfig):
        self.module = module
        self.config = config
        self.functions: dict[str, _FnModel] = {}
        self.sites: list[LockSite] = []
        self.edges: list[_Edge] = []
        self.findings: list[Finding] = []
        self._recording = True
        self._specs_here = [s for s in config.locks if module.matches(s.module)]
        self._by_attr: dict[str, list[LockSpec]] = {}
        for spec in self._specs_here:
            self._by_attr.setdefault(spec.attr, []).append(spec)
        self.spec_by_id = {s.lock_id: s for s in config.locks}

    def run(self) -> None:
        self.discover()
        self.pass_direct()
        self._recording = False
        for _ in range(2):
            for fn in self.functions.values():
                fn.yield_held.clear()
                fn.journal_sites.clear()
                fn.call_sites.clear()
                self._walk_body(fn.node.body, frozenset(), fn)
        self._recording = True
        for fn in self.functions.values():
            fn.journal_sites.clear()
            fn.call_sites.clear()
            self._walk_body(fn.node.body, frozenset(), fn)

    # ------------------------------------------------------------------
    # Lock expression resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.expr, cls: str | None) -> tuple[str | None, bool]:
        """Map a lock expression to ``(role id, looks_like_lock)``."""
        if not isinstance(node, ast.Attribute):
            return None, False
        attr = node.attr
        candidates = self._by_attr.get(attr, [])
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            for spec in candidates:
                if spec.cls is None or spec.cls == cls:
                    return spec.lock_id, True
            return None, _is_lock_like(attr)
        # Non-self receiver (``entry.lock``): match by attribute alone.
        if len({s.lock_id for s in candidates}) == 1:
            return candidates[0].lock_id, True
        return None, _is_lock_like(attr)

    # ------------------------------------------------------------------
    # discover
    # ------------------------------------------------------------------
    def discover(self) -> None:
        self._walk_scope(self.module.tree.body, cls=None, prefix="")

    def _walk_scope(self, body: Iterable[ast.stmt], cls: str | None, prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._check_creations(stmt.body, cls=stmt.name)
                self._walk_scope(stmt.body, cls=stmt.name, prefix=f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                is_cm = any(
                    _decorator_name(dec) in ("contextmanager", "asynccontextmanager")
                    for dec in stmt.decorator_list
                )
                fn = _FnModel(qualname=qualname, node=stmt, cls=cls, is_contextmanager=is_cm)
                self.functions[qualname] = fn
                self._check_creations(stmt.body, cls=cls)
                # Nested defs become their own (entry-point) functions.
                self._walk_scope(stmt.body, cls=cls, prefix=f"{qualname}.")

    def _check_creations(self, body: Iterable[ast.stmt], cls: str | None) -> None:
        for stmt in body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._creates_lock(value):
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    attr = target.attr
                elif isinstance(target, ast.Name):
                    attr = target.id
                else:
                    continue
                matched = next(
                    (
                        s
                        for s in self._specs_here
                        if s.attr == attr and (s.cls is None or s.cls == cls)
                    ),
                    None,
                )
                if matched is None:
                    self.findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=self.module.rel,
                            line=stmt.lineno,
                            message=(
                                f"lock '{attr}' is not in the declared hierarchy; "
                                "add a LockSpec to repro.analysis.project"
                            ),
                        )
                    )
                self.sites.append(
                    LockSite(
                        path=self.module.rel,
                        line=stmt.lineno,
                        lock_id=matched.lock_id if matched else None,
                        kind="create",
                        blocking=True,
                        function=cls or "<module>",
                        expr=attr,
                    )
                )

    def _creates_lock(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
            if isinstance(func.value, ast.Name) and func.value.id == "threading":
                return True
        if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
            return True
        # dataclasses.field(default_factory=threading.RLock)
        is_field = (isinstance(func, ast.Name) and func.id == "field") or (
            isinstance(func, ast.Attribute) and func.attr == "field"
        )
        if is_field:
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    target = kw.value
                    if isinstance(target, ast.Attribute) and target.attr in _LOCK_FACTORIES:
                        return True
                    if isinstance(target, ast.Name) and target.id in _LOCK_FACTORIES:
                        return True
        return False

    # ------------------------------------------------------------------
    # Statement/call iteration helpers
    # ------------------------------------------------------------------
    def _own_statements(self, fn: _FnModel) -> Iterator[ast.stmt]:
        """All statements of ``fn``, excluding nested function bodies."""
        stack = list(fn.node.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield stmt
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)

    def _calls_in(self, node: ast.AST) -> Iterator[ast.Call]:
        """Call nodes in this node's own expressions.

        Skips nested statements (they are visited on their own) and the
        bodies of nested function definitions and lambdas.
        """

        def rec(parent: ast.AST) -> Iterator[ast.Call]:
            for child in ast.iter_child_nodes(parent):
                if isinstance(
                    child,
                    (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue
                if isinstance(child, ast.Call):
                    yield child
                yield from rec(child)

        if isinstance(node, ast.Call):
            yield node
        yield from rec(node)

    # ------------------------------------------------------------------
    # pass_direct
    # ------------------------------------------------------------------
    def pass_direct(self) -> None:
        for fn in self.functions.values():
            self._collect_direct(fn)
        for fn in self.functions.values():
            for callee in fn.local_callees:
                target = self.functions.get(callee)
                if target is not None:
                    target.is_entry = False
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                size = len(fn.transitive_roles)
                fn.transitive_roles |= fn.direct_roles
                for callee in fn.local_callees:
                    target = self.functions.get(callee)
                    if target is not None:
                        fn.transitive_roles |= target.transitive_roles
                if len(fn.transitive_roles) != size:
                    changed = True

    def _collect_direct(self, fn: _FnModel) -> None:
        releases: dict[str, list[int]] = {}
        acquires: list[tuple[str, str | None, int, bool]] = []
        for stmt in self._own_statements(fn):
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    role, _lockish = self.resolve(item.context_expr, fn.cls)
                    if role is not None:
                        fn.direct_roles.add(role)
            for call in self._calls_in(stmt):
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
                    role, lockish = self.resolve(func.value, fn.cls)
                    if role is None and not lockish:
                        continue
                    key = _expr_key(func.value)
                    if func.attr == "acquire":
                        blocking = _call_blocking(call)
                        acquires.append((key, role, call.lineno, blocking))
                        if role is None:
                            self.findings.append(
                                Finding(
                                    rule=RULE_ID,
                                    path=self.module.rel,
                                    line=call.lineno,
                                    message=(
                                        f"acquisition of undeclared lock '{key}'; "
                                        "declare it in repro.analysis.project"
                                    ),
                                )
                            )
                    else:
                        releases.setdefault(key, []).append(call.lineno)
                    continue
                callee = self._local_callee(call, fn)
                if callee is not None:
                    fn.local_callees.add(callee)
                role = self._component_role(call)
                if role is not None:
                    fn.direct_roles.add(role)
        end = max(
            (getattr(node, "end_lineno", None) or node.lineno for node in ast.walk(fn.node) if hasattr(node, "lineno")),
            default=fn.node.lineno,
        )
        for key, role, line, blocking in acquires:
            if role is None:
                continue
            later = [rl for rl in releases.get(key, []) if rl >= line]
            until = min(later) if later else end
            fn.manual.append((role, line, until, blocking))
            fn.direct_roles.add(role)
            self.sites.append(
                LockSite(
                    path=self.module.rel,
                    line=line,
                    lock_id=role,
                    kind="acquire",
                    blocking=blocking,
                    function=fn.qualname,
                    expr=key,
                )
            )

    def _local_callee(self, call: ast.Call, fn: _FnModel) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.functions:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and fn.cls is not None
        ):
            qualname = f"{fn.cls}.{func.attr}"
            if qualname in self.functions:
                return qualname
        return None

    def _component_role(self, call: ast.Call) -> str | None:
        """Calls on lock-taking components, e.g. ``self._cache.get(...)``."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            return dict(self.config.lock_taking_attrs).get(func.value.attr)
        return None

    # ------------------------------------------------------------------
    # pass_edges (and the recording-off yield pass)
    # ------------------------------------------------------------------
    def _manual_held(self, fn: _FnModel, line: int) -> frozenset:
        # Strictly after the acquire line: the acquisition itself must
        # not appear to nest under its own hold.
        return frozenset(
            role for role, start, until, _blk in fn.manual if start < line <= until
        )

    def _emit_edges(
        self, held: frozenset, role: str, line: int, fn: _FnModel, blocking: bool
    ) -> None:
        if not self._recording:
            return
        for src in sorted(held):
            self.edges.append(
                _Edge(
                    src=src,
                    dst=role,
                    path=self.module.rel,
                    line=line,
                    function=fn.qualname,
                    blocking=blocking,
                )
            )
            if not blocking:
                continue
            src_spec = self.spec_by_id.get(src)
            dst_spec = self.spec_by_id.get(role)
            if src_spec is None or dst_spec is None:
                continue
            if src == role:
                if not dst_spec.reentrant:
                    self.findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=self.module.rel,
                            line=line,
                            message=f"non-reentrant lock '{role}' re-acquired while held",
                        )
                    )
            elif dst_spec.level < src_spec.level:
                self.findings.append(
                    Finding(
                        rule=RULE_ID,
                        path=self.module.rel,
                        line=line,
                        message=(
                            f"acquiring '{role}' (level {dst_spec.level}) while holding "
                            f"'{src}' (level {src_spec.level}) inverts the declared hierarchy"
                        ),
                    )
                )

    def _walk_body(self, stmts: Iterable[ast.stmt], held: frozenset, fn: _FnModel) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            cur = held | self._manual_held(fn, stmt.lineno)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner: set = set()
                for item in stmt.items:
                    expr = item.context_expr
                    role, lockish = self.resolve(expr, fn.cls)
                    if role is not None:
                        if self._recording:
                            self.sites.append(
                                LockSite(
                                    path=self.module.rel,
                                    line=expr.lineno,
                                    lock_id=role,
                                    kind="with",
                                    blocking=True,
                                    function=fn.qualname,
                                    expr=_expr_key(expr),
                                )
                            )
                        self._emit_edges(
                            cur | frozenset(inner), role, expr.lineno, fn, blocking=True
                        )
                        inner.add(role)
                        continue
                    if lockish and isinstance(expr, ast.Attribute):
                        if self._recording:
                            self.findings.append(
                                Finding(
                                    rule=RULE_ID,
                                    path=self.module.rel,
                                    line=expr.lineno,
                                    message=(
                                        f"acquisition of undeclared lock '{_expr_key(expr)}'; "
                                        "declare it in repro.analysis.project"
                                    ),
                                )
                            )
                        continue
                    self._scan_calls(expr, cur | frozenset(inner), fn)
                    if isinstance(expr, ast.Call):
                        callee = self._local_callee(expr, fn)
                        target = self.functions.get(callee) if callee else None
                        if target is not None and target.is_contextmanager:
                            inner |= target.yield_held
                self._walk_body(stmt.body, cur | frozenset(inner), fn)
                continue
            # Yields: remember what a contextmanager holds at its yield.
            for node in self._exprs_of(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    fn.yield_held |= cur
                    break
            self._scan_calls(stmt, cur, fn)
            for name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, name, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    self._walk_body(sub, held, fn)
            for handler in getattr(stmt, "handlers", None) or []:
                self._walk_body(handler.body, held, fn)

    def _exprs_of(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                continue
            yield from ast.walk(child)

    def _scan_calls(self, node: ast.AST, held: frozenset, fn: _FnModel) -> None:
        for call in self._calls_in(node):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                role, _lockish = self.resolve(func.value, fn.cls)
                if role is not None:
                    self._emit_edges(held - {role}, role, call.lineno, fn, blocking=_call_blocking(call))
                continue
            # Journal write sites (consumed by the durability rule).
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in self.config.journal_attrs
                and func.attr in self.config.journal_write_methods
            ):
                repair = any(
                    kw.arg == "repair"
                    and isinstance(kw.value, ast.Constant)
                    and bool(kw.value.value)
                    for kw in call.keywords
                )
                fn.journal_sites.append(
                    _JournalSite(line=call.lineno, method=func.attr, held=held, repair=repair)
                )
            role = self._component_role(call)
            if role is not None:
                self._emit_edges(held, role, call.lineno, fn, blocking=True)
            callee = self._local_callee(call, fn)
            if callee is not None:
                target = self.functions.get(callee)
                if target is not None:
                    fn.call_sites.append(_CallSite(line=call.lineno, callee=callee, held=held))
                    for dst in sorted(target.transitive_roles):
                        self._emit_edges(held - {dst}, dst, call.lineno, fn, blocking=True)


def extract_module(module: SourceModule, config: ProjectConfig) -> ModuleLockModel:
    extractor = _Extractor(module, config)
    extractor.run()
    return ModuleLockModel(
        module=module,
        functions=extractor.functions,
        sites=extractor.sites,
        edges=extractor.edges,
        findings=extractor.findings,
    )


class LockOrderRule(Rule):
    id = RULE_ID

    def __init__(self, config: ProjectConfig):
        self.config = config
        self._edges: list[_Edge] = []

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not any(module.matches(m) for m in self.config.lock_modules):
            return ()
        model = extract_module(module, self.config)
        for edge in model.edges:
            # Edges at statically suppressed lines stay out of the cycle
            # graph: the allow() comment vouches for the whole inversion.
            if not any(s.covers(RULE_ID) for s in module.suppressions_for(edge.line)):
                self._edges.append(edge)
        return model.findings

    def finish(self) -> Iterable[Finding]:
        """Cycle check over the edges rule 2 could not order (equal levels)."""
        spec_by_id = {s.lock_id: s for s in self.config.locks}
        graph: dict[str, set[str]] = {}
        locations: dict[tuple[str, str], _Edge] = {}
        for edge in self._edges:
            src, dst = spec_by_id.get(edge.src), spec_by_id.get(edge.dst)
            if src is None or dst is None or edge.src == edge.dst or not edge.blocking:
                continue
            if dst.level < src.level:
                continue  # already reported as an inversion
            graph.setdefault(edge.src, set()).add(edge.dst)
            locations.setdefault((edge.src, edge.dst), edge)
        findings: list[Finding] = []
        state: dict[str, int] = {}

        def visit(node: str, stack: list[str]) -> None:
            state[node] = 1
            for nxt in sorted(graph.get(node, ())):
                if state.get(nxt) == 1:
                    cycle = (stack[stack.index(nxt):] + [nxt]) if nxt in stack else [node, nxt]
                    edge = locations.get((node, nxt))
                    if edge is not None:
                        findings.append(
                            Finding(
                                rule=RULE_ID,
                                path=edge.path,
                                line=edge.line,
                                message="lock acquisition cycle: " + " -> ".join(cycle),
                            )
                        )
                elif state.get(nxt, 0) == 0:
                    visit(nxt, stack + [nxt])
            state[node] = 2

        for node in sorted(graph):
            if state.get(node, 0) == 0:
                visit(node, [node])
        self._edges = []
        return findings


def collect_lock_sites(
    roots: Iterable[Path], config: ProjectConfig
) -> dict[tuple[str, int], LockSite]:
    """Acquisition sites keyed by (resolved path, line) for the runtime shim.

    Sites whose line carries a suppression of this rule (an ``allow``
    comment naming ``lock-order``) are excluded: the static allowance
    extends to runtime checking.
    """
    table: dict[tuple[str, int], LockSite] = {}
    for path in iter_python_files(roots):
        try:
            module = load_module(path)
        except SyntaxError:
            continue
        if not any(module.matches(m) for m in config.lock_modules):
            continue
        model = extract_module(module, config)
        resolved = str(path.resolve())
        for site in model.sites:
            if site.kind == "create":
                continue
            if any(s.covers(RULE_ID) for s in module.suppressions_for(site.line)):
                continue
            table[(resolved, site.line)] = site
    return table


_realpath = functools.lru_cache(maxsize=None)(os.path.realpath)


class LockSiteResolver:
    """Names the declared lock a running acquisition takes.

    Shared by the runtime lock-order tracker and the lock-wait watchdog.
    From the given frame it walks up the stack; the first frame in a file
    of the site table decides — its line is a known acquisition site (the
    lock's role and ``path:line``) or nothing resolves.
    """

    #: How far up the stack the walk looks for a site file.
    max_frames = 20

    def __init__(self, sites: dict[tuple[str, int], LockSite]):
        self.sites = sites
        self._files = {path for path, _line in sites}

    @classmethod
    def for_package(
        cls, roots: Iterable[Path] | None = None, config: ProjectConfig | None = None
    ) -> "LockSiteResolver":
        """The resolver over ``roots`` (default: the installed package)."""
        if roots is None:
            import repro

            roots = [Path(repro.__file__).resolve().parent]
        return cls(collect_lock_sites(roots, config or DEFAULT_CONFIG))

    def resolve(self, frame) -> tuple[str | None, str]:
        for _ in range(self.max_frames):
            if frame is None:
                break
            resolved = _realpath(frame.f_code.co_filename)
            if resolved in self._files:
                site = self.sites.get((resolved, frame.f_lineno))
                if site is not None and site.lock_id is not None:
                    return site.lock_id, f"{site.path}:{site.line}"
                return None, ""
            frame = frame.f_back
        return None, ""
