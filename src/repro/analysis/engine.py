"""Core machinery for the ``repro.analysis`` static analyzer.

The engine is deliberately small and stdlib-only: it discovers Python
sources, parses them once into :class:`SourceModule` objects (AST plus
the raw text and the inline suppression comments), runs every registered
rule over each module, and folds the results into a :class:`Report`.

Suppressions
------------
A finding can be silenced with an inline comment::

    some_code()  # repro: allow(rule-id) — reason why this is safe

or, for statements too long to annotate inline, on the line directly
above the offending statement::

    # repro: allow(durability-protocol) — startup recovery, one thread
    state = self._journal.load(name, repair=True)

Multiple rule ids may be listed, comma separated.  Every suppression
must carry a reason; a reasonless or unused suppression is itself
reported (rule id ``unused-suppression``), so stale allowances cannot
linger after the code they excused is gone.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "Suppression",
    "SourceModule",
    "Rule",
    "Report",
    "Analyzer",
    "dotted",
    "load_module",
    "iter_python_files",
]

# Matches "repro: allow(rule-a, rule-b)" comments followed by a reason;
# the reason separator may be an em dash, double hyphen, hyphen, or colon.
# (Spelled without a leading hash here so the analyzer does not read this
# very comment as a suppression.)
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([a-zA-Z0-9_-]+(?:\s*,\s*[a-zA-Z0-9_-]+)*)\s*\)"
    r"\s*(?:(?:—|--|-|:)\s*(\S.*?))?\s*$"
)

UNUSED_SUPPRESSION = "unused-suppression"
PARSE_ERROR = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    message: str
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """An inline ``# repro: allow(...)`` comment."""

    rules: tuple[str, ...]
    line: int
    reason: str
    own_line: bool
    #: Rule ids that actually matched a finding — filled in by the engine.
    used: set[str] = field(default_factory=set)

    def covers(self, rule: str) -> bool:
        return rule in self.rules


@dataclass
class SourceModule:
    """A parsed source file plus everything rules need to inspect it."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    lines: list[str]
    suppressions: list[Suppression]
    #: line number -> suppressions covering findings on that line.
    covering: dict[int, list[Suppression]]

    def suppressions_for(self, line: int) -> list[Suppression]:
        return self.covering.get(line, [])

    def matches(self, suffix: str) -> bool:
        """True when this module's path ends with ``suffix`` (e.g.
        ``service/workspace.py``), respecting path-component boundaries."""
        if self.rel == suffix:
            return True
        return self.rel.endswith("/" + suffix)

    def in_scope(self, scopes: Sequence[str]) -> bool:
        """Substring scope match; an empty-string scope matches everything."""
        return any(scope == "" or scope in self.rel for scope in scopes)


class Rule:
    """Base class for checkers.

    ``check`` runs once per module and returns its findings.
    """

    id: str = "rule"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        return ()


def dotted(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")``; ``()`` for anything else."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return dotted(node.value) + (node.attr,)
    return ()


def _parse_suppressions(text: str, lines: list[str]) -> list[Suppression]:
    suppressions: list[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(tok.string)
            if match is None:
                continue
            rules = tuple(part.strip() for part in match.group(1).split(","))
            reason = (match.group(2) or "").strip()
            line = tok.start[0]
            own_line = lines[line - 1].lstrip().startswith("#")
            suppressions.append(
                Suppression(rules=rules, line=line, reason=reason, own_line=own_line)
            )
    except tokenize.TokenError:
        pass
    return suppressions


def _is_blank_or_comment(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _build_covering(
    suppressions: list[Suppression], lines: list[str]
) -> dict[int, list[Suppression]]:
    covering: dict[int, list[Suppression]] = {}
    for sup in suppressions:
        covered = [sup.line]
        if sup.own_line:
            # A standalone comment covers the next code line, skipping
            # blanks and further comments.
            cursor = sup.line  # 0-based index of the next line
            while cursor < len(lines) and _is_blank_or_comment(lines[cursor]):
                cursor += 1
            if cursor < len(lines):
                covered.append(cursor + 1)
        for line in covered:
            covering.setdefault(line, []).append(sup)
    return covering


def load_module(path: Path, rel: str | None = None) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises :class:`SyntaxError` if the file does not parse; the analyzer
    turns that into a ``parse-error`` finding rather than crashing.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    suppressions = _parse_suppressions(text, lines)
    return SourceModule(
        path=path,
        rel=rel if rel is not None else path.as_posix(),
        text=text,
        tree=tree,
        lines=lines,
        suppressions=suppressions,
        covering=_build_covering(suppressions, lines),
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


@dataclass
class Report:
    """The outcome of one analyzer run."""

    findings: list[Finding]
    suppressed: list[Finding]
    files: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, object]:
        return {
            "tool": "repro-lint",
            "version": 1,
            "ok": self.ok,
            "files": self.files,
            "summary": self.summary(),
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def render_text(self) -> str:
        out: list[str] = []
        for finding in self.findings:
            out.append(finding.render())
        noun = "file" if self.files == 1 else "files"
        if self.findings:
            out.append("")
            parts = ", ".join(f"{rule}: {n}" for rule, n in self.summary().items())
            out.append(
                f"{len(self.findings)} finding(s) in {self.files} {noun} ({parts}); "
                f"{len(self.suppressed)} suppressed."
            )
        else:
            out.append(
                f"OK: {self.files} {noun} clean "
                f"({len(self.suppressed)} finding(s) suppressed)."
            )
        return "\n".join(out) + "\n"


class Analyzer:
    """Runs a set of rules over a file tree and applies suppressions."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)

    def run(self, paths: Iterable[Path | str]) -> Report:
        modules: list[SourceModule] = []
        raw_findings: list[Finding] = []
        files = 0
        for path in iter_python_files(Path(p) for p in paths):
            files += 1
            try:
                modules.append(load_module(path))
            except SyntaxError as exc:
                raw_findings.append(
                    Finding(
                        rule=PARSE_ERROR,
                        path=path.as_posix(),
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )

        by_rel = {module.rel: module for module in modules}
        for rule in self.rules:
            for module in modules:
                raw_findings.extend(rule.check(module))

        active: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in sorted(raw_findings, key=lambda f: (f.path, f.line, f.rule)):
            module = by_rel.get(finding.path)
            matched = None
            if module is not None and finding.rule != PARSE_ERROR:
                for sup in module.suppressions_for(finding.line):
                    if sup.covers(finding.rule):
                        matched = sup
                        break
            if matched is not None:
                matched.used.add(finding.rule)
                suppressed.append(finding)
            else:
                active.append(finding)

        # Unused or reasonless suppressions are findings themselves and
        # cannot be suppressed in turn.
        for module in modules:
            for sup in module.suppressions:
                stale = [rule for rule in sup.rules if rule not in sup.used]
                if stale:
                    active.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION,
                            path=module.rel,
                            line=sup.line,
                            message=(
                                "suppression does not match any finding: "
                                f"allow({', '.join(stale)})"
                            ),
                        )
                    )
                if sup.used and not sup.reason:
                    active.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION,
                            path=module.rel,
                            line=sup.line,
                            message=(
                                "suppression must carry a reason: "
                                "# repro: allow(rule) — why this is safe"
                            ),
                        )
                    )

        active.sort(key=lambda f: (f.path, f.line, f.rule))
        return Report(findings=active, suppressed=suppressed, files=files)
