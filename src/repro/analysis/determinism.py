"""Determinism checker for the ranking core.

The paper's headline reproducibility claim — identical insight rankings
for identical inputs, byte-for-byte across serial and parallel execution
— only holds if the scoring pipeline never consults ambient state.
Inside the configured scopes (``core/``, ``stats/``, ``sketch/``) this
rule flags:

* module-level ``random.*`` calls and unseeded NumPy generators
  (``numpy.random.<fn>`` legacy API, or ``default_rng()`` with no seed);
* wall-clock reads: ``time.time()``/``time.time_ns()``/
  ``datetime.now()``/``utcnow()``/``today()``;
* iterating a ``set``/``frozenset`` expression or ``dict.keys()`` view
  directly — hash order feeding ordered output.  Wrapping the iterable
  in ``sorted(...)`` is the sanctioned fix and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import Finding, Rule, SourceModule, dotted
from .project import ProjectConfig

__all__ = ["DeterminismRule"]

RULE_ID = "determinism"

_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


def _is_set_like(node: ast.expr) -> bool:
    """Does this expression produce a hash-ordered iterable?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


class DeterminismRule(Rule):
    id = RULE_ID

    def __init__(self, config: ProjectConfig):
        self.config = config

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not module.in_scope(self.config.determinism_scopes):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node))
            for iterable in self._ordered_iterables(node):
                if _is_set_like(iterable):
                    findings.append(
                        Finding(
                            rule=RULE_ID,
                            path=module.rel,
                            line=iterable.lineno,
                            message=(
                                "iteration over a set/dict-keys expression feeds "
                                "hash order into output; wrap it in sorted(...)"
                            ),
                        )
                    )
        return findings

    def _ordered_iterables(self, node: ast.AST) -> Iterator[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            # SetComp feeding a set is unordered anyway, but iterating a
            # set inside any comprehension is still order-sensitive once
            # the result is consumed; flag uniformly.
            for gen in node.generators:
                yield gen.iter
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("list", "tuple", "enumerate"):
                if node.args:
                    yield node.args[0]

    def _check_call(self, module: SourceModule, node: ast.Call) -> Iterator[Finding]:
        parts = dotted(node.func)
        if not parts:
            return
        # random.random(), random.shuffle(), ...
        if parts[0] == "random" and len(parts) == 2:
            yield Finding(
                rule=RULE_ID,
                path=module.rel,
                line=node.lineno,
                message=(
                    f"module-level random.{parts[1]}() uses unseeded global state; "
                    "use numpy.random.default_rng(seed) instead"
                ),
            )
            return
        # numpy.random legacy API and unseeded default_rng().
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            fn = parts[2]
            if fn == "default_rng":
                if not node.args and not node.keywords:
                    yield Finding(
                        rule=RULE_ID,
                        path=module.rel,
                        line=node.lineno,
                        message="default_rng() without a seed is nondeterministic",
                    )
            elif fn not in ("Generator", "SeedSequence", "PCG64"):
                yield Finding(
                    rule=RULE_ID,
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"legacy numpy.random.{fn}() draws from hidden global "
                        "state; use numpy.random.default_rng(seed)"
                    ),
                )
            return
        # Wall-clock reads.
        tail = parts[-2:] if len(parts) >= 2 else ()
        if tuple(tail) in _CLOCK_CALLS:
            yield Finding(
                rule=RULE_ID,
                path=module.rel,
                line=node.lineno,
                message=(
                    f"wall-clock read {'.'.join(parts)}() in deterministic scope; "
                    "inject a clock or take timestamps at the service layer"
                ),
            )
