"""Project-invariant static analysis (``repro-lint``).

Six AST-based checkers encode the repository's load-bearing contracts
as machine-checked rules:

==========================  ============================================
rule id                     invariant
==========================  ============================================
``lock-order``              each lock made by lockhook with a known role
``snapshot-immutability``   published tables/stores never mutated
``determinism``             no ambient RNG/clock/hash-order in the core
``durability-protocol``     WAL writes fsynced and owner-only
``async-hygiene``           no blocking calls on the event loop
``trace-hygiene``           spans closed on every path, literal keys
==========================  ============================================

See ``docs/ANALYSIS.md`` for the full catalog and suppression syntax.
"""

from __future__ import annotations

from .async_hygiene import AsyncHygieneRule
from .determinism import DeterminismRule
from .durability import DurabilityRule
from .engine import Analyzer, Finding, Report, Rule, SourceModule
from .immutability import ImmutabilityRule
from .lock_roles import LockOrderRule
from .project import DEFAULT_CONFIG, ProjectConfig
from .tracing import TraceHygieneRule

__all__ = [
    "Analyzer",
    "AsyncHygieneRule",
    "DEFAULT_CONFIG",
    "DeterminismRule",
    "DurabilityRule",
    "Finding",
    "ImmutabilityRule",
    "LockOrderRule",
    "ProjectConfig",
    "Report",
    "Rule",
    "SourceModule",
    "TraceHygieneRule",
    "build_analyzer",
]


def default_rules(config: ProjectConfig | None = None) -> list[Rule]:
    config = config or DEFAULT_CONFIG
    return [
        LockOrderRule(),
        ImmutabilityRule(config),
        DeterminismRule(config),
        DurabilityRule(config),
        AsyncHygieneRule(config),
        TraceHygieneRule(config),
    ]


def build_analyzer(config: ProjectConfig | None = None) -> Analyzer:
    """The analyzer with all six project rules installed."""
    return Analyzer(default_rules(config))
