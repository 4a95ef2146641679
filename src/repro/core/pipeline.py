"""The staged query execution pipeline: plan → enumerate → score → rank.

A multi-class request that ranked one class at a time would re-enumerate
the candidate tuples once per class.  :class:`QueryPipeline` runs the
work as four explicit stages instead:

1. **plan** — resolve each :class:`~repro.core.query.InsightQuery` against
   the registry, apply default candidate caps, and compute a *share key*
   from :meth:`~repro.core.insight.InsightClass.candidate_domain` so that
   classes enumerating the same domain can pool their enumeration;
2. **enumerate** — produce the admissible candidate tuples per query.  A
   domain shared by two or more planned queries is materialised **once**
   and re-filtered per query; unshared queries — and queries carrying a
   ``max_candidates`` cap, which must keep the lazy early-stop that avoids
   materialising a large domain to serve a few tuples — iterate privately;
3. **score** — evaluate the insight metric over the admissible candidates
   (batched / sketch-backed where the class supports it), one
   ``score_all`` call per query on the calling thread.  Queries over the
   same shared candidate domain whose constraints don't prune (their
   admissible list *is* the full domain) share scored candidates, not
   just enumerated tuples: the first query of each
   ``(class, mode, domain)`` group pays for scoring and the rest reuse
   its batch, so a batch of unpruned same-class queries scores each
   candidate once;

4. **rank** — apply the metric-range filter, sort (score descending, ties
   broken by attribute names for determinism) and take the top-k.

:class:`PipelineStats` counts raw enumerations, shared queries, actual
metric evaluations and score-batch reuse; the serving layer
(:mod:`repro.service.workspace`) surfaces those counters as response
provenance, and the pipeline tests use them to prove that a multi-class
request over same-arity classes enumerates only once and that unpruned
same-class queries score each candidate once, not twice.

The implementation lives in :mod:`repro.core` (it is execution-engine
machinery); :mod:`repro.service` re-exports it as part of the public
serving namespace, keeping the import graph strictly core ← service.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.resources import record_candidates
from repro.obs.tracer import obs_span
from repro.core.insight import (
    EvaluationContext,
    Insight,
    InsightClass,
    ScoredCandidate,
)
from repro.core.query import InsightQuery
from repro.core.registry import InsightRegistry


@dataclass
class RankingResult:
    """Ranked insights plus bookkeeping about the search."""

    query: InsightQuery
    insights: list[Insight]
    n_candidates: int = 0
    n_scored: int = 0
    n_admitted: int = 0
    truncated: bool = False
    details: dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.insights)

    def __len__(self) -> int:
        return len(self.insights)

    def top(self) -> Insight | None:
        return self.insights[0] if self.insights else None

    def attribute_sets(self) -> list[tuple[str, ...]]:
        return [insight.attributes for insight in self.insights]


@dataclass
class PipelineStats:
    """Counters accumulated over one pipeline execution."""

    #: How many times a class's ``candidates()`` iterator was actually run.
    enumerations: int = 0
    #: Queries answered from an enumeration another query already paid for.
    shared_queries: int = 0
    #: Total queries executed.
    n_queries: int = 0
    #: Total candidate tuples scored across all queries (reuse included).
    n_scored: int = 0
    #: Candidate tuples actually submitted to a metric evaluation.  When
    #: cross-query score sharing engages this stays below the sum of
    #: per-query admissible counts — the proof that a shared candidate
    #: was scored once, not once per query.
    score_evaluations: int = 0
    #: Queries whose scored batch was reused from an earlier query of the
    #: same (class, mode, domain) group.
    shared_score_queries: int = 0
    #: Wall-clock seconds for the whole execution.
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "enumerations": self.enumerations,
            "shared_queries": self.shared_queries,
            "n_queries": self.n_queries,
            "n_scored": self.n_scored,
            "score_evaluations": self.score_evaluations,
            "shared_score_queries": self.shared_score_queries,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def merge(self, other: "PipelineStats") -> None:
        """Fold another execution's counters into this accumulator.

        The serving layer keeps one long-lived ``PipelineStats`` per
        workspace and merges every request's per-execution stats into it,
        so operational surfaces (``/metrics``) can report lifetime
        pipeline totals without the pipeline itself holding shared state.
        """
        self.enumerations += other.enumerations
        self.shared_queries += other.shared_queries
        self.n_queries += other.n_queries
        self.n_scored += other.n_scored
        self.score_evaluations += other.score_evaluations
        self.shared_score_queries += other.shared_score_queries
        self.elapsed_seconds += other.elapsed_seconds


@dataclass(frozen=True)
class PlannedQuery:
    """Stage-1 output: a query bound to its insight class and share key."""

    query: InsightQuery
    insight_class: InsightClass
    #: (candidate_domain, arity) when the class opts into shared
    #: enumeration, else None.
    share_key: tuple[str, int] | None


@dataclass
class ExecutionPlan:
    """The full plan for one (possibly multi-class) request."""

    queries: list[PlannedQuery]

    def share_groups(self) -> dict[tuple[str, int], int]:
        """How many planned queries fall in each shareable domain."""
        groups: dict[tuple[str, int], int] = {}
        for planned in self.queries:
            if planned.share_key is not None:
                groups[planned.share_key] = groups.get(planned.share_key, 0) + 1
        return groups


@dataclass
class Enumeration:
    """Stage-2 output for one query."""

    admissible: list[tuple[str, ...]]
    truncated: bool = False
    n_candidates: int = 0
    #: Wall-clock spent enumerating/filtering for this query.  The one-off
    #: materialisation of a shared domain is charged to the first query of
    #: its group (whose ``candidates()`` call actually paid for it).
    elapsed_seconds: float = 0.0
    #: Set to the enumeration share key when the admissible list is the
    #: *unpruned* shared domain — the precondition for the score stage to
    #: share this query's scored batch with its domain-mates.
    score_share_key: tuple[str, int] | None = None


@dataclass
class ScoredBatch:
    """Stage-3 output for one query."""

    candidates: list[ScoredCandidate]
    elapsed_seconds: float = 0.0


class QueryPipeline:
    """Executes insight queries in explicit stages with shared enumeration.

    Every stage runs on the calling thread.  One pipeline instance is
    safe to use from many threads concurrently: every per-execution
    structure is call-local.
    """

    def __init__(self, registry: InsightRegistry):
        self._registry = registry

    @property
    def registry(self) -> InsightRegistry:
        return self._registry

    # ------------------------------------------------------------------
    # Stage 1: plan
    # ------------------------------------------------------------------
    def plan(
        self,
        queries: Sequence[InsightQuery],
        default_caps: Callable[[InsightQuery], InsightQuery] | None = None,
    ) -> ExecutionPlan:
        """Resolve classes, apply caps and compute enumeration share keys.

        Queries with a ``max_candidates`` cap never share: the lazy private
        iteration stops as soon as the cap is reached, whereas a shared
        domain must be fully materialised — for a capped query on a wide
        table that would trade a bounded walk for an unbounded one.
        """
        planned = []
        for query in queries:
            if default_caps is not None:
                query = default_caps(query)
            insight_class = self._registry.get(query.insight_class)
            domain = insight_class.candidate_domain()
            share_key = (
                (domain, insight_class.arity)
                if domain and query.max_candidates is None
                else None
            )
            planned.append(
                PlannedQuery(
                    query=query, insight_class=insight_class, share_key=share_key
                )
            )
        return ExecutionPlan(planned)

    # ------------------------------------------------------------------
    # Stage 2: enumerate
    # ------------------------------------------------------------------
    def enumerate(
        self,
        plan: ExecutionPlan,
        context: EvaluationContext,
        stats: PipelineStats | None = None,
    ) -> list[Enumeration]:
        """Admissible candidates per query, enumerating shared domains once."""
        stats = stats if stats is not None else PipelineStats()
        group_sizes = plan.share_groups()
        shared: dict[tuple[str, int], list[tuple[str, ...]]] = {}
        enumerations = []
        for planned in plan.queries:
            start = time.perf_counter()
            key = planned.share_key
            domain_size = None
            if key is not None and group_sizes.get(key, 0) >= 2:
                if key not in shared:
                    shared[key] = list(
                        planned.insight_class.candidates(context.table)
                    )
                    stats.enumerations += 1
                else:
                    stats.shared_queries += 1
                candidates = iter(shared[key])
                domain_size = len(shared[key])
            else:
                candidates = planned.insight_class.candidates(context.table)
                stats.enumerations += 1
            enumeration = self._filter_candidates(candidates, planned.query, context)
            record_candidates(
                enumeration.n_candidates,
                enumeration.n_candidates - len(enumeration.admissible),
            )
            if (
                domain_size is not None
                and not enumeration.truncated
                and len(enumeration.admissible) == domain_size
            ):
                # Constraints pruned nothing: the admissible list is the
                # whole shared domain, so scored batches are shareable too.
                enumeration.score_share_key = key
            enumeration.elapsed_seconds = time.perf_counter() - start
            enumerations.append(enumeration)
        return enumerations

    # ------------------------------------------------------------------
    # Stage 3: score
    # ------------------------------------------------------------------
    def score(
        self,
        plan: ExecutionPlan,
        enumerations: Sequence[Enumeration],
        context: EvaluationContext,
        stats: PipelineStats | None = None,
    ) -> list[ScoredBatch]:
        """Metric values for every admissible candidate of every query.

        Queries whose enumeration carries a ``score_share_key`` (same
        shared domain, nothing pruned) additionally share scoring per
        ``(class, mode, domain)`` group — the first query pays, the rest
        reuse its scored batch.
        """
        batches = []
        shared_scores: dict[tuple[str, str, tuple[str, int]], list[ScoredCandidate]] = {}
        for planned, enumeration in zip(plan.queries, enumerations):
            start = time.perf_counter()
            query_context = self._apply_mode(planned.query, context)
            share_key = (
                (
                    planned.insight_class.name,
                    query_context.mode,
                    enumeration.score_share_key,
                )
                if enumeration.score_share_key is not None
                else None
            )
            if share_key is not None and share_key in shared_scores:
                scored = shared_scores[share_key]
                if stats is not None:
                    stats.shared_score_queries += 1
            else:
                scored = self._score_one(
                    planned.insight_class,
                    enumeration.admissible,
                    query_context,
                    stats,
                )
                if share_key is not None:
                    shared_scores[share_key] = scored
            if stats is not None:
                stats.n_scored += len(scored)
            batches.append(
                ScoredBatch(
                    candidates=scored,
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
        return batches

    @staticmethod
    def _score_one(
        insight_class: InsightClass,
        admissible: list[tuple[str, ...]],
        query_context: EvaluationContext,
        stats: PipelineStats | None,
    ) -> list[ScoredCandidate]:
        """Score one query's admissible candidates as a single batch."""
        if not admissible:
            return []
        if stats is not None:
            stats.score_evaluations += len(admissible)
        return insight_class.score_all(admissible, query_context)

    # ------------------------------------------------------------------
    # Stage 4: rank
    # ------------------------------------------------------------------
    def rank(
        self,
        plan: ExecutionPlan,
        enumerations: Sequence[Enumeration],
        batches: Sequence[ScoredBatch],
        context: EvaluationContext,
    ) -> list[RankingResult]:
        """Metric-range filter, deterministic sort, top-k, packaging.

        Each result's ``details["elapsed_seconds"]`` is the measured time
        this query spent across the enumerate, score and rank stages.
        """
        results = []
        for planned, enumeration, batch in zip(plan.queries, enumerations, batches):
            start = time.perf_counter()
            query = planned.query
            scored = batch.candidates
            admitted = [c for c in scored if query.admits_score(c.score)]
            ranked = self._sort(admitted)[: query.top_k]
            insights = [planned.insight_class.to_insight(c) for c in ranked]
            rank_seconds = time.perf_counter() - start
            results.append(
                RankingResult(
                    query=query,
                    insights=insights,
                    n_candidates=enumeration.n_candidates,
                    n_scored=len(scored),
                    n_admitted=len(admitted),
                    truncated=enumeration.truncated,
                    details={
                        "mode": self._apply_mode(query, context).mode,
                        "elapsed_seconds": (
                            enumeration.elapsed_seconds
                            + batch.elapsed_seconds
                            + rank_seconds
                        ),
                    },
                )
            )
        return results

    # ------------------------------------------------------------------
    # All stages in one call
    # ------------------------------------------------------------------
    def execute(
        self,
        queries: Sequence[InsightQuery],
        context: EvaluationContext,
        default_caps: Callable[[InsightQuery], InsightQuery] | None = None,
        stats: PipelineStats | None = None,
    ) -> list[RankingResult]:
        """Run plan → enumerate → score → rank and return one result per query."""
        stats = stats if stats is not None else PipelineStats()
        start = time.perf_counter()
        with obs_span("pipeline.execute") as execute_span:
            with obs_span("pipeline.plan"):
                plan = self.plan(queries, default_caps=default_caps)
            with obs_span("pipeline.enumerate") as enumerate_span:
                enumerations = self.enumerate(plan, context, stats=stats)
                enumerate_span.set_attribute("enumerations", stats.enumerations)
            with obs_span("pipeline.score") as score_span:
                batches = self.score(plan, enumerations, context, stats=stats)
                score_span.set_attribute(
                    "score_evaluations", stats.score_evaluations
                )
            with obs_span("pipeline.rank"):
                results = self.rank(plan, enumerations, batches, context)
            stats.n_queries += len(queries)
            stats.elapsed_seconds += time.perf_counter() - start
            execute_span.set_attribute("n_queries", stats.n_queries)
            execute_span.set_attribute("n_scored", stats.n_scored)
            execute_span.set_attribute("shared_queries", stats.shared_queries)
            execute_span.set_attribute(
                "shared_score_queries", stats.shared_score_queries
            )
        return results

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_mode(query: InsightQuery, context: EvaluationContext) -> EvaluationContext:
        if query.mode == context.mode:
            return context
        return EvaluationContext(table=context.table, store=context.store, mode=query.mode)

    @staticmethod
    def _sort(candidates: list[ScoredCandidate]) -> list[ScoredCandidate]:
        return sorted(candidates, key=lambda c: (-c.score, c.attributes))

    @staticmethod
    def _filter_candidates(
        candidates, query: InsightQuery, context: EvaluationContext
    ) -> Enumeration:
        """Apply fixed/excluded/tag constraints, stopping at ``max_candidates``."""
        admissible: list[tuple[str, ...]] = []
        truncated = False
        n_candidates = 0
        attribute_tags = (
            {field.name: field.tags for field in context.table.schema}
            if query.required_tags
            else {}
        )
        for attributes in candidates:
            n_candidates += 1
            if not query.admits_attributes(attributes):
                continue
            if not query.admits_tags(attribute_tags, attributes):
                continue
            admissible.append(attributes)
            if (
                query.max_candidates is not None
                and len(admissible) >= query.max_candidates
            ):
                truncated = True
                break
        return Enumeration(
            admissible=admissible, truncated=truncated, n_candidates=n_candidates
        )
