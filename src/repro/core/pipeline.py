"""The staged query execution pipeline: plan → enumerate → score → rank.

An insight query re-ranks the same scored insight space every time it is
asked of one published snapshot.  :class:`QueryPipeline` runs each
request as four explicit stages over that snapshot's
:class:`InsightIndex`:

1. **plan** — resolve each :class:`~repro.core.query.InsightQuery` against
   the registry and apply default candidate caps;
2. **enumerate** — filter the class's candidate domain by the query's
   constraints, stopping at ``max_candidates``.  The index enumerates each
   domain once per snapshot: classes that declare the same
   :meth:`~repro.core.insight.InsightClass.candidate_domain` share it,
   and every later query re-filters it.  A capped query keeps its lazy
   early stop on a domain larger than its cap, which the index then does
   not hold;
3. **score** — one ``score_all`` call per query, on only the admissible
   candidates the index does not hold yet; the rest are gathered from
   it.  A gathered score is the score the query would have computed,
   because a candidate's value does not depend on its batch (the
   :meth:`~repro.core.insight.InsightClass.score_all` contract);
4. **rank** — apply the metric-range filter, sort (score descending, ties
   broken by attribute names for determinism) and take the top-k.

The index lives and dies with the engine of one ``(version, seq)``: an
append, rebuild, reload or replace publishes a new engine and starts cold.
Filling it takes no lock — two threads racing on a cold snapshot compute
identical values, and the first to store one keeps it.

:class:`PipelineStats` counts what an execution actually did:
enumerations run, queries answered from a memoised domain, candidates
submitted to a metric and candidates answered from the index.  Those
counters describe the index's warmth, so the serving layer
(:mod:`repro.service.workspace`) keeps them out of a response and sums
them for ``/metrics``.

The implementation lives in :mod:`repro.core` (it is execution-engine
machinery); :mod:`repro.service` re-exports it as part of the public
serving namespace, keeping the import graph strictly core ← service.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

from repro.data.table import DataTable
from repro.obs.ledger import domain_bytes, scored_candidate_bytes
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
    #: Queries answered from a domain the index already held.
    shared_queries: int = 0
    #: Total queries executed.
    n_queries: int = 0
    #: Total candidate tuples scored across all queries (gathered included).
    n_scored: int = 0
    #: Candidate tuples actually submitted to a metric evaluation.
    score_evaluations: int = 0
    #: Candidate tuples answered from the index instead.
    index_hits: int = 0
    #: Queries with admissible candidates that submitted none of them.
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
            "index_hits": self.index_hits,
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
        self.index_hits += other.index_hits
        self.shared_score_queries += other.shared_score_queries
        self.elapsed_seconds += other.elapsed_seconds


class InsightIndex:
    """One snapshot's memoised insight space: domains and scores.

    Two memos, filled on first use and never evicted:

    * per class, its candidate tuples on a table — keyed by
      ``(candidate_domain(), arity)`` where the class declares a domain,
      else by the class instance.  A capped query stores a domain only if
      it is no longer than the cap;
    * every candidate score computed on a held domain, keyed by class
      instance and mode, and by the evaluation context's table and store
      identity.

    So the index never holds more than the uncapped queries enumerate,
    plus at most one cap's worth of tuples per capped domain.

    A registered class's score must therefore be a pure function of
    (snapshot, mode, tuple): changing a class's parameters means
    registering a new instance.  A memoised :class:`ScoredCandidate` is
    shared by every later query; packaging copies its ``details``.
    """

    def __init__(self) -> None:
        self._domains: dict[tuple, tuple[tuple[str, ...], ...]] = {}
        self._scores: dict[tuple, dict[tuple[str, ...], ScoredCandidate | None]] = {}
        #: Bytes each fill stored (``list.append`` is atomic: no lock).
        self._fills: list[int] = []

    @property
    def nbytes(self) -> int:
        """Bytes of the memoised domains and scored candidates (the
        payload: dict slots and the shared column-name strings excluded)."""
        return sum(self._fills)

    @staticmethod
    def _domain_key(insight_class: InsightClass, table: DataTable) -> tuple:
        # Tables and classes hash by identity, and a key keeps its objects
        # alive as long as the index does.
        declared = insight_class.candidate_domain()
        if declared:
            return (table, declared, insight_class.arity)
        return (table, insight_class)

    def domain(
        self,
        insight_class: InsightClass,
        table: DataTable,
        cap: int | None = None,
    ) -> tuple[Iterable[tuple[str, ...]], bool]:
        """The class's candidate tuples on ``table``, and whether this
        call ran ``candidates()`` to get them.

        A domain the index does not hold is enumerated and stored, except
        under a ``cap`` (a query's ``max_candidates``): then it is stored
        only if it holds no more than ``cap`` tuples, and otherwise walked
        lazily, so the query stops early and the index stays bounded.
        """
        key = self._domain_key(insight_class, table)
        held = self._domains.get(key)
        if held is not None:
            return held, False
        walk = iter(insight_class.candidates(table))
        domain = tuple(walk if cap is None else islice(walk, cap + 1))
        if cap is not None and len(domain) > cap:
            return chain(domain, walk), True
        kept = self._domains.setdefault(key, domain)
        if kept is domain:
            self._fills.append(domain_bytes(domain))
        return kept, True

    def scored(
        self,
        insight_class: InsightClass,
        admissible: Sequence[tuple[str, ...]],
        context: EvaluationContext,
    ) -> tuple[list[ScoredCandidate], int]:
        """``score_all(admissible, context)``, and how many candidates it
        submitted to the metric: one ``score_all`` call on those the
        index does not hold, the rest gathered.

        Scores are memoised only from a domain the index holds, so the
        memo never outgrows its domains; candidates a capped walk found
        are scored afresh.
        """
        if not admissible:
            return [], 0
        if self._domain_key(insight_class, context.table) not in self._domains:
            return insight_class.score_all(admissible, context), len(admissible)
        key = (insight_class, context.mode, context.table, context.store)
        memo = self._scores.setdefault(key, {})
        missing = [attributes for attributes in admissible if attributes not in memo]
        if missing:
            fresh = {
                scored.attributes: scored
                for scored in insight_class.score_all(missing, context)
            }
            added = 0
            for attributes in missing:
                value = fresh.get(attributes)
                if memo.setdefault(attributes, value) is value and value is not None:
                    added += scored_candidate_bytes(value)
            self._fills.append(added)
        gathered = [memo[attributes] for attributes in admissible]
        return [scored for scored in gathered if scored is not None], len(missing)


@dataclass(frozen=True)
class PlannedQuery:
    """Stage-1 output: a query bound to its insight class."""

    query: InsightQuery
    insight_class: InsightClass


@dataclass
class ExecutionPlan:
    """The full plan for one (possibly multi-class) request."""

    queries: list[PlannedQuery]


@dataclass
class Enumeration:
    """Stage-2 output for one query."""

    admissible: list[tuple[str, ...]]
    truncated: bool = False
    n_candidates: int = 0
    #: Wall-clock spent enumerating/filtering for this query.  The one-off
    #: enumeration of a domain is charged to the query that ran it.
    elapsed_seconds: float = 0.0


@dataclass
class ScoredBatch:
    """Stage-3 output for one query."""

    candidates: list[ScoredCandidate]
    elapsed_seconds: float = 0.0


class QueryPipeline:
    """Executes insight queries in explicit stages over an insight index.

    Every stage runs on the calling thread.  One pipeline instance is
    safe to use from many threads concurrently: every per-execution
    structure is call-local, and its :class:`InsightIndex` fills without
    a lock.
    """

    def __init__(self, registry: InsightRegistry):
        self._registry = registry
        self._index = InsightIndex()

    @property
    def registry(self) -> InsightRegistry:
        return self._registry

    @property
    def index(self) -> InsightIndex:
        """The memoised domains and scores of every query this pipeline ran."""
        return self._index

    # ------------------------------------------------------------------
    # Stage 1: plan
    # ------------------------------------------------------------------
    def plan(
        self,
        queries: Sequence[InsightQuery],
        default_caps: Callable[[InsightQuery], InsightQuery] | None = None,
    ) -> ExecutionPlan:
        """Resolve classes and apply default candidate caps."""
        planned = []
        for query in queries:
            if default_caps is not None:
                query = default_caps(query)
            planned.append(
                PlannedQuery(
                    query=query,
                    insight_class=self._registry.get(query.insight_class),
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
        """Admissible candidates per query, filtered from the index's domains."""
        stats = stats if stats is not None else PipelineStats()
        enumerations = []
        for planned in plan.queries:
            start = time.perf_counter()
            domain, enumerated = self._index.domain(
                planned.insight_class, context.table, planned.query.max_candidates
            )
            if enumerated:
                stats.enumerations += 1
            else:
                stats.shared_queries += 1
            enumeration = self._filter_candidates(domain, planned.query, context)
            record_candidates(
                enumeration.n_candidates,
                enumeration.n_candidates - len(enumeration.admissible),
            )
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
        """Metric values for every admissible candidate of every query:
        one ``score_all`` call per query on what the index does not hold."""
        stats = stats if stats is not None else PipelineStats()
        batches = []
        for planned, enumeration in zip(plan.queries, enumerations):
            start = time.perf_counter()
            admissible = enumeration.admissible
            scored, evaluated = self._index.scored(
                planned.insight_class,
                admissible,
                self._apply_mode(planned.query, context),
            )
            stats.score_evaluations += evaluated
            stats.index_hits += len(admissible) - evaluated
            if admissible and not evaluated:
                stats.shared_score_queries += 1
            stats.n_scored += len(scored)
            batches.append(
                ScoredBatch(
                    candidates=scored,
                    elapsed_seconds=time.perf_counter() - start,
                )
            )
        return batches

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
            execute_span.set_attribute("index_hits", stats.index_hits)
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
