"""The staged query execution pipeline: plan → enumerate → score → rank.

An insight query re-ranks the same scored insight space every time it is
asked of one published snapshot.  :class:`QueryPipeline` runs each
request as four explicit stages over that snapshot's
:class:`InsightIndex`, whose domains and scores are columns:

1. **plan** — resolve each :class:`~repro.core.query.InsightQuery` against
   the registry and apply default candidate caps;
2. **enumerate** — one mask over the class's candidate domain from the
   query's fixed, excluded and tag constraints, cut at the first
   ``max_candidates`` hits in domain order.  The index enumerates each
   domain once per snapshot: classes that declare the same
   :meth:`~repro.core.insight.InsightClass.candidate_domain` share it,
   and every later query re-masks it.  A capped query keeps its early
   stop on a domain larger than its cap, which the index then does not
   hold: it masks the walk one bounded chunk at a time, so a wide
   table's triple domain is never materialised;
3. **score** — one ``score_all`` call per query, on only the admissible
   positions the index has not scored yet; the rest are read from the
   class's score memo.  A memoised score is the score the query would
   have computed, because a candidate's value does not depend on its
   batch (the :meth:`~repro.core.insight.InsightClass.score_all`
   contract);
4. **rank** — keep the metric range, then one ``np.lexsort`` (score
   descending, ties in attribute-name order, i.e. by the position in the
   sorted domain) of the candidates that can reach the top-k.

The index lives and dies with the engine of one ``(version, seq)``: an
append, rebuild, reload or replace publishes a new engine and starts cold.
Scoring takes no lock — two threads racing on a cold snapshot compute
identical values — and readers never lock: a fill is published as a new
memo in one assignment.

:class:`PipelineStats` counts what an execution actually did:
enumerations run, queries answered from a memoised domain, candidates
submitted to a metric and candidates answered from the index.  Those
counters describe the index's warmth, so the serving layer
(:mod:`repro.service.workspace`) keeps them out of a response and sums
them for ``/metrics``.  :meth:`QueryPipeline.answers_from_index` tells,
recording nothing, whether an execution would need neither an
enumeration nor a score — the serving layer answers such a query on its
event loop.

The implementation lives in :mod:`repro.core` (it is execution-engine
machinery); :mod:`repro.service` re-exports it as part of the public
serving namespace, keeping the import graph strictly core ← service.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.table import DataTable
from repro.obs import lockhook
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


#: The most tuples a capped walk of an unheld domain masks at a time
#: (or ``cap + 1``, if more): its memory stays bounded however far it
#: walks.
_WALK_CHUNK = 4096

#: Past this many admitted candidates the rank stage sorts only those
#: that can reach the top-k: ``np.lexsort`` grows as n log n (≈ 30 ms
#: at 125 000), a partition as n, and below a few hundred the
#: partition's extra passes cost more than they save.
_PARTITION_FLOOR = 256


def _encode(tuples: Sequence[tuple[str, ...]]) -> tuple[dict[str, int], np.ndarray]:
    """``(codes, matrix)``: each attribute's code, in sorted-name order,
    and the tuples as an int32 matrix of codes, one row per tuple, a
    shorter tuple padded with -1 (below every code, as a missing
    element sorts before any name).  Column-major: a row-wise ``any``
    over it is then one pass per column."""
    flat = list(chain.from_iterable(tuples))
    codes = {name: code for code, name in enumerate(sorted(set(flat)))}
    lengths = np.fromiter(map(len, tuples), dtype=np.intp, count=len(tuples))
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.full((len(tuples), width), -1, dtype=np.int32, order="F")
    values = np.fromiter(map(codes.__getitem__, flat), dtype=np.int32,
                         count=len(flat))
    if lengths.size and (lengths == width).all():
        matrix[:] = values.reshape(len(tuples), width)
    else:
        rows = np.repeat(np.arange(len(tuples)), lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        matrix[rows, np.arange(len(flat)) - starts] = values
    return codes, matrix


def _admission(codes: Mapping[str, int], matrix: np.ndarray,
               query: InsightQuery,
               attribute_tags: Mapping[str, Sequence[str]]) -> np.ndarray:
    """The mask of rows that name every fixed attribute, no excluded one,
    and — under ``required_tags`` — only attributes carrying one of those
    tags in ``attribute_tags`` (a fixed attribute is exempt)."""
    mask = np.ones(len(matrix), dtype=bool)
    for attribute in query.fixed_attributes:
        code = codes.get(attribute)
        if code is None:
            return np.zeros(len(matrix), dtype=bool)
        mask &= (matrix == code).any(axis=1)
    if not (query.excluded_attributes or query.required_tags):
        return mask
    # One slot per code, and a last one — never barred — that the -1
    # padding indexes.
    barred = np.zeros(len(codes) + 1, dtype=bool)
    for attribute in query.excluded_attributes:
        if attribute in codes:
            barred[codes[attribute]] = True
    if query.required_tags:
        for attribute, code in codes.items():
            if attribute not in query.fixed_attributes and not any(
                    tag in query.required_tags
                    for tag in attribute_tags.get(attribute, ())):
                barred[code] = True
    mask &= ~barred[matrix].any(axis=1)
    return mask


class CandidateDomain:
    """One class's candidate tuples on one table, as columns.

    ``matrix`` holds the tuples as attribute codes (``codes``), so a
    query's fixed, excluded and tag constraints are one pass over it
    whatever the number of attributes; ``tie_rank`` is each tuple's
    position in ``sorted(tuples)``, the rank stage's tie-break.  Built
    once and never changed.
    """

    __slots__ = ("tuples", "codes", "matrix", "tie_rank", "nbytes")

    def __init__(self, tuples: tuple[tuple[str, ...], ...]) -> None:
        self.tuples = tuples
        self.codes, self.matrix = _encode(tuples)
        # Codes follow name order and the padding sorts first, so the
        # rows sort as the tuples do.
        order = (np.lexsort(self.matrix.T[::-1]) if self.matrix.shape[1]
                 else np.arange(len(tuples)))
        self.tie_rank = np.empty(len(tuples), dtype=np.int32)
        self.tie_rank[order] = np.arange(len(tuples))
        self.nbytes = (domain_bytes(tuples) + sys.getsizeof(self.codes)
                       + self.matrix.nbytes + self.tie_rank.nbytes)

    def admits(self, query: InsightQuery,
               attribute_tags: Mapping[str, Sequence[str]]) -> np.ndarray:
        """The mask of tuples the query's attribute constraints admit."""
        return _admission(self.codes, self.matrix, query, attribute_tags)


class ScoreMemo:
    """One class's scores on one domain in one mode, by domain position:
    whether a position was scored, whether the metric was defined there,
    its score, and its :class:`ScoredCandidate` (None where undefined).

    Never changed once built: a fill copies the columns
    (:meth:`filled`), so a reader holding a memo sees each flag with its
    value.
    """

    __slots__ = ("scored", "valid", "score", "candidates", "payload", "complete")

    def __init__(self, scored: np.ndarray, valid: np.ndarray, score: np.ndarray,
                 candidates: list[ScoredCandidate | None], payload: int) -> None:
        self.scored = scored
        self.valid = valid
        self.score = score
        self.candidates = candidates
        #: Bytes of the scored candidates themselves.
        self.payload = payload
        #: Whether every position of the domain is scored.
        self.complete = bool(scored.all())

    @classmethod
    def empty(cls, size: int) -> "ScoreMemo":
        return cls(np.zeros(size, dtype=bool), np.zeros(size, dtype=bool),
                   np.zeros(size), [None] * size, 0)

    @property
    def nbytes(self) -> int:
        return (self.scored.nbytes + self.valid.nbytes + self.score.nbytes
                + sys.getsizeof(self.candidates) + self.payload)

    def filled(self, positions: np.ndarray,
               values: Sequence[ScoredCandidate | None]) -> "ScoreMemo":
        """A copy that also holds ``values`` at ``positions``."""
        valid = self.valid.copy()
        score = self.score.copy()
        candidates = list(self.candidates)
        payload = self.payload
        for position, value in zip(positions.tolist(), values):
            candidates[position] = value
            if value is not None:
                valid[position] = True
                score[position] = value.score
                payload += scored_candidate_bytes(value)
        scored = self.scored.copy()
        scored[positions] = True
        return ScoreMemo(scored, valid, score, candidates, payload)

    def merged(self, other: "ScoreMemo") -> "ScoreMemo":
        """A copy that also holds what ``other`` scored and this did not."""
        positions = np.flatnonzero(other.scored & ~self.scored)
        if not positions.size:
            return self
        return self.filled(positions, [other.candidates[p] for p in positions.tolist()])


class InsightIndex:
    """One snapshot's memoised insight space: domains and scores, as columns.

    Two memos, filled on first use and never evicted:

    * per class, its :class:`CandidateDomain` on a table — keyed by
      ``(candidate_domain(), arity)`` where the class declares a domain,
      else by the class instance.  A capped query stores a domain only if
      it is no longer than the cap;
    * per class instance and mode, and evaluation context table and store
      identity, a :class:`ScoreMemo` over a held domain's positions.

    So the index never holds more than the uncapped queries enumerate,
    plus at most one cap's worth of tuples per capped domain.

    Readers take no lock.  A domain is published once
    (``dict.setdefault``); a score fill builds a new memo and swaps it
    into its slot with one assignment.  Scoring runs outside any lock;
    only the swap holds ``_publish``, a leaf lock under which a fill that
    raced another merges what that one stored, so a slot only ever gains
    scores and a query the index could answer stays answerable.

    A registered class's score must therefore be a pure function of
    (snapshot, mode, tuple): changing a class's parameters means
    registering a new instance.  A memoised :class:`ScoredCandidate` is
    shared by every later query; packaging copies its ``details``.
    """

    def __init__(self) -> None:
        self._domains: dict[tuple, CandidateDomain] = {}
        self._scores: dict[tuple, ScoreMemo] = {}
        self._publish = lockhook.lock("core.index")

    @property
    def nbytes(self) -> int:
        """Bytes of the held domains and score memos (the payload: dict
        slots and the shared column-name strings excluded)."""
        return (sum(domain.nbytes for domain in list(self._domains.values()))
                + sum(memo.nbytes for memo in list(self._scores.values())))

    @staticmethod
    def _domain_key(insight_class: InsightClass, table: DataTable) -> tuple:
        # Tables and classes hash by identity, and a key keeps its objects
        # alive as long as the index does.
        declared = insight_class.candidate_domain()
        if declared:
            return (table, declared, insight_class.arity)
        return (table, insight_class)

    def held(self, insight_class: InsightClass,
             table: DataTable) -> CandidateDomain | None:
        """The class's domain on ``table``, if the index holds it."""
        return self._domains.get(self._domain_key(insight_class, table))

    def domain(
        self,
        insight_class: InsightClass,
        table: DataTable,
        cap: int | None = None,
    ) -> CandidateDomain | Iterator[tuple[str, ...]]:
        """Enumerate the class's candidate tuples on ``table``.

        The domain is stored and returned, except under a ``cap`` (a
        query's ``max_candidates``) when it holds more than ``cap``
        tuples: then the index stays bounded and the caller gets the walk
        itself, to stop early on.
        """
        walk = iter(insight_class.candidates(table))
        head = tuple(walk if cap is None else islice(walk, cap + 1))
        if cap is not None and len(head) > cap:
            return chain(head, walk)
        return self._domains.setdefault(
            self._domain_key(insight_class, table), CandidateDomain(head))

    def memo(self, insight_class: InsightClass,
             context: EvaluationContext) -> ScoreMemo | None:
        """The scores held for the class on the context's snapshot and mode."""
        return self._scores.get(self._score_key(insight_class, context))

    @staticmethod
    def _score_key(insight_class: InsightClass, context: EvaluationContext) -> tuple:
        return (insight_class, context.mode, context.table, context.store)

    def publish(self, insight_class: InsightClass, context: EvaluationContext,
                base: ScoreMemo | None, filled: ScoreMemo) -> ScoreMemo:
        """Swap ``filled`` (a fill of ``base``) into its slot, first merging
        whatever a racing fill published since ``base`` was read."""
        key = self._score_key(insight_class, context)
        with self._publish:
            current = self._scores.get(key)
            if current is not None and current is not base:
                filled = filled.merged(current)
            self._scores[key] = filled
        return filled


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
    """Stage-2 output for one query: its admissible candidates, as
    positions into a domain."""

    domain: CandidateDomain
    #: Admissible positions, in domain order.
    positions: np.ndarray
    #: Whether ``domain`` is the index's (its scores are memoised) rather
    #: than the admissible tuples of a capped walk.
    held: bool = True
    truncated: bool = False
    n_candidates: int = 0
    #: Wall-clock spent enumerating/filtering for this query.  The one-off
    #: enumeration of a domain is charged to the query that ran it.
    elapsed_seconds: float = 0.0


@dataclass
class ScoredBatch:
    """Stage-3 output for one query: the memo its scores are read from and
    the admissible positions the metric is defined at."""

    memo: ScoreMemo
    positions: np.ndarray
    elapsed_seconds: float = 0.0


class QueryPipeline:
    """Executes insight queries in explicit stages over an insight index.

    Every stage runs on the calling thread.  One pipeline instance is
    safe to use from many threads concurrently: every per-execution
    structure is call-local, and its :class:`InsightIndex` is read
    without a lock.
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
        """Admissible candidates per query, masked from the index's
        domains."""
        stats = stats if stats is not None else PipelineStats()
        enumerations = []
        for planned in plan.queries:
            start = time.perf_counter()
            query = planned.query
            domain = self._index.held(planned.insight_class, context.table)
            if domain is not None:
                stats.shared_queries += 1
            else:
                stats.enumerations += 1
                domain = self._index.domain(
                    planned.insight_class, context.table, query.max_candidates)
            if isinstance(domain, CandidateDomain):
                enumeration = self._select(domain, query, context)
            else:
                enumeration = self._walk(domain, query, context)
            record_candidates(
                enumeration.n_candidates,
                enumeration.n_candidates - len(enumeration.positions),
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
        one ``score_all`` call per query on the positions its memo has not
        scored yet."""
        stats = stats if stats is not None else PipelineStats()
        batches = []
        for planned, enumeration in zip(plan.queries, enumerations):
            start = time.perf_counter()
            insight_class = planned.insight_class
            scoring = self._apply_mode(planned.query, context)
            positions = enumeration.positions
            base = (self._index.memo(insight_class, scoring)
                    if enumeration.held else None)
            memo = (ScoreMemo.empty(len(enumeration.domain.tuples))
                    if base is None else base)
            missing = positions[~memo.scored[positions]]
            if missing.size:
                tuples = [enumeration.domain.tuples[p] for p in missing.tolist()]
                fresh = {scored.attributes: scored
                         for scored in insight_class.score_all(tuples, scoring)}
                memo = memo.filled(missing, [fresh.get(t) for t in tuples])
                if enumeration.held:
                    memo = self._index.publish(insight_class, scoring, base, memo)
            valid = positions[memo.valid[positions]]
            stats.score_evaluations += missing.size
            stats.index_hits += positions.size - missing.size
            if positions.size and not missing.size:
                stats.shared_score_queries += 1
            stats.n_scored += valid.size
            batches.append(ScoredBatch(
                memo=memo, positions=valid,
                elapsed_seconds=time.perf_counter() - start))
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
        """Metric-range filter, then one sort — score descending, ties in
        attribute-name order — for the top-k, and packaging.

        Each result's ``details["elapsed_seconds"]`` is the measured time
        this query spent across the enumerate, score and rank stages.
        """
        results = []
        for planned, enumeration, batch in zip(plan.queries, enumerations, batches):
            start = time.perf_counter()
            query = planned.query
            scores = batch.memo.score[batch.positions]
            bounds = query.metric_range
            admitted = batch.positions[(bounds.minimum <= scores)
                                       & (scores <= bounds.maximum)]
            ranked = admitted
            if ranked.size > max(query.top_k, _PARTITION_FLOOR):
                # Only the top-k and their ties can rank: sort those.
                descending = -batch.memo.score[ranked]
                kth = np.partition(descending, query.top_k - 1)[query.top_k - 1]
                ranked = ranked[descending <= kth]
            order = np.lexsort((enumeration.domain.tie_rank[ranked],
                                -batch.memo.score[ranked]))[: query.top_k]
            insights = [planned.insight_class.to_insight(batch.memo.candidates[p])
                        for p in ranked[order].tolist()]
            rank_seconds = time.perf_counter() - start
            results.append(
                RankingResult(
                    query=query,
                    insights=insights,
                    n_candidates=enumeration.n_candidates,
                    n_scored=int(batch.positions.size),
                    n_admitted=int(admitted.size),
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
        """Run plan → enumerate → score → rank and return one result per
        query."""
        stats = stats if stats is not None else PipelineStats()
        start = time.perf_counter()
        with obs_span("pipeline.execute") as execute_span:
            with obs_span("pipeline.plan"):
                plan = self.plan(queries, default_caps=default_caps)
            with obs_span("pipeline.enumerate") as enumerate_span:
                enumerations = self.enumerate(plan, context, stats)
                enumerate_span.set_attribute("enumerations", stats.enumerations)
            with obs_span("pipeline.score") as score_span:
                batches = self.score(plan, enumerations, context, stats)
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

    def answers_from_index(
        self,
        queries: Sequence[InsightQuery],
        context: EvaluationContext,
        default_caps: Callable[[InsightQuery], InsightQuery] | None = None,
    ) -> bool:
        """Whether :meth:`execute` would answer ``queries`` without
        enumerating or scoring: every domain held, every admissible
        candidate scored.  Records nothing.  The index only ever gains
        domains and scores, so a yes stays a yes on this pipeline."""
        for planned in self.plan(queries, default_caps=default_caps).queries:
            domain = self._index.held(planned.insight_class, context.table)
            if domain is None:
                return False
            memo = self._index.memo(planned.insight_class,
                                    self._apply_mode(planned.query, context))
            if memo is not None and memo.complete:
                continue
            positions = self._select(domain, planned.query, context).positions
            if positions.size and (memo is None
                                   or not memo.scored[positions].all()):
                return False
        return True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_mode(query: InsightQuery, context: EvaluationContext) -> EvaluationContext:
        if query.mode == context.mode:
            return context
        return EvaluationContext(table=context.table, store=context.store, mode=query.mode)

    @staticmethod
    def _tags(query: InsightQuery, context: EvaluationContext) -> dict[str, tuple]:
        if not query.required_tags:
            return {}
        return {field.name: field.tags for field in context.table.schema}

    @classmethod
    def _select(cls, domain: CandidateDomain, query: InsightQuery,
                context: EvaluationContext) -> Enumeration:
        """A held domain's admissible positions: the query's mask, then
        ``max_candidates`` as its first hits in domain order."""
        hits = np.flatnonzero(domain.admits(query, cls._tags(query, context)))
        cap = query.max_candidates
        if cap is not None and hits.size >= cap:
            hits = hits[:cap]
            return Enumeration(domain, hits, truncated=True,
                               n_candidates=int(hits[-1]) + 1)
        return Enumeration(domain, hits, n_candidates=len(domain.tuples))

    @classmethod
    def _walk(cls, walk: Iterator[tuple[str, ...]], query: InsightQuery,
              context: EvaluationContext) -> Enumeration:
        """A capped walk of a domain the index does not hold: the same
        mask, chunk by chunk, stopping at the ``max_candidates``-th hit.
        The first chunk is the ``cap + 1`` tuples the index looked at;
        chunks then double up to ``max(cap + 1, _WALK_CHUNK)``."""
        cap = query.max_candidates
        tags = cls._tags(query, context)
        ceiling = max(cap + 1, _WALK_CHUNK)
        admissible: list[tuple[str, ...]] = []
        walked = 0
        chunk = tuple(islice(walk, cap + 1))
        while chunk:
            hits = np.flatnonzero(_admission(*_encode(chunk), query, tags))
            hits = hits[: cap - len(admissible)].tolist()
            admissible += [chunk[p] for p in hits]
            if len(admissible) == cap:
                walked += hits[-1] + 1
                break
            walked += len(chunk)
            chunk = tuple(islice(walk, min(2 * len(chunk), ceiling)))
        return Enumeration(
            CandidateDomain(tuple(admissible)), np.arange(len(admissible)),
            held=False, truncated=len(admissible) == cap, n_candidates=walked)
