"""The columnar pipeline against a brute-force oracle.

:class:`ReferenceIndex` below is the pipeline as it was written before
its index became columnar: a tuple-at-a-time constraint filter stopping
at ``max_candidates``, one dict memo of scored candidates per class and
mode, a metric-range filter and a ``sorted`` on ``(-score, attributes)``.
Generated query sequences run through both on one snapshot, so later
queries meet partially filled memos (a fixed attribute, a tag or a cap
scores only part of a domain); every result and every
:class:`PipelineStats` counter must agree.

The generated class scores from a table of its own: scores include NaN
(never admitted), ±0.0 (equal, so ordered by attributes), heavy ties,
infinities, and candidates whose metric is undefined (``score_all``
omits them).
"""

from __future__ import annotations

import math
from itertools import chain, islice
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.insight import EvaluationContext, InsightClass, ScoredCandidate
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import PipelineStats, QueryPipeline
from repro.core.query import InsightQuery, MetricRange
from repro.core.registry import InsightRegistry
from repro.data import DataTable, NumericColumn
from repro.data.schema import ColumnKind, Field

NAMES = ("a", "b", "c", "d", "e", "f")
TAGS = ("money", "time")
SCORES = (-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan, None)
MODES = ("exact", "approximate")


class _Generated(InsightClass):
    """Candidates and scores drawn by hypothesis."""

    arity = 2
    visualization = "scatter"

    def __init__(self, domain, scores) -> None:
        self.name = "generated"
        self.metric_name = "drawn"
        self._domain = domain
        self._scores = scores

    def candidates(self, table):
        yield from self._domain

    def score(self, attributes, context):
        value = self._scores[attributes]
        return None if value is None else ScoredCandidate(attributes, value)

    def visualize(self, insight, context):  # pragma: no cover - not exercised
        raise NotImplementedError


def _table(tags: dict[str, tuple[str, ...]]) -> DataTable:
    return DataTable([
        NumericColumn(Field(name, ColumnKind.NUMERIC, tags=tags[name]),
                      np.zeros(3))
        for name in NAMES
    ], name="oracle")


# ----------------------------------------------------------------------
# The oracle: the pipeline's semantics, one tuple at a time
# ----------------------------------------------------------------------
def _admits(query: InsightQuery, attribute_tags, attributes) -> bool:
    present = set(attributes)
    if any(fixed not in present for fixed in query.fixed_attributes):
        return False
    if present & set(query.excluded_attributes):
        return False
    if query.required_tags:
        for attribute in attributes:
            if attribute in query.fixed_attributes:
                continue
            if not set(attribute_tags.get(attribute, ())) & set(query.required_tags):
                return False
    return True


class ReferenceIndex:
    """Domains and scores in dicts, filled the way the pipeline fills its
    index: :meth:`enumerate` and :meth:`score_and_rank` are its stages
    for one query, and count their work into ``stats``.

    One deliberate difference from the code this replaced: a capped walk
    scores its candidates afresh even if a later query of the same
    execution stored the domain before the score stage ran (that code
    then consulted the memo); answers are the same either way.
    """

    def __init__(self) -> None:
        self.domains: dict = {}
        self.scores: dict = {}

    def enumerate(self, insight_class, query: InsightQuery, table: DataTable,
                  stats: PipelineStats):
        cap = query.max_candidates
        key = id(insight_class)
        candidates = self.domains.get(key)
        held = True
        if candidates is not None:
            stats.shared_queries += 1
        else:
            stats.enumerations += 1
            walk = iter(insight_class.candidates(table))
            head = tuple(walk if cap is None else islice(walk, cap + 1))
            if cap is not None and len(head) > cap:
                candidates, held = chain(head, walk), False
            else:
                candidates = self.domains.setdefault(key, head)
        attribute_tags = {field.name: field.tags for field in table.schema}
        admissible, n_candidates, truncated = [], 0, False
        for attributes in candidates:
            n_candidates += 1
            if not _admits(query, attribute_tags, attributes):
                continue
            admissible.append(attributes)
            if cap is not None and len(admissible) >= cap:
                truncated = True
                break
        return admissible, n_candidates, truncated, held

    def score_and_rank(self, insight_class, query: InsightQuery,
                       table: DataTable, enumeration, stats: PipelineStats):
        admissible, n_candidates, truncated, held = enumeration
        context = EvaluationContext(table=table, store=None, mode=query.mode)
        if not admissible:
            scored, evaluated = [], 0
        elif not held:
            scored = insight_class.score_all(admissible, context)
            evaluated = len(admissible)
        else:
            memo = self.scores.setdefault((id(insight_class), query.mode), {})
            missing = [t for t in admissible if t not in memo]
            if missing:
                fresh = {c.attributes: c
                         for c in insight_class.score_all(missing, context)}
                for attributes in missing:
                    memo.setdefault(attributes, fresh.get(attributes))
            scored = [memo[t] for t in admissible if memo[t] is not None]
            evaluated = len(missing)
        stats.score_evaluations += evaluated
        stats.index_hits += len(admissible) - evaluated
        if admissible and not evaluated:
            stats.shared_score_queries += 1
        stats.n_scored += len(scored)
        stats.n_queries += 1

        admitted = [c for c in scored if query.metric_range.contains(c.score)]
        ranked = sorted(admitted, key=lambda c: (-c.score, c.attributes))
        return {
            "insights": [(c.attributes, c.score) for c in ranked[: query.top_k]],
            "n_candidates": n_candidates,
            "n_scored": len(scored),
            "n_admitted": len(admitted),
            "truncated": truncated,
        }


def _observed(result) -> dict:
    return {
        "insights": [(i.attributes, i.score) for i in result.insights],
        "n_candidates": result.n_candidates,
        "n_scored": result.n_scored,
        "n_admitted": result.n_admitted,
        "truncated": result.truncated,
    }


def _counters(stats: PipelineStats) -> dict:
    counters = stats.as_dict()
    counters.pop("elapsed_seconds")
    return counters


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
_tuples = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                   unique=True).map(tuple)


@st.composite
def _snapshots(draw):
    domain = tuple(draw(st.lists(_tuples, max_size=40, unique=True)))
    scores = {t: draw(st.sampled_from(SCORES)) for t in domain}
    tags = {name: tuple(draw(st.lists(st.sampled_from(TAGS), max_size=2,
                                      unique=True)))
            for name in NAMES}
    return domain, scores, tags


@st.composite
def _queries(draw):
    fixed = tuple(draw(st.lists(st.sampled_from(NAMES), max_size=2, unique=True)))
    excluded = tuple(draw(st.lists(
        st.sampled_from([n for n in NAMES if n not in fixed]),
        max_size=2, unique=True)))
    bounds = sorted(draw(st.lists(
        st.sampled_from((-math.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf)),
        min_size=2, max_size=2)))
    return InsightQuery(
        "generated",
        top_k=draw(st.integers(1, 8)),
        fixed_attributes=fixed,
        excluded_attributes=excluded,
        metric_range=MetricRange(*bounds),
        mode=draw(st.sampled_from(MODES)),
        max_candidates=draw(st.one_of(st.none(), st.integers(1, 45))),
        required_tags=tuple(draw(st.lists(st.sampled_from(TAGS), max_size=2,
                                          unique=True))),
    )


@settings(max_examples=300, deadline=None)
@given(snapshot=_snapshots(), queries=st.lists(_queries(), min_size=1, max_size=6),
       batched=st.booleans(), partitioned=st.booleans())
def test_the_columnar_stages_answer_as_the_oracle(snapshot, queries, batched,
                                                  partitioned):
    domain, scores, tags = snapshot
    table = _table(tags)
    insight_class = _Generated(domain, scores)
    registry = InsightRegistry()
    registry.register(insight_class)
    pipeline = QueryPipeline(registry)
    context = EvaluationContext(table=table, store=None, mode="exact")
    reference = ReferenceIndex()

    # One execution per query, or all of them in one (memos fill between
    # the queries of one execution as well).
    groups = [queries] if batched else [[q] for q in queries]
    for group in groups:
        stats, expected_stats = PipelineStats(), PipelineStats()
        # The rank stage partitions only past a floor these small
        # domains never reach; lowered, every rank with more admitted
        # candidates than ``top_k`` takes that path.
        with mock.patch.object(pipeline_module, "_PARTITION_FLOOR",
                               0 if partitioned else pipeline_module._PARTITION_FLOOR):
            results = pipeline.execute(group, context, stats=stats)
        enumerations = [reference.enumerate(insight_class, q, table, expected_stats)
                        for q in group]
        expected = [reference.score_and_rank(insight_class, q, table, e,
                                             expected_stats)
                    for q, e in zip(group, enumerations)]
        assert [_observed(r) for r in results] == expected
        assert _counters(stats) == _counters(expected_stats)
