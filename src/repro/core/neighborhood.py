"""Insight similarity and "nearby" insight recommendation.

"Two insights can be considered similar if their metric scores are similar
or if the sets of fixed attributes are similar" (paper section 2.1).  When
the user focuses an insight, "Foresight updates its recommendations by
choosing a subset of insights within the neighborhood of the focused
insight" (section 4.1).  This module implements both pieces:

* :func:`insight_similarity` — a [0, 1] similarity combining attribute
  overlap (Jaccard) and metric-score proximity;
* :class:`NeighborhoodRecommender` — given one or more focus insights,
  build queries biased towards their attributes and re-rank results by a
  blend of insight strength and similarity to the focus set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.insight import EvaluationContext, Insight
from repro.core.pipeline import PipelineStats, QueryPipeline, RankingResult
from repro.core.query import InsightQuery


def attribute_jaccard(a: Insight, b: Insight) -> float:
    """Jaccard similarity of the attribute sets of two insights."""
    set_a, set_b = set(a.attributes), set(b.attributes)
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def score_proximity(a: Insight, b: Insight, scale: float = 1.0) -> float:
    """Proximity of two metric scores, in [0, 1].

    Scores from different insight classes are not directly comparable, so
    proximity across classes is attenuated by 0.5.
    """
    difference = abs(a.score - b.score)
    proximity = max(0.0, 1.0 - difference / max(scale, 1e-12))
    if a.insight_class != b.insight_class:
        proximity *= 0.5
    return proximity


def insight_similarity(a: Insight, b: Insight, attribute_weight: float = 0.6,
                       score_scale: float = 1.0) -> float:
    """Combined similarity: attribute overlap + metric proximity."""
    if not 0.0 <= attribute_weight <= 1.0:
        raise ValueError("attribute_weight must be in [0, 1]")
    return (
        attribute_weight * attribute_jaccard(a, b)
        + (1.0 - attribute_weight) * score_proximity(a, b, scale=score_scale)
    )


@dataclass
class NeighborhoodConfig:
    """Tuning knobs for nearby-insight recommendation."""

    attribute_weight: float = 0.6
    score_scale: float = 1.0
    #: Blend between the insight's own strength and its similarity to the
    #: focus set when re-ranking (1.0 = strength only).
    strength_weight: float = 0.5
    #: How many candidates to pull from each class before re-ranking.
    candidate_pool: int = 20


class NeighborhoodRecommender:
    """Recommends insights near a set of focused insights."""

    def __init__(self, pipeline: QueryPipeline, config: NeighborhoodConfig | None = None):
        self._pipeline = pipeline
        self._config = config or NeighborhoodConfig()

    def similarity_to_focus(self, insight: Insight, focus: list[Insight]) -> float:
        """Maximum similarity between an insight and any focused insight."""
        if not focus:
            return 0.0
        return max(
            insight_similarity(
                insight,
                focused,
                attribute_weight=self._config.attribute_weight,
                score_scale=self._config.score_scale,
            )
            for focused in focus
        )

    def nearby(
        self,
        focus: list[Insight],
        insight_class: str,
        context: EvaluationContext,
        top_k: int = 5,
        base_query: InsightQuery | None = None,
    ) -> RankingResult:
        """Insights from ``insight_class`` in the neighborhood of ``focus``.

        The query is biased towards the focus attributes: if any focus
        attribute appears in the class's candidate tuples, candidates
        containing at least one focus attribute are preferred; the pool is
        then re-ranked by a blend of strength and similarity.

        All pool queries (one per focus attribute plus the unconstrained
        top-up) execute as **one** pipeline run, so they share a single
        candidate enumeration.
        """
        config = self._config
        query = base_query or InsightQuery(insight_class=insight_class)
        pool_query = query.with_top_k(max(config.candidate_pool, top_k))
        focus_attributes = {
            attribute for insight in focus for attribute in insight.attributes
        }

        # One pipeline execution for the whole pool: the per-attribute
        # queries first (preferring candidates that mention a focus
        # attribute), the unconstrained top-up last so the neighborhood
        # is never empty just because no candidate touches the focus.
        queries = [
            pool_query.with_fixed(attribute)
            for attribute in sorted(focus_attributes)
        ]
        queries.append(pool_query)
        stats = PipelineStats()
        results = self._pipeline.execute(queries, context, stats=stats)

        pooled: list[Insight] = []
        seen: set[tuple[str, tuple[str, ...]]] = set()
        n_candidates = n_scored = 0
        for result in results:
            n_candidates += result.n_candidates
            n_scored += result.n_scored
            for insight in result.insights:
                if insight.key not in seen:
                    seen.add(insight.key)
                    pooled.append(insight)

        # Normalisation uses the full pool (focus included) so excluding
        # the focus insights below never rescales the survivors.
        strength_weight = config.strength_weight
        max_score = max((abs(i.score) for i in pooled), default=1.0) or 1.0

        # Exclude the focused insights themselves from the recommendations.
        focus_keys = {insight.key for insight in focus}
        pooled = [insight for insight in pooled if insight.key not in focus_keys]

        def blended(insight: Insight) -> float:
            normalised_strength = abs(insight.score) / max_score
            similarity = self.similarity_to_focus(insight, focus)
            return strength_weight * normalised_strength + (1 - strength_weight) * similarity

        blended_scores = [blended(insight) for insight in pooled]
        order = sorted(
            range(len(pooled)),
            key=lambda i: (-blended_scores[i], pooled[i].attributes),
        )
        pooled = [pooled[i] for i in order]
        return RankingResult(
            query=query.with_top_k(top_k),
            insights=pooled[:top_k],
            n_candidates=n_candidates,
            n_scored=n_scored,
            n_admitted=len(pooled),
            details={
                "focus": [list(insight.attributes) for insight in focus],
                "pipeline": stats.as_dict(),
            },
        )
