"""Core contribution: the insight framework, ranking engine and exploration API."""

from repro.core.insight import (
    EvaluationContext,
    Insight,
    InsightClass,
    MODE_APPROXIMATE,
    MODE_EXACT,
    ScoredCandidate,
)
from repro.core.registry import InsightRegistry, default_registry
from repro.core.query import InsightQuery, MetricRange, query
from repro.core.pipeline import RankingResult
from repro.core.neighborhood import (
    NeighborhoodConfig,
    NeighborhoodRecommender,
    attribute_jaccard,
    insight_similarity,
    score_proximity,
)
from repro.core.engine import Carousel, EngineConfig, Foresight
from repro.core.session import ExplorationSession, SessionEvent
from repro.core.classes import (
    DependenceInsight,
    DispersionInsight,
    HeavyTailsInsight,
    HeterogeneousFrequenciesInsight,
    LinearRelationshipInsight,
    MissingValuesInsight,
    MonotonicRelationshipInsight,
    MultimodalityInsight,
    NormalityInsight,
    OutlierInsight,
    SegmentationInsight,
    SkewInsight,
)

__all__ = [
    "Carousel",
    "DependenceInsight",
    "DispersionInsight",
    "EngineConfig",
    "EvaluationContext",
    "ExplorationSession",
    "Foresight",
    "HeavyTailsInsight",
    "HeterogeneousFrequenciesInsight",
    "Insight",
    "InsightClass",
    "InsightQuery",
    "InsightRegistry",
    "LinearRelationshipInsight",
    "MODE_APPROXIMATE",
    "MODE_EXACT",
    "MetricRange",
    "MissingValuesInsight",
    "MonotonicRelationshipInsight",
    "MultimodalityInsight",
    "NeighborhoodConfig",
    "NeighborhoodRecommender",
    "NormalityInsight",
    "OutlierInsight",
    "RankingResult",
    "ScoredCandidate",
    "SegmentationInsight",
    "SessionEvent",
    "SkewInsight",
    "attribute_jaccard",
    "default_registry",
    "insight_similarity",
    "query",
    "score_proximity",
]
