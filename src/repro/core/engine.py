"""The Foresight engine: the library's public façade.

A :class:`Foresight` instance owns a table, its preprocessing products
(the sketch store), the registry of insight classes and the ranking /
neighborhood machinery.  Typical use::

    from repro import Foresight
    from repro.data.datasets import load_oecd

    engine = Foresight(load_oecd())
    for carousel in engine.carousels(top_k=3):
        print(carousel.insight_class, [str(i) for i in carousel.insights])

    result = engine.query("linear_relationship", fixed=("LifeSatisfaction",))
    spec = engine.visualize(result.top())
    overview = engine.overview("linear_relationship")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import InsightError
from repro.data.table import DataTable
from repro.core.insight import (
    EvaluationContext,
    Insight,
    InsightClass,
    MODE_APPROXIMATE,
    MODE_EXACT,
)
from repro.core.neighborhood import NeighborhoodConfig, NeighborhoodRecommender
from repro.core.query import InsightQuery, query as build_query
from repro.core.pipeline import (
    InsightIndex,
    PipelineStats,
    QueryPipeline,
    RankingResult,
)
from repro.core.registry import InsightRegistry, default_registry
from repro.sketch.store import SketchStore, SketchStoreConfig
from repro.viz.spec import VisualizationSpec


@dataclass
class Carousel:
    """One row of the Foresight UI: the top insights of one class (Figure 1)."""

    insight_class: str
    label: str
    insights: list[Insight]
    result: RankingResult
    elapsed_seconds: float = 0.0

    def __iter__(self):
        return iter(self.insights)

    def __len__(self) -> int:
        return len(self.insights)


@dataclass
class EngineConfig:
    """Engine-level configuration."""

    mode: str = MODE_APPROXIMATE
    default_top_k: int = 5
    sketch: SketchStoreConfig = field(default_factory=SketchStoreConfig)
    neighborhood: NeighborhoodConfig = field(default_factory=NeighborhoodConfig)
    #: Cap on scored candidates for 3-attribute classes to stay interactive.
    max_candidates_triples: int = 5000


class Foresight:
    """Recommends visual insights for a table (the paper's system)."""

    def __init__(
        self,
        table: DataTable,
        registry: InsightRegistry | None = None,
        config: EngineConfig | None = None,
        preprocess: bool = True,
        store: SketchStore | None = None,
    ):
        """Build an engine for ``table``.

        ``store`` injects an already-built sketch store (the live-ingest
        path merges delta sketches into a copy of the previous store and
        swaps in a new engine without re-preprocessing); by default it is
        built from ``config``.
        """
        self._table = table
        self._registry = registry or default_registry()
        self._config = config or EngineConfig()
        self._store: SketchStore | None = store
        if (store is None and preprocess
                and self._config.mode == MODE_APPROXIMATE):
            self._store = SketchStore(table, config=self._config.sketch)
        self._pipeline = QueryPipeline(self._registry)
        self._neighborhood = NeighborhoodRecommender(
            self._pipeline, config=self._config.neighborhood
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table(self) -> DataTable:
        return self._table

    @property
    def registry(self) -> InsightRegistry:
        return self._registry

    @property
    def store(self) -> SketchStore | None:
        """The sketch store built at preprocessing time (None in exact mode)."""
        return self._store

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def index(self) -> InsightIndex:
        """This snapshot's memoised candidate domains and scores, filled by
        the queries it serves and dropped with the engine."""
        return self._pipeline.index

    def insight_classes(self) -> list[dict[str, object]]:
        """Catalogue of the registered insight classes."""
        return self._registry.describe()

    def context(self, mode: str | None = None) -> EvaluationContext:
        """Build an evaluation context (exposed for power users and tests)."""
        return EvaluationContext(
            table=self._table,
            store=self._store,
            mode=mode or self._config.mode,
        )

    def register(self, insight_class: InsightClass, replace: bool = False) -> None:
        """Plug in a new insight class (the paper's extensibility hook)."""
        self._registry.register(insight_class, replace=replace)

    # ------------------------------------------------------------------
    # Recommendation entry points
    # ------------------------------------------------------------------
    def query(self, insight_class: str | InsightQuery, **kwargs) -> RankingResult:
        """Run an insight query.

        Accepts either a pre-built :class:`InsightQuery` or an insight class
        name plus keyword arguments forwarded to
        :func:`repro.core.query.query` (``top_k``, ``fixed``, ``excluded``,
        ``metric_min``, ``metric_max``, ``mode``, ``max_candidates``).
        """
        if isinstance(insight_class, InsightQuery):
            if kwargs:
                raise InsightError(
                    "pass either an InsightQuery or keyword arguments, not both"
                )
            insight_query = insight_class
        else:
            kwargs.setdefault("top_k", self._config.default_top_k)
            kwargs.setdefault("mode", self._config.mode)
            insight_query = build_query(insight_class, **kwargs)
            insight_query = self._apply_default_caps(insight_query)
        return self._pipeline.execute(
            [insight_query], self.context(insight_query.mode)
        )[0]

    def rank_many(
        self,
        queries: Sequence[InsightQuery],
        stats: PipelineStats | None = None,
        apply_caps: bool = True,
    ) -> list[RankingResult]:
        """Execute several queries on the staged pipeline, in query order.

        Each candidate domain is enumerated, and each candidate scored,
        once per engine (:attr:`index`); every later query filters and
        gathers.  ``stats`` (when given) accumulates the work this call
        actually did.
        """
        return self._pipeline.execute(
            queries,
            self.context(),
            default_caps=self._apply_default_caps if apply_caps else None,
            stats=stats,
        )

    def answers_from_index(self, queries: Sequence[InsightQuery]) -> bool:
        """Whether :meth:`rank_many` would answer ``queries`` from the
        index alone — no enumeration, no score.  Records nothing."""
        return self._pipeline.answers_from_index(
            queries, self.context(), default_caps=self._apply_default_caps)

    def carousels(
        self,
        top_k: int | None = None,
        insight_classes: Sequence[str] | None = None,
        mode: str | None = None,
    ) -> list[Carousel]:
        """The Figure 1 view: top-k insights for every (requested) class."""
        top_k = top_k or self._config.default_top_k
        names = list(insight_classes) if insight_classes else self._registry.names()
        queries = [
            InsightQuery(
                insight_class=name,
                top_k=top_k,
                mode=mode or self._config.mode,
            )
            for name in names
        ]
        results = self.rank_many(queries)
        return [
            Carousel(
                insight_class=name,
                label=self._registry.get(name).label or name,
                insights=result.insights,
                result=result,
                elapsed_seconds=float(result.details.get("elapsed_seconds", 0.0)),
            )
            for name, result in zip(names, results)
        ]

    def recommend_near(
        self,
        focus: Insight | Iterable[Insight],
        insight_class: str,
        top_k: int | None = None,
        mode: str | None = None,
        base_query: InsightQuery | None = None,
    ) -> RankingResult:
        """Insights of ``insight_class`` near the focused insight(s) (section 4.1)."""
        focus_list = [focus] if isinstance(focus, Insight) else list(focus)
        return self._neighborhood.nearby(
            focus_list,
            insight_class,
            self.context(mode),
            top_k=top_k or self._config.default_top_k,
            base_query=base_query,
        )

    # ------------------------------------------------------------------
    # Visualization
    # ------------------------------------------------------------------
    def visualize(self, insight: Insight, mode: str | None = None) -> VisualizationSpec:
        """Build the preferred visualization spec for a ranked insight."""
        insight_class = self._registry.get(insight.insight_class)
        return insight_class.visualize(insight, self.context(mode))

    def overview(self, insight_class: str, mode: str | None = None) -> VisualizationSpec | None:
        """The class's overview ("global") visualization, e.g. Figure 2."""
        return self._registry.get(insight_class).overview(self.context(mode))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _apply_default_caps(self, insight_query: InsightQuery) -> InsightQuery:
        """Cap candidate enumeration for expensive (3-attribute) classes."""
        if insight_query.max_candidates is not None:
            return insight_query
        insight_class = self._registry.get(insight_query.insight_class)
        if insight_class.arity >= 3:
            from dataclasses import replace

            return replace(
                insight_query, max_candidates=self._config.max_candidates_triples
            )
        return insight_query

    def exact(self) -> "Foresight":
        """A view of this engine that evaluates everything exactly."""
        clone = Foresight.__new__(Foresight)
        clone._table = self._table
        clone._registry = self._registry
        clone._config = EngineConfig(
            mode=MODE_EXACT,
            default_top_k=self._config.default_top_k,
            sketch=self._config.sketch,
            neighborhood=self._config.neighborhood,
            max_candidates_triples=self._config.max_candidates_triples,
        )
        clone._store = self._store
        clone._pipeline = self._pipeline
        clone._neighborhood = self._neighborhood
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Foresight(table={self._table.name!r}, shape={self._table.shape}, "
            f"classes={len(self._registry)}, mode={self._config.mode!r})"
        )
