"""Insight, InsightClass and the evaluation context.

The paper (section 2) defines:

* an **insight** — a strong manifestation of a distributional property of
  the data over a tuple of attributes (here :class:`Insight`: the attribute
  tuple, the metric value, and enough detail to summarise and visualise it);
* an **insight metric** — a function that ranks attribute tuples by the
  strength of the property;
* an **insight class** — all attribute tuples whose joint distributions are
  compatible with the insight's metric and visualization (here
  :class:`InsightClass`: candidate enumeration + metric + visualization +
  optional overview visualization).

Foresight is extensible: "a data scientist can plug in new insight classes
along with their corresponding ranking measures and visualizations", which
is exactly what subclassing :class:`InsightClass` and registering it in
:class:`repro.core.registry.InsightRegistry` does.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.data.table import DataTable
from repro.sketch.features import TableFeatures
from repro.sketch.store import SketchStore
from repro.viz.spec import VisualizationSpec

#: Evaluation modes.  ``approximate`` uses sketches where available;
#: ``exact`` always recomputes from the raw columns.
MODE_EXACT = "exact"
MODE_APPROXIMATE = "approximate"


@dataclass
class EvaluationContext:
    """Everything an insight class needs to score and visualise candidates.

    Parameters
    ----------
    table:
        The raw data table.
    store:
        The sketch store produced by preprocessing, or None when the caller
        wants purely exact evaluation without preprocessing.
    mode:
        ``"approximate"`` (use sketches when available) or ``"exact"``.
    """

    table: DataTable
    store: SketchStore | None = None
    mode: str = MODE_APPROXIMATE

    @property
    def use_sketches(self) -> bool:
        return self.mode == MODE_APPROXIMATE and self.store is not None

    def display_table(self) -> DataTable:
        """The rows a visualization draws: the store's sample in sketch mode."""
        return self.store.sample_table() if self.use_sketches else self.table

    def features(self) -> TableFeatures:
        """The arrays the whole-class kernels score on: the store's row
        sample, derived once per store, in sketch mode; the full table,
        derived for this call, in exact mode — so exact scoring grows with
        the rows and sketch scoring does not."""
        if self.use_sketches:
            return self.store.sample_features()
        return TableFeatures(self.table)

    def exact(self) -> "EvaluationContext":
        """A copy of this context forced to exact evaluation."""
        return EvaluationContext(table=self.table, store=self.store, mode=MODE_EXACT)


@dataclass(frozen=True)
class Insight:
    """A scored attribute tuple: one recommendation shown in a carousel."""

    insight_class: str
    attributes: tuple[str, ...]
    score: float
    metric_name: str
    summary: str = ""
    details: dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """Identity of the insight (class + attribute tuple), ignoring score."""
        return (self.insight_class, self.attributes)

    def involves(self, attribute: str) -> bool:
        """True if the insight mentions the given attribute."""
        return attribute in self.attributes

    def shares_attributes(self, other: "Insight") -> int:
        """Number of attributes shared with another insight."""
        return len(set(self.attributes) & set(other.attributes))

    def as_dict(self) -> dict[str, Any]:
        return {
            "insight_class": self.insight_class,
            "attributes": list(self.attributes),
            "score": self.score,
            "metric": self.metric_name,
            "summary": self.summary,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Insight":
        """Exact inverse of :meth:`as_dict` (used by sessions and the DTO layer)."""
        return cls(
            insight_class=str(payload["insight_class"]),
            attributes=tuple(payload["attributes"]),
            score=float(payload["score"]),
            metric_name=str(payload.get("metric", "")),
            summary=str(payload.get("summary", "")),
            details=dict(payload.get("details", {})),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        attrs = ", ".join(self.attributes)
        return f"[{self.insight_class}] ({attrs}) {self.metric_name}={self.score:.3f}"


@dataclass(frozen=True)
class ScoredCandidate:
    """Internal scoring result before packaging into an :class:`Insight`."""

    attributes: tuple[str, ...]
    score: float
    details: dict[str, Any] = field(default_factory=dict, compare=False, hash=False)


class InsightClass(abc.ABC):
    """Base class for all insight classes.

    Subclasses define the paper's triple (candidate enumeration, ranking
    metric, visualization) and may optionally provide an overview
    visualization of the whole class (like the correlation heat map of
    Figure 2).
    """

    #: Unique registry name, e.g. ``"linear_relationship"``.
    name: str = ""
    #: Human-readable label used in carousel headers.
    label: str = ""
    #: One-line description of what the insight captures.
    description: str = ""
    #: Name of the ranking metric (e.g. ``"abs_pearson"``).
    metric_name: str = ""
    #: Number of attributes in a candidate tuple (1, 2 or 3).
    arity: int = 1
    #: Name of the preferred visualization method (informational).
    visualization: str = ""
    #: Whether an overview visualization is available.
    has_overview: bool = False

    # -- candidate enumeration -------------------------------------------------
    @abc.abstractmethod
    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        """Yield every attribute tuple belonging to this insight class."""

    def candidate_count(self, table: DataTable) -> int:
        """Number of candidate tuples (default: exhausts the iterator)."""
        return sum(1 for _ in self.candidates(table))

    def candidate_domain(self) -> str | None:
        """Key identifying the candidate enumeration domain, or None.

        Two classes that return the same non-None key (and have equal
        ``arity``) promise to yield *identical* candidate sequences for any
        table.  The insight index (:mod:`repro.core.pipeline`) uses this
        to enumerate a shared domain once per snapshot instead of once
        per class.  Returning None (the default) keys the class's domain
        by the instance alone.
        """
        return None

    # -- scoring ------------------------------------------------------------------
    @abc.abstractmethod
    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        """Score one candidate tuple; None when the metric is undefined for it."""

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        """Score many candidates (subclasses may override with batched code).

        Contract: results preserve candidate order, each carries the tuple
        it was asked for, and each candidate's value must not depend on
        which *other* candidates share the batch (``score_all(a + b) ==
        score_all(a) + score_all(b)``, bit for bit).  The insight index
        relies on it: it submits only candidates it has not seen on the
        snapshot and gathers the rest.  The default implementation
        satisfies this trivially; a batched override that computes shared
        intermediates (e.g. a correlation matrix) must derive each pair's
        value from that pair's columns only.
        """
        results = []
        for attributes in candidate_tuples:
            scored = self.score(attributes, context)
            if scored is not None:
                results.append(scored)
        return results

    # -- presentation ----------------------------------------------------------------
    @abc.abstractmethod
    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        """Build the preferred visualization for a ranked insight."""

    def summarize(self, candidate: ScoredCandidate) -> str:
        """One-line, human-readable description of the insight."""
        attrs = ", ".join(candidate.attributes)
        return f"{self.label or self.name}: {attrs} ({self.metric_name}={candidate.score:.3f})"

    def overview(self, context: EvaluationContext) -> VisualizationSpec | None:
        """Optional overview ("global") visualization of the whole class."""
        return None

    # -- packaging ---------------------------------------------------------------------
    def to_insight(self, candidate: ScoredCandidate) -> Insight:
        """Package a scored candidate as a public :class:`Insight`."""
        return Insight(
            insight_class=self.name,
            attributes=candidate.attributes,
            score=candidate.score,
            metric_name=self.metric_name,
            summary=self.summarize(candidate),
            details=dict(candidate.details),
        )

    def describe(self) -> dict[str, Any]:
        """Metadata describing the class (used by the engine's catalogue)."""
        return {
            "name": self.name,
            "label": self.label,
            "description": self.description,
            "metric": self.metric_name,
            "arity": self.arity,
            "visualization": self.visualization,
            "has_overview": self.has_overview,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<InsightClass {self.name!r} metric={self.metric_name!r}>"


class KernelScoredInsightClass(InsightClass):
    """An insight class that scores a whole request with array kernels.

    Subclasses implement :meth:`score_complete`: gather indices, call the
    :mod:`repro.stats` kernel, package.  Both modes run it, on
    :meth:`EvaluationContext.features`.  A tuple touching a column with
    missing entries is scored by the same method, alone, on the features
    of its own complete rows — the pairwise-complete value.
    """

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        scored = self.score_all([attributes], context)
        return scored[0] if scored else None

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        features = context.features()
        complete = [features.complete.issuperset(attrs) for attrs in candidate_tuples]
        batch = iter(self.score_complete(
            features, [attrs for attrs, ok in zip(candidate_tuples, complete) if ok]
        ))
        results = []
        for attributes, ok in zip(candidate_tuples, complete):
            scored = next(batch) if ok else self.score_complete(
                features.on_complete_rows(attributes), [attributes]
            )[0]
            if scored is not None:
                results.append(scored)
        return results

    @abc.abstractmethod
    def score_complete(
        self, features: TableFeatures, candidate_tuples: Sequence[tuple[str, ...]]
    ) -> list[ScoredCandidate | None]:
        """One result per tuple (None where the metric is undefined), given
        that no column the tuples name has a missing entry in ``features``.
        Must honour the :meth:`InsightClass.score_all` contract: a tuple's
        value comes from its own columns, or from products whose shape the
        table fixes, never from "the columns of this batch"."""


def pairs(names: Sequence[str]) -> Iterator[tuple[str, str]]:
    """All unordered pairs (i < j) of attribute names, in a stable order."""
    names = list(names)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            yield (names[i], names[j])


def singletons(names: Iterable[str]) -> Iterator[tuple[str]]:
    """All single-attribute tuples."""
    for name in names:
        yield (name,)
