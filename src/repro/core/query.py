"""Insight queries.

"A basic insight query returns the visualizations for the highest-ranked
feature tuples according to the insight metric selected" (paper section
2.1).  Queries may additionally:

* fix one or more attributes (e.g. rank only pairs of the form (x̄, y) —
  "searching for the attributes most correlated with x̄");
* constrain the metric value to a range (e.g. correlations in [0.5, 0.8]
  "to filter out trivially very high correlations");
* exclude attributes, limit the number of candidates considered, and choose
  exact vs approximate (sketch-backed) evaluation.

:class:`InsightQuery` is a declarative description of such a query; the
query pipeline (:mod:`repro.core.pipeline`) executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import QueryError
from repro.core.insight import MODE_APPROXIMATE, MODE_EXACT


@dataclass(frozen=True)
class MetricRange:
    """A closed interval constraint on the insight metric value."""

    minimum: float = float("-inf")
    maximum: float = float("inf")

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise QueryError(
                f"metric range is empty: [{self.minimum}, {self.maximum}]"
            )

    def contains(self, value: float) -> bool:
        return self.minimum <= value <= self.maximum

    def as_dict(self) -> dict[str, float]:
        return {"min": self.minimum, "max": self.maximum}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricRange":
        """Exact inverse of :meth:`as_dict` (missing/None bounds = unbounded)."""
        minimum = payload.get("min")
        maximum = payload.get("max")
        return cls(
            minimum=float("-inf") if minimum is None else float(minimum),
            maximum=float("inf") if maximum is None else float(maximum),
        )


@dataclass(frozen=True)
class InsightQuery:
    """A declarative query over one insight class.

    Parameters
    ----------
    insight_class:
        Name of the insight class to query (must exist in the registry).
    top_k:
        Number of insights to return (the carousel length).
    fixed_attributes:
        Attributes that every returned tuple must contain.  Fixing ``x̄``
        turns "rank all (x, y) pairs" into "rank pairs of the form (x̄, y)".
    excluded_attributes:
        Attributes that no returned tuple may contain.
    metric_range:
        Constraint on the metric value (e.g. correlations in [0.5, 0.8]).
    mode:
        ``"approximate"`` (sketch-backed, default) or ``"exact"``.
    max_candidates:
        Upper bound on how many candidate tuples are scored; None = all.
        Large 3-attribute classes use this to stay interactive.
    required_tags:
        Metadata constraint (the paper's future-work item in section 2.1:
        "queries will also allow inclusion of constraints involving metadata
        about attributes, e.g., to search for attributes that represent
        currency or dates").  When non-empty, every attribute in a returned
        tuple must carry at least one of these tags in its
        :class:`~repro.data.schema.Field` metadata.
    """

    insight_class: str
    top_k: int = 5
    fixed_attributes: tuple[str, ...] = ()
    excluded_attributes: tuple[str, ...] = ()
    metric_range: MetricRange = field(default_factory=MetricRange)
    mode: str = MODE_APPROXIMATE
    max_candidates: int | None = None
    required_tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.insight_class:
            raise QueryError("insight_class must be a non-empty string")
        if self.top_k < 1:
            raise QueryError("top_k must be >= 1")
        if self.mode not in (MODE_APPROXIMATE, MODE_EXACT):
            raise QueryError(
                f"mode must be {MODE_APPROXIMATE!r} or {MODE_EXACT!r}, got {self.mode!r}"
            )
        if self.max_candidates is not None and self.max_candidates < 1:
            raise QueryError("max_candidates must be >= 1 when given")
        overlap = set(self.fixed_attributes) & set(self.excluded_attributes)
        if overlap:
            raise QueryError(
                f"attributes cannot be both fixed and excluded: {sorted(overlap)}"
            )

    # -- convenience builders -----------------------------------------------------
    def with_fixed(self, *attributes: str) -> "InsightQuery":
        """A copy with additional fixed attributes."""
        return replace(
            self, fixed_attributes=tuple(dict.fromkeys(self.fixed_attributes + attributes))
        )

    def with_excluded(self, *attributes: str) -> "InsightQuery":
        """A copy with additional excluded attributes."""
        return replace(
            self,
            excluded_attributes=tuple(
                dict.fromkeys(self.excluded_attributes + attributes)
            ),
        )

    def with_metric_range(self, minimum: float = float("-inf"),
                          maximum: float = float("inf")) -> "InsightQuery":
        """A copy with a metric-range filter."""
        return replace(self, metric_range=MetricRange(minimum, maximum))

    def with_top_k(self, top_k: int) -> "InsightQuery":
        return replace(self, top_k=top_k)

    def with_required_tags(self, *tags: str) -> "InsightQuery":
        """A copy that only admits attributes carrying one of ``tags``."""
        return replace(
            self, required_tags=tuple(dict.fromkeys(self.required_tags + tags))
        )

    def exact(self) -> "InsightQuery":
        """A copy forced to exact evaluation."""
        return replace(self, mode=MODE_EXACT)

    def approximate(self) -> "InsightQuery":
        """A copy using sketch-backed evaluation."""
        return replace(self, mode=MODE_APPROXIMATE)

    def as_dict(self) -> dict[str, Any]:
        return {
            "insight_class": self.insight_class,
            "top_k": self.top_k,
            "fixed_attributes": list(self.fixed_attributes),
            "excluded_attributes": list(self.excluded_attributes),
            "metric_range": self.metric_range.as_dict(),
            "mode": self.mode,
            "max_candidates": self.max_candidates,
            "required_tags": list(self.required_tags),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InsightQuery":
        """Exact inverse of :meth:`as_dict`.

        Accepts any mapping with the keys :meth:`as_dict` produces; optional
        keys may be omitted and fall back to the dataclass defaults, so the
        method also deserialises hand-written or truncated payloads.
        """
        max_candidates = payload.get("max_candidates")
        return cls(
            insight_class=str(payload["insight_class"]),
            top_k=int(payload.get("top_k", 5)),
            fixed_attributes=tuple(payload.get("fixed_attributes", ())),
            excluded_attributes=tuple(payload.get("excluded_attributes", ())),
            metric_range=MetricRange.from_dict(payload.get("metric_range", {}) or {}),
            mode=str(payload.get("mode", MODE_APPROXIMATE)),
            max_candidates=None if max_candidates is None else int(max_candidates),
            required_tags=tuple(payload.get("required_tags", ())),
        )


def query(insight_class: str, **kwargs) -> InsightQuery:
    """Shorthand constructor: ``query("linear_relationship", top_k=3)``."""
    metric_min = kwargs.pop("metric_min", None)
    metric_max = kwargs.pop("metric_max", None)
    if metric_min is not None or metric_max is not None:
        kwargs["metric_range"] = MetricRange(
            minimum=metric_min if metric_min is not None else float("-inf"),
            maximum=metric_max if metric_max is not None else float("inf"),
        )
    fixed = kwargs.pop("fixed", None)
    if fixed is not None:
        kwargs["fixed_attributes"] = tuple(fixed) if not isinstance(fixed, str) else (fixed,)
    excluded = kwargs.pop("excluded", None)
    if excluded is not None:
        kwargs["excluded_attributes"] = (
            tuple(excluded) if not isinstance(excluded, str) else (excluded,)
        )
    tags = kwargs.pop("tags", None)
    if tags is not None:
        kwargs["required_tags"] = tuple(tags) if not isinstance(tags, str) else (tags,)
    return InsightQuery(insight_class=insight_class, **kwargs)
