"""Versioned, JSON-serialisable request/response DTOs for the serving layer.

The wire protocol is deliberately tiny and transport-agnostic: a client
builds an :class:`InsightRequest` (dataset name, one or many insight
classes, shared query constraints and an optional pagination cursor),
ships it as canonical JSON, and gets back an :class:`InsightResponse`
(one carousel per requested class, timing, cache/mode provenance and a
next-page cursor).  :class:`SessionState` is the analogous DTO for
:class:`~repro.core.session.ExplorationSession` persistence.

Canonicality matters: ``to_json`` always emits sorted keys with compact
separators, so equal DTOs serialise to byte-identical strings.  The
serving layer relies on this to derive cache keys, and clients can rely
on it for request de-duplication.  Unbounded metric ranges are expressed
with ``null`` rather than IEEE infinities, keeping payloads strict JSON.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Mapping

from repro.errors import (
    AdmissionRejected,
    DeltaValidationError,
    ProtocolError,
    QueryError,
    ReplicaReadOnlyError,
    UnknownDatasetError,
    UnknownInsightClassError,
)
from repro.core.insight import Insight
from repro.core.query import InsightQuery, MetricRange

#: Version of the request/response wire protocol.
PROTOCOL_VERSION = 1

_MODES = ("approximate", "exact")


def _canonical_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: How the provenance of a cached answer, and of the miss that computed
#: it, opens in canonical form.
_HIT_PROVENANCE = '"provenance":{"cache":"hit"'
_MISS_PROVENANCE = '"provenance":{"cache":"miss"'


def _check_protocol(payload: Mapping[str, Any], what: str) -> None:
    version = payload.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION or type(version) is not int:
        raise ProtocolError(
            f"unsupported {what} protocol version {version!r}; "
            f"this library speaks version {PROTOCOL_VERSION}"
        )


_NULL = type(None)
_NAMES = (str, list)
_ONLY_STRINGS = frozenset({str})
_NUMBER = (int, float, _NULL)
#: No finite number lies beyond it (nor does nan): a float past it is
#: inf, and an integer past it overflows ``float()``.
_FLOAT_MAX = sys.float_info.max

#: Every request field's JSON type as docs/API.md words it ("The DTO
#: protocol"), and the Python types ``json.loads`` gives that type.
#: Types are matched exactly, so ``true`` is no integer; an array must
#: also hold only strings, and a number must be finite.
_REQUEST_FIELDS: dict[str, tuple[str, tuple[type, ...]]] = {
    "dataset": ("a string", (str,)),
    "insight_classes": ("a string or an array of strings", _NAMES),
    "top_k": ("an integer", (int,)),
    "fixed": ("a string or an array of strings", _NAMES),
    "excluded": ("a string or an array of strings", _NAMES),
    "tags": ("a string or an array of strings", _NAMES),
    "metric_min": ("a finite number or null", _NUMBER),
    "metric_max": ("a finite number or null", _NUMBER),
    "mode": ("a string or null", (str, _NULL)),
    "max_candidates": ("an integer or null", (int, _NULL)),
    "cursor": ("a string or null", (str, _NULL)),
    "debug": ("a boolean", (bool,)),
    "max_lag_seq": ("an integer or null", (int, _NULL)),
}


@dataclass(frozen=True)
class InsightRequest:
    """One serving-layer query: dataset + insight classes + constraints.

    Parameters
    ----------
    dataset:
        Name of a dataset registered in the workspace.
    insight_classes:
        One class name or a sequence of them; a multi-class request is the
        carousel view.
    top_k:
        Page size per class.
    fixed / excluded / tags / metric_min / metric_max / max_candidates:
        The :class:`~repro.core.query.InsightQuery` constraints, applied
        uniformly to every requested class.  ``metric_min``/``metric_max``
        of None mean unbounded.
    mode:
        ``"approximate"``, ``"exact"`` or None (engine default).
    cursor:
        Opaque pagination token from a previous response, or None for the
        first page.
    debug:
        Ask the workspace to echo this request's resource-cost snapshot
        in the response provenance (``provenance["cost"]``).  Diagnostic
        only: the flag is deliberately **excluded** from the wire dict
        and the canonical key, so a debug request shares cache entries —
        and cached payload bytes — with its non-debug twin.
    max_lag_seq:
        Staleness bound for replica routing, in journal records.  None
        (the default) demands the primary — read-your-writes
        consistency; an integer N marks the request servable by any
        read replica at most N records behind the primary (0 = only a
        fully caught-up replica).  Routing metadata, not query
        semantics: like ``debug`` it is excluded from the wire dict and
        the canonical key, so routed requests share cache entries with
        their primary-served twins.
    """

    dataset: str
    insight_classes: tuple[str, ...]
    top_k: int = 5
    fixed: tuple[str, ...] = ()
    excluded: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    metric_min: float | None = None
    metric_max: float | None = None
    mode: str | None = None
    max_candidates: int | None = None
    cursor: str | None = None
    debug: bool = False
    max_lag_seq: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.insight_classes, str):
            object.__setattr__(self, "insight_classes", (self.insight_classes,))
        else:
            object.__setattr__(self, "insight_classes", tuple(self.insight_classes))
        for attr in ("fixed", "excluded", "tags"):
            value = getattr(self, attr)
            if isinstance(value, str):
                object.__setattr__(self, attr, (value,))
            else:
                object.__setattr__(self, attr, tuple(value))
        if not self.dataset:
            raise ProtocolError("request dataset must be a non-empty string")
        if not self.insight_classes:
            raise ProtocolError("request must name at least one insight class")
        if self.top_k < 1:
            raise ProtocolError(f"request top_k must be >= 1, got {self.top_k}")
        if self.mode is not None and self.mode not in _MODES:
            raise ProtocolError(
                f"request mode must be one of {_MODES} or None, got {self.mode!r}"
            )
        if self.max_lag_seq is not None and self.max_lag_seq < 0:
            raise ProtocolError(
                f"request max_lag_seq must be >= 0, got {self.max_lag_seq}"
            )

    # -- conversion to executable queries ---------------------------------------
    def metric_range(self) -> MetricRange:
        return MetricRange.from_dict({"min": self.metric_min, "max": self.metric_max})

    def to_queries(self, default_mode: str = "approximate",
                   top_k: int | None = None) -> list[InsightQuery]:
        """One :class:`InsightQuery` per requested class.

        ``top_k`` overrides the page size (the workspace passes
        ``offset + page_size`` so later pages rank deep enough to slice).
        """
        effective_top_k = self.top_k if top_k is None else top_k
        return [
            InsightQuery(
                insight_class=name,
                top_k=effective_top_k,
                fixed_attributes=self.fixed,
                excluded_attributes=self.excluded,
                metric_range=self.metric_range(),
                mode=self.mode or default_mode,
                max_candidates=self.max_candidates,
                required_tags=self.tags,
            )
            for name in self.insight_classes
        ]

    def next_page(self, cursor: str | None) -> "InsightRequest":
        """A copy of this request pointing at the given cursor."""
        return replace(self, cursor=cursor)

    # -- wire format -------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        # ``debug`` and ``max_lag_seq`` are intentionally absent: the
        # canonical key (and hence the result-cache key) must not fork
        # on a diagnostics toggle or a routing hint.  Transports that
        # need to ship them add the keys themselves (see
        # ReproClient.insights) and ``from_dict`` reads them back.
        return {
            "protocol": PROTOCOL_VERSION,
            "dataset": self.dataset,
            "insight_classes": list(self.insight_classes),
            "top_k": self.top_k,
            "fixed": list(self.fixed),
            "excluded": list(self.excluded),
            "tags": list(self.tags),
            "metric_min": self.metric_min,
            "metric_max": self.metric_max,
            "mode": self.mode,
            "max_candidates": self.max_candidates,
            "cursor": self.cursor,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InsightRequest":
        """Decode a wire request, checking every field's JSON type.

        A value of another type than docs/API.md documents — a string
        ``top_k``, a ``"false"`` debug flag — raises
        :class:`~repro.errors.ProtocolError`, never a coercion.
        """
        _check_protocol(payload, "request")
        for key in ("dataset", "insight_classes"):
            if key not in payload:
                raise ProtocolError(f"request is missing required key {key!r}")
        values = {}
        for key, value in payload.items():
            spec = _REQUEST_FIELDS.get(key)
            if spec is None:
                continue  # "protocol", or a key this version does not read
            kind = type(value)
            if kind not in spec[1] or (
                kind is list and not _ONLY_STRINGS.issuperset(map(type, value))
            ) or (
                spec[1] is _NUMBER and value is not None
                and not -_FLOAT_MAX <= value <= _FLOAT_MAX
            ):
                raise ProtocolError(
                    f"request {key} must be {spec[0]}, got {value!r}")
            values[key] = value
        return cls(**values)

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "InsightRequest":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("request JSON must be an object")
        return cls.from_dict(payload)

    def canonical_key(self) -> str:
        """Canonical form of the request, used in result-cache keys.

        Encoded on first use and kept: the request is frozen, and one
        read asks for its key more than once (the cache peek, the warm
        answer, the miss's put).
        """
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = self.to_json()
            object.__setattr__(self, "_canonical_key", key)
        return key


@dataclass
class InsightResponse:
    """One serving-layer answer: carousels + timing + provenance + cursor.

    ``carousels`` holds one entry per requested class (in request order),
    each a plain dict::

        {"insight_class": str, "label": str, "insights": [<insight dict>],
         "n_admitted": int, "truncated": bool}

    ``provenance`` records how the answer was produced: ``cache`` ("hit" /
    "miss") and evaluation ``mode``.  The pipeline's work counters
    (``enumerations``, ``shared_queries``, ``score_evaluations``,
    ``shared_score_queries``) left the wire when each snapshot gained an
    insight index: they describe what earlier requests did, so two
    servings of one answer would differ in them.  ``/metrics`` sums them
    under ``workspace.pipeline``.
    Responses served through :meth:`~repro.service.workspace.Workspace.handle_many`
    additionally carry a ``batch`` entry (``{"index", "size"}``)
    identifying the request's position in its batch;
    batch position is stamped per response and never enters the result
    cache, so a cached answer is byte-identical however it was batched.
    """

    dataset: str
    dataset_version: int
    carousels: list[dict[str, Any]] = field(default_factory=list)
    timing: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    next_cursor: str | None = None
    #: Ingestion sequence number of the dataset snapshot this answer was
    #: computed from: ``(dataset_version, dataset_seq)`` names the exact
    #: base load + journalled appends the engine saw.  0 means "no
    #: appends in this generation" (and is the default for payloads from
    #: pre-ingest servers).
    dataset_seq: int = 0
    #: ``(text, provenance)`` as :meth:`cache_json` left them, if it ran
    #: (set per instance; a ClassVar, so no field of the wire dict or of
    #: equality).
    _cached: ClassVar[tuple[str, dict[str, Any]] | None] = None

    # -- convenience accessors -----------------------------------------------------
    def classes(self) -> list[str]:
        return [carousel["insight_class"] for carousel in self.carousels]

    def insights_for(self, insight_class: str) -> list[Insight]:
        """The returned insights of one class, as :class:`Insight` objects."""
        for carousel in self.carousels:
            if carousel["insight_class"] == insight_class:
                return [Insight.from_dict(p) for p in carousel["insights"]]
        raise ProtocolError(
            f"response has no carousel for {insight_class!r}; "
            f"classes: {self.classes()}"
        )

    def top(self, insight_class: str | None = None) -> Insight | None:
        """Strongest insight of the given (default: first) carousel."""
        name = insight_class or (self.carousels[0]["insight_class"]
                                 if self.carousels else None)
        if name is None:
            return None
        insights = self.insights_for(name)
        return insights[0] if insights else None

    def __len__(self) -> int:
        return sum(len(carousel["insights"]) for carousel in self.carousels)

    # -- wire format -------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "dataset": self.dataset,
            "dataset_version": self.dataset_version,
            "dataset_seq": self.dataset_seq,
            "carousels": [dict(carousel) for carousel in self.carousels],
            "timing": dict(self.timing),
            "provenance": dict(self.provenance),
            "next_cursor": self.next_cursor,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InsightResponse":
        _check_protocol(payload, "response")
        try:
            dataset = payload["dataset"]
            dataset_version = payload["dataset_version"]
        except KeyError as exc:
            raise ProtocolError(f"response is missing required key {exc}") from exc
        return cls(
            dataset=str(dataset),
            dataset_version=int(dataset_version),
            dataset_seq=int(payload.get("dataset_seq", 0)),
            carousels=[dict(carousel) for carousel in payload.get("carousels", [])],
            timing=dict(payload.get("timing", {})),
            provenance=dict(payload.get("provenance", {})),
            next_cursor=payload.get("next_cursor"),
        )

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    def cache_json(self) -> str:
        """This computed answer's canonical JSON as the result cache
        stores it — ``provenance["cache"]`` reading ``"hit"`` — encoded
        once; afterwards the object reads ``"miss"``, and
        :meth:`reply_json` derives its text from this one."""
        self.provenance["cache"] = "hit"
        text = self.to_json()
        self.provenance["cache"] = "miss"
        if min(self.provenance) == "cache":
            self._cached = (text, dict(self.provenance))
        return text

    def reply_json(self) -> str:
        """Equal to :meth:`to_json`, without a second encode of an answer
        :meth:`cache_json` encoded.

        In canonical form ``provenance`` is the second-to-last key and
        ``timing`` after it holds only numbers, so while ``provenance``
        is as :meth:`cache_json` left it — ``cache`` its first key — the
        last ``"provenance":{"cache":"hit"`` of the cached text is that
        field, and one word of it is the difference.  Any later change
        to ``provenance`` (a ``debug`` cost echo, a batch position)
        encodes anew.
        """
        cached = self._cached
        if cached is None or cached[1] != self.provenance:
            return self.to_json()
        text = cached[0]
        at = text.rindex(_HIT_PROVENANCE)
        return (text[:at] + _MISS_PROVENANCE
                + text[at + len(_HIT_PROVENANCE):])

    @classmethod
    def from_json(cls, text: str) -> "InsightResponse":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProtocolError(f"response is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("response JSON must be an object")
        return cls.from_dict(payload)


# -- error envelope ---------------------------------------------------------
def error_envelope(code: str, message: str, **details: Any) -> dict[str, Any]:
    """The structured DTO error payload every transport returns on failure.

    Shape: ``{"protocol": 1, "status": "error", "code": ..., "message":
    ...}`` plus optional detail keys (e.g. ``available`` dataset names,
    ``retry_after`` seconds).  Success payloads never carry a ``status``
    key, so ``is_error_envelope`` distinguishes the two without a schema.
    """
    payload: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "status": "error",
        "code": code,
        "message": message,
    }
    for key, value in details.items():
        if value is not None:
            payload[key] = value
    return payload


def error_envelope_json(code: str, message: str, **details: Any) -> str:
    """Canonical-JSON form of :func:`error_envelope`."""
    return _canonical_json(error_envelope(code, message, **details))


def error_reply(exc: Exception) -> tuple[int, str, dict[str, Any]]:
    """``(HTTP status, error code, envelope details)`` for an exception.

    The one table from failure to error envelope: the HTTP server and
    :meth:`~repro.service.workspace.Workspace.handle_json` both answer
    from it, so a failure carries the same ``code`` on every transport.
    An exception from outside the library is an ``internal_error``.
    """
    if isinstance(exc, AdmissionRejected):
        return exc.status, exc.code, {"retry_after": exc.retry_after}
    if isinstance(exc, UnknownDatasetError):
        return 404, "unknown_dataset", {"available": exc.available}
    if isinstance(exc, UnknownInsightClassError):
        return 400, "unknown_insight_class", {"available": exc.available}
    if isinstance(exc, DeltaValidationError):
        return 400, "delta_rejected", {"problems": exc.problems}
    if isinstance(exc, ReplicaReadOnlyError):
        return 403, "replica_read_only", {}
    if isinstance(exc, ProtocolError):
        return 400, "protocol_error", {}
    if isinstance(exc, QueryError):
        return 400, "invalid_query", {}
    return 500, "internal_error", {}


def is_error_envelope(payload: Any) -> bool:
    """True when a decoded payload is a structured error envelope."""
    return isinstance(payload, Mapping) and payload.get("status") == "error"


# SessionState is defined next to the session it persists (the DTO must
# not pull the serving layer into the core import graph); re-exported
# here as part of the public DTO namespace.
from repro.core.session import SessionState  # noqa: E402

__all__ = [
    "InsightRequest",
    "InsightResponse",
    "PROTOCOL_VERSION",
    "SessionState",
    "error_envelope",
    "error_envelope_json",
    "error_reply",
    "is_error_envelope",
]
