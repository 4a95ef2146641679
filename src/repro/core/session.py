"""Exploration sessions.

Section 4.1 describes the interaction loop: the analyst eyeballs the
carousels, clicks an insight to bring it *into focus*, Foresight updates its
recommendations to the neighborhood of the focused insight(s), the analyst
keeps exploring, and finally "saves the current Foresight state to revisit
later and to share with her colleagues".

:class:`ExplorationSession` models that loop on top of the engine:

* ``carousels()`` — current recommendations for every insight class, biased
  towards the focus set when one exists;
* ``focus(insight)`` / ``unfocus(insight)`` — manage the focus set;
* a history log of every action;
* ``save()`` / ``restore()`` — session state round-tripped through the
  :class:`~repro.service.dto.SessionState` DTO.  Restoring carries the
  original event log forward verbatim (no re-logging, no fresh
  timestamps), so save → restore → save is byte-identical and sessions
  can be re-shared losslessly.  Sessions are workspace-addressable: the
  saved state embeds the dataset name, and
  :meth:`repro.service.workspace.Workspace.restore_session` resolves the
  engine from it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import InsightError, ProtocolError
from repro.core.engine import Carousel, Foresight
from repro.core.insight import Insight
from repro.core.query import InsightQuery
from repro.core.pipeline import RankingResult


@dataclass
class SessionState:
    """Persistent form of an exploration session (save/restore payload).

    This is the session's DTO (re-exported by :mod:`repro.service.dto`):
    ``focused_insights`` and ``history`` are stored as the plain dicts the
    session produces (``Insight.as_dict`` / ``SessionEvent.as_dict``), so
    a save → restore → save cycle is byte-identical: nothing is re-logged
    or re-stamped on the way through.
    """

    name: str
    dataset: str
    focused_insights: list[dict[str, Any]] = field(default_factory=list)
    history: list[dict[str, Any]] = field(default_factory=list)

    def focused(self) -> list[Insight]:
        """The focused insights as :class:`Insight` objects."""
        return [Insight.from_dict(payload) for payload in self.focused_insights]

    # -- wire format -------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dataset": self.dataset,
            "focused_insights": [dict(p) for p in self.focused_insights],
            "history": [dict(p) for p in self.history],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionState":
        return cls(
            name=str(payload.get("name", "session")),
            dataset=str(payload.get("dataset", "")),
            focused_insights=[dict(p) for p in payload.get("focused_insights", [])],
            history=[dict(p) for p in payload.get("history", [])],
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=float)

    @classmethod
    def from_json(cls, text: str) -> "SessionState":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProtocolError(f"session state is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("session state JSON must be an object")
        return cls.from_dict(payload)


@dataclass
class SessionEvent:
    """One entry in the session history."""

    action: str
    timestamp: float
    payload: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"action": self.action, "timestamp": self.timestamp,
                "payload": dict(self.payload)}


class ExplorationSession:
    """Stateful exploration of a dataset through the Foresight engine."""

    def __init__(self, engine: Foresight, name: str = "session",
                 dataset: str | None = None,
                 clock: Callable[[], float] | None = None):
        self._engine = engine
        self._name = name
        self._dataset = dataset or engine.table.name
        self._focus: list[Insight] = []
        self._history: list[SessionEvent] = []
        # Event timestamps come from an injectable clock so the core
        # stays replayable: two sessions driven with the same clock and
        # the same actions produce byte-identical histories.  The
        # default is wall time, read through the injection point.
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        self._log("session_started", dataset=self._dataset,
                  shape=list(engine.table.shape))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Foresight:
        return self._engine

    @property
    def name(self) -> str:
        return self._name

    @property
    def dataset(self) -> str:
        """Name of the dataset this session explores (workspace address)."""
        return self._dataset

    @property
    def focused_insights(self) -> list[Insight]:
        return list(self._focus)

    @property
    def history(self) -> list[SessionEvent]:
        return list(self._history)

    # ------------------------------------------------------------------
    # Focus management (the "click on an insight" interaction)
    # ------------------------------------------------------------------
    def focus(self, insight: Insight) -> None:
        """Bring an insight into focus; recommendations will update around it."""
        if any(existing.key == insight.key for existing in self._focus):
            return
        self._focus.append(insight)
        self._log("focus", insight=insight.as_dict())

    def unfocus(self, insight: Insight) -> None:
        """Remove an insight from the focus set."""
        before = len(self._focus)
        self._focus = [i for i in self._focus if i.key != insight.key]
        if len(self._focus) != before:
            self._log("unfocus", insight=insight.as_dict())

    def clear_focus(self) -> None:
        """Drop all focused insights (back to open-ended exploration)."""
        if self._focus:
            self._log("clear_focus", n_cleared=len(self._focus))
        self._focus = []

    # ------------------------------------------------------------------
    # Recommendations
    # ------------------------------------------------------------------
    def carousels(
        self, top_k: int | None = None, insight_classes: Sequence[str] | None = None
    ) -> list[Carousel]:
        """Current recommendations for every insight class.

        With no focus this is the engine's open-ended first stage (strongest
        insights of every class).  With focused insights, each carousel is
        re-computed in the neighborhood of the focus set (second stage).
        """
        names = (
            list(insight_classes)
            if insight_classes
            else self._engine.registry.names()
        )
        top_k = top_k or self._engine.config.default_top_k
        carousels = []
        if self._focus:
            for name in names:
                start = time.perf_counter()
                result = self._engine.recommend_near(self._focus, name, top_k=top_k)
                elapsed = time.perf_counter() - start
                carousels.append(self._carousel(name, result, elapsed))
        else:
            # Open-ended first stage: one pipeline execution for all classes,
            # sharing candidate enumeration across same-domain classes.
            carousels = self._engine.carousels(top_k=top_k, insight_classes=names)
        self._log(
            "carousels",
            top_k=top_k,
            classes=names,
            focused=[list(i.attributes) for i in self._focus],
        )
        return carousels

    def query(self, insight_class: str | InsightQuery, **kwargs) -> RankingResult:
        """Run an explicit insight query (third stage / power use)."""
        result = self._engine.query(insight_class, **kwargs)
        self._log("query", query=result.query.as_dict(),
                  n_results=len(result.insights))
        return result

    def recommend_near_focus(self, insight_class: str, top_k: int | None = None) -> RankingResult:
        """Neighborhood recommendations for one class around the focus set."""
        if not self._focus:
            raise InsightError("no focused insights; call focus() first")
        result = self._engine.recommend_near(self._focus, insight_class, top_k=top_k)
        self._log("recommend_near_focus", insight_class=insight_class,
                  n_results=len(result.insights))
        return result

    # ------------------------------------------------------------------
    # Persistence ("saves the current Foresight state to revisit later")
    # ------------------------------------------------------------------
    def save_state(self) -> SessionState:
        """The session state as a :class:`~repro.service.dto.SessionState`."""
        return SessionState(
            name=self._name,
            dataset=self.dataset,
            focused_insights=[insight.as_dict() for insight in self._focus],
            history=[event.as_dict() for event in self._history],
        )

    def save(self) -> dict[str, Any]:
        """The session state as a JSON-serialisable dictionary."""
        return self.save_state().to_dict()

    def save_json(self, indent: int = 2) -> str:
        return self.save_state().to_json(indent=indent)

    @classmethod
    def restore(
        cls, engine: Foresight, state: SessionState | dict[str, Any],
        clock: Callable[[], float] | None = None,
    ) -> "ExplorationSession":
        """Rebuild a session from saved state.

        The original event log is carried forward verbatim — nothing is
        re-logged and no timestamps are refreshed — so
        ``restore(save()).save()`` reproduces the saved state exactly.
        Events logged *after* the restore use ``clock`` (wall time by
        default), mirroring the constructor's injection point.
        """
        if not isinstance(state, SessionState):
            state = SessionState.from_dict(state)
        session = cls.__new__(cls)
        session._engine = engine
        session._clock = clock if clock is not None else time.time
        session._name = state.name
        session._dataset = state.dataset or engine.table.name
        session._focus = state.focused()
        session._history = [
            SessionEvent(
                action=str(payload.get("action", "")),
                timestamp=float(payload.get("timestamp", 0.0)),
                payload=dict(payload.get("payload", {})),
            )
            for payload in state.history
        ]
        return session

    @classmethod
    def restore_json(cls, engine: Foresight, text: str) -> "ExplorationSession":
        return cls.restore(engine, SessionState.from_json(text))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _carousel(self, name: str, result: RankingResult, elapsed: float) -> Carousel:
        insight_class = self._engine.registry.get(name)
        return Carousel(
            insight_class=name,
            label=insight_class.label or name,
            insights=result.insights,
            result=result,
            elapsed_seconds=elapsed,
        )

    def _log(self, action: str, **payload: Any) -> None:
        self._history.append(
            SessionEvent(action=action, timestamp=self._clock(), payload=payload)
        )
