"""The insight index: one scored insight space per published snapshot.

The engine serving a ``(version, seq)`` memoises each class's candidate
domain and every candidate score it computes; every later query on that
snapshot filters and gathers.  Pinned here:

* **once per snapshot** — N distinct queries call each domain's
  ``candidates()`` once and submit a candidate to ``score_all`` once;
  an append, reload or rebuild starts cold, and the old engine (with its
  index) is collected;
* **warmth independence** — every answer on a warm snapshot is byte for
  byte the answer the same request gets first on a fresh engine;
* **racing threads** — two threads filling one cold snapshot answer
  byte-identically;
* **observability** — the ledger's ``insight_index`` row and the
  ``index_hits`` counter.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import InsightRequest, Workspace
from repro.core.pipeline import ScoreMemo
from repro.core.registry import default_registry
from repro.data import CategoricalColumn, ColumnKind, DataTable, Field
from repro.data.datasets import make_mixed_table
from repro.obs.ledger import deep_sizeof, domain_bytes, scored_candidate_bytes
from repro.service.cursor import encode_cursor

CLASSES = tuple(default_registry().names())


def _table() -> DataTable:
    """A mixed table plus a 4-level ``segment``, so every class has
    candidates (segmentation groups by at most 12 levels)."""
    base = make_mixed_table(n_rows=240, n_numeric=5, n_categorical=2, seed=21)
    segment = CategoricalColumn(
        Field("segment", ColumnKind.CATEGORICAL),
        np.random.default_rng(21).integers(0, 4, base.n_rows),
        [f"s{k}" for k in range(4)])
    return DataTable(list(base.columns()) + [segment], name="indexed")


TABLE = _table()
NUMERIC = tuple(TABLE.numeric_names())
ATTRIBUTES = tuple(TABLE.column_names())


def _answer(response) -> str:
    """Canonical response JSON without ``timing`` and ``provenance.cache``."""
    payload = response.to_dict()
    payload.pop("timing")
    payload["provenance"].pop("cache")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _workspace(**kwargs) -> Workspace:
    workspace = Workspace(**kwargs)
    workspace.register("d", lambda: TABLE)
    return workspace


def _distinct_requests() -> list[InsightRequest]:
    """Carousels, nearby queries, metric ranges and pages, in both modes."""
    requests = []
    for mode in ("approximate", "exact"):
        requests += [
            InsightRequest(dataset="d", insight_classes=CLASSES, top_k=3,
                           mode=mode),
            InsightRequest(dataset="d", insight_classes=CLASSES, top_k=4,
                           excluded=(NUMERIC[0],), mode=mode),
            InsightRequest(dataset="d", insight_classes=(
                "linear_relationship", "dependence", "outliers"),
                top_k=3, fixed=(NUMERIC[1],), mode=mode),
            InsightRequest(dataset="d", insight_classes=("skew",), top_k=2,
                           metric_min=0.05, mode=mode),
        ]
        requests.append(requests[-3].next_page(encode_cursor(4)))
    return requests


class _Spies:
    """Counts ``candidates()`` runs per domain and records every tuple
    submitted to ``score_all`` per (class, mode)."""

    def __init__(self, monkeypatch) -> None:
        self.enumerated: Counter = Counter()
        self.submitted: defaultdict = defaultdict(list)
        for cls in {type(insight_class) for insight_class in default_registry()}:
            monkeypatch.setattr(cls, "candidates", self._candidates(cls.candidates))
            monkeypatch.setattr(cls, "score_all", self._score_all(cls.score_all))

    def _candidates(self, original):
        def candidates(insight_class, table):
            domain = insight_class.candidate_domain() or insight_class.name
            self.enumerated[domain] += 1
            return original(insight_class, table)
        return candidates

    def _score_all(self, original):
        def score_all(insight_class, candidate_tuples, context):
            self.submitted[(insight_class.name, context.mode)] += list(candidate_tuples)
            return original(insight_class, candidate_tuples, context)
        return score_all

    def reset(self) -> None:
        self.enumerated.clear()
        self.submitted.clear()

    def assert_once_each(self) -> None:
        assert self.enumerated and set(self.enumerated.values()) == {1}
        for key, submitted in self.submitted.items():
            assert len(submitted) == len(set(submitted)), key


class TestOncePerSnapshot:
    def test_distinct_queries_enumerate_and_score_once(self, monkeypatch):
        spies = _Spies(monkeypatch)
        workspace = _workspace()
        for request in _distinct_requests():
            workspace.handle(request)
        spies.assert_once_each()
        registry = workspace.engine("d").registry
        domains = {cls.candidate_domain() or cls.name for cls in registry}
        assert set(spies.enumerated) == domains
        # Every class ran in both modes, and gathered more than it scored.
        assert {key[0] for key in spies.submitted} == set(CLASSES)
        stats = workspace.pipeline_stats()
        assert stats["index_hits"] > stats["score_evaluations"] > 0
        assert stats["score_evaluations"] == sum(map(len, spies.submitted.values()))

    @pytest.mark.parametrize("transition", ["append", "reload", "rebuild"])
    def test_a_new_snapshot_starts_cold(self, monkeypatch, transition):
        spies = _Spies(monkeypatch)
        workspace = _workspace()
        request = InsightRequest(dataset="d", insight_classes=CLASSES, top_k=3)
        workspace.handle(request)
        old = weakref.ref(workspace.engine("d"))
        assert old().index.nbytes > 0
        spies.reset()

        workspace.append("d", TABLE.to_records()[:30])
        if transition == "reload":
            workspace.reload("d")
        elif transition == "rebuild":
            workspace.rebuild("d")
        engine = workspace.engine("d")
        assert engine is not old()
        assert engine.index.nbytes == 0
        workspace.handle(request)
        # The new snapshot enumerates and scores again — once each.
        spies.assert_once_each()
        assert set(spies.enumerated) == {
            cls.candidate_domain() or cls.name for cls in engine.registry}
        del engine
        gc.collect()
        assert old() is None


@st.composite
def _request(draw) -> InsightRequest:
    mode = draw(st.sampled_from(("approximate", "exact")))
    top_k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("carousel", "nearby", "range")))
    if kind == "carousel":
        request = InsightRequest(
            dataset="d", insight_classes=CLASSES, top_k=top_k, mode=mode,
            excluded=tuple(draw(st.lists(st.sampled_from(ATTRIBUTES),
                                         max_size=1))))
    elif kind == "nearby":
        request = InsightRequest(
            dataset="d", top_k=top_k, mode=mode,
            insight_classes=tuple(draw(st.lists(
                st.sampled_from(CLASSES), min_size=1, max_size=3, unique=True))),
            fixed=(draw(st.sampled_from(NUMERIC)),))
    else:
        low = draw(st.sampled_from((0.0, 0.05, 0.2)))
        request = InsightRequest(
            dataset="d", top_k=top_k, mode=mode,
            insight_classes=(draw(st.sampled_from(CLASSES)),),
            metric_min=low,
            metric_max=draw(st.sampled_from((None, low + 0.5))))
    if draw(st.booleans()):
        request = request.next_page(encode_cursor(top_k))
    return request


#: Answers of requests asked first on a fresh engine, by canonical key.
_FRESH: dict[str, str] = {}


def _fresh_answer(request: InsightRequest) -> str:
    key = request.canonical_key()
    if key not in _FRESH:
        _FRESH[key] = _answer(_workspace().handle(request))
    return _FRESH[key]


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(_request(), min_size=2, max_size=6))
def test_answers_do_not_depend_on_the_index_warmth(requests):
    workspace = _workspace()
    for request in requests:
        assert _answer(workspace.handle(request)) == _fresh_answer(request), (
            request.to_json())


def test_two_threads_on_a_cold_snapshot_answer_byte_identically():
    requests = [
        InsightRequest(dataset="d", insight_classes=CLASSES, top_k=3),
        InsightRequest(dataset="d", insight_classes=CLASSES, top_k=3,
                       mode="exact"),
    ]
    for _ in range(3):
        workspace = _workspace()
        workspace.engine("d")  # built, index cold
        gate = threading.Barrier(2, timeout=10)
        answers: list[list[str]] = [[], []]
        errors: list[Exception] = []

        def serve(slot: int) -> None:
            try:
                gate.wait()
                for request in requests[slot:] + requests[:slot]:
                    answers[slot].append(_answer(workspace.handle(request)))
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert answers[0] == answers[1][::-1]
        assert answers[0] == [_fresh_answer(request) for request in requests]


def test_racing_fills_store_each_value_once():
    """More threads than cores, switching every microsecond, filling one
    cold index: every answer is the fresh one, and the byte count is
    exactly what the memos hold — a fill counts only what it stored, and
    a fill that raced another keeps both."""
    requests = [
        InsightRequest(dataset="d", insight_classes=CLASSES, top_k=2 + k,
                       mode=mode)
        for k in range(2) for mode in ("approximate", "exact")
    ]
    workspace = _workspace()
    workspace.engine("d")
    index = workspace.engine("d").index
    errors: list[Exception] = []
    answers: dict[int, list[str]] = {}
    gate = threading.Barrier(4, timeout=10)

    def serve(slot: int) -> None:
        try:
            gate.wait()
            order = requests[slot:] + requests[:slot]
            answers[slot] = [_answer(workspace.handle(r)) for r in order]
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for slot, got in answers.items():
        order = requests[slot:] + requests[:slot]
        assert got == [_fresh_answer(request) for request in order]
    assert index.nbytes == _stored_bytes(index)
    for memo in index._scores.values():
        # Every flag came with its value, and no racing fill was lost.
        held = [value is not None for value in memo.candidates]
        assert (memo.valid == np.array(held, dtype=bool)).all()
        assert not (memo.valid & ~memo.scored).any()
        assert memo.scored.all()


def test_a_publish_that_raced_another_keeps_both_fills():
    """Two fills read the same memo, score different candidates and
    publish in turn: the later swap merges what the earlier one stored,
    so a slot only ever gains scores (a query found answerable from the
    index stays answerable)."""
    workspace = _workspace()
    engine = workspace.engine("d")
    workspace.handle(InsightRequest(dataset="d", insight_classes=("dispersion",)))
    skew = engine.registry.get("skew")
    context = engine.context()
    index = engine.index
    [domain] = index._domains.values()
    base = index.memo(skew, context)
    assert base is None
    first, second = (ScoreMemo.empty(len(domain.tuples)).filled(
        np.array([position]),
        skew.score_all([domain.tuples[position]], context))
        for position in (0, 1))
    index.publish(skew, context, base, first)
    published = index.publish(skew, context, base, second)
    assert index.memo(skew, context) is published
    assert np.flatnonzero(published.scored).tolist() == [0, 1]
    assert published.candidates[0] is first.candidates[0]
    assert published.candidates[1] is second.candidates[1]
    assert index.nbytes == _stored_bytes(index)


def _stored_bytes(index) -> int:
    """The index's bytes, recounted from what its slots hold now."""
    domains = sum(
        domain_bytes(domain.tuples) + sys.getsizeof(domain.codes)
        + domain.matrix.nbytes + domain.tie_rank.nbytes
        for domain in index._domains.values())
    memos = sum(
        memo.scored.nbytes + memo.valid.nbytes + memo.score.nbytes
        + sys.getsizeof(memo.candidates)
        + sum(scored_candidate_bytes(value) for value in memo.candidates
              if value is not None)
        for memo in index._scores.values())
    return domains + memos


class TestObservability:
    def test_the_ledger_sizes_the_live_snapshots_index(self):
        workspace = _workspace()
        workspace.handle(InsightRequest(dataset="d", insight_classes=CLASSES))
        index = workspace.engine("d").index
        row = workspace.debug_info()["memory"]["components"]["insight_index"]
        assert row == index.nbytes > 0
        # A payload count: at most what a full walk of the memos finds.
        assert row <= deep_sizeof((index._domains, index._scores))
        # An append publishes a cold snapshot; the old index goes with it.
        workspace.append("d", TABLE.to_records()[:10])
        assert workspace.debug_info()["memory"]["components"]["insight_index"] == 0

    def test_index_hits_count_gathered_candidates(self):
        workspace = _workspace()
        request = InsightRequest(dataset="d", insight_classes=("skew",), top_k=2)
        workspace.handle(request)
        first = workspace.pipeline_stats()
        assert first["index_hits"] == 0
        assert first["score_evaluations"] == len(NUMERIC)
        workspace.handle(request.next_page(encode_cursor(2)))
        second = workspace.pipeline_stats()
        assert second["score_evaluations"] == len(NUMERIC)
        assert second["index_hits"] == len(NUMERIC)
