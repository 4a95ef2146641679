"""``Workspace.answer_warm``: a miss answered from the snapshot's index.

A request whose every candidate domain and admissible score the
snapshot's insight index already holds is a filter and a sort.
``answer_warm`` answers it on the caller's thread — the server's event
loop — on a snapshot read under a try-lock, or says None and records
nothing.  Pinned here:

* **a miss's reply and records** — the reply is :meth:`Workspace.handle`'s
  miss reply, and the span tree, cost bill, cache-miss count, pipeline
  stats and cache put are exactly a miss's;
* **None, recording nothing** — while the entry lock is held, on a cold
  engine, with replay pending, with a domain not held, and with an
  admissible score missing;
* **racing a filler** — beside a thread filling the same snapshot every
  reply is None or the miss reply.
"""

from __future__ import annotations

import json
import sys
import threading

from repro import Workspace
from repro.service import InsightRequest
from repro.service.cursor import encode_cursor

CLASSES = ("dispersion", "skew", "outliers", "linear_relationship")
CAROUSEL = InsightRequest(dataset="oecd", insight_classes=CLASSES, top_k=3)


def _answer(reply) -> dict:
    """A reply minus ``timing`` and ``provenance.cache``."""
    payload = json.loads(reply if isinstance(reply, str) else reply.to_json())
    payload.pop("timing")
    payload["provenance"].pop("cache")
    return payload


def _workspace(oecd_table, **kwargs) -> Workspace:
    workspace = Workspace(cache_size=256, **kwargs)
    workspace.register("oecd", oecd_table)
    return workspace


def _follow_ups(oecd_table) -> list[InsightRequest]:
    """Distinct keys over the carousel's classes: each is a warm miss
    once the carousel has been answered."""
    numeric = oecd_table.numeric_names()
    return [
        InsightRequest(dataset="oecd", insight_classes=CLASSES, top_k=2),
        InsightRequest(dataset="oecd", insight_classes=CLASSES, top_k=4,
                       excluded=(numeric[0],)),
        InsightRequest(dataset="oecd", insight_classes=("skew", "outliers"),
                       top_k=3, fixed=(numeric[1],)),
        InsightRequest(dataset="oecd", insight_classes=("linear_relationship",),
                       top_k=2, fixed=(numeric[2],), metric_min=0.1),
        InsightRequest(dataset="oecd", insight_classes=("dispersion",), top_k=2,
                       metric_min=0.0, metric_max=0.5),
        CAROUSEL.next_page(encode_cursor(3)),
    ]


def _records(workspace: Workspace) -> dict:
    """Everything a served read leaves behind."""
    entry = workspace._entries["oecd"]
    return {
        "cache": workspace.cache_info(),
        "pipeline": workspace.pipeline_stats(),
        "costs": workspace.costs.snapshot()["requests_total"],
        "traces": [t["trace_id"] for t in workspace.tracer.traces()],
        "index": None if entry.engine is None else entry.engine.index.nbytes,
    }


def _shape(span: dict) -> tuple:
    """A span tree's names and non-timing attributes."""
    return (span["name"], span["attributes"].get("cache"),
            tuple(_shape(child) for child in span["children"]))


def _last_trace(workspace: Workspace) -> dict:
    [listed] = workspace.tracer.traces(limit=1)
    return workspace.tracer.trace(listed["trace_id"])


def _carousel_only(oecd_table) -> Workspace:
    workspace = _workspace(oecd_table)
    workspace.handle(CAROUSEL)
    return workspace


class TestAMissReply:
    def test_the_reply_and_records_are_a_handle_miss(self, oecd_table):
        on_loop, on_pool = _workspace(oecd_table), _workspace(oecd_table)
        for workspace in (on_loop, on_pool):
            workspace.handle(CAROUSEL)
        work = {key: on_loop.pipeline_stats()[key]
                for key in ("enumerations", "score_evaluations")}
        for request in _follow_ups(oecd_table):
            text = on_loop.answer_warm(request)
            assert text is not None, request.to_json()
            handled = on_pool.handle(request)
            assert json.loads(text)["provenance"]["cache"] == "miss"
            assert _answer(text) == _answer(handled)
            assert _shape(_last_trace(on_loop)["root"]) == \
                _shape(_last_trace(on_pool)["root"])
            loop_records, pool_records = _records(on_loop), _records(on_pool)
            for records in (loop_records, pool_records):
                # Timing aside: wall-clock figures, trace ids, and the
                # bytes the two replies' ``timing`` digits and the first
                # scoring in a process happen to take.
                records["pipeline"].pop("elapsed_seconds")
                records["cache"].pop("bytes")
                records.pop("traces")
                records.pop("index")
            assert loop_records == pool_records
        # Nothing was enumerated or scored after the carousel.
        assert {key: on_loop.pipeline_stats()[key] for key in work} == work

    def test_the_cache_then_holds_the_hit(self, oecd_table):
        workspace = _workspace(oecd_table)
        workspace.handle(CAROUSEL)
        request = _follow_ups(oecd_table)[0]
        text = workspace.answer_warm(request)
        hit = workspace.peek_cached(request)
        assert json.loads(hit)["provenance"]["cache"] == "hit"
        assert _answer(hit) == _answer(text)

    def test_a_debug_request_echoes_its_cost(self, oecd_table):
        workspace = _workspace(oecd_table)
        workspace.handle(CAROUSEL)
        request = _follow_ups(oecd_table)[0]
        reply = json.loads(workspace.answer_warm(
            InsightRequest.from_dict({**request.to_dict(), "debug": True})))
        cost = reply["provenance"]["cost"]
        assert (cost["cache_hits"], cost["cache_misses"]) == (0, 1)


class TestNoneRecordsNothing:
    @staticmethod
    def _says_none(workspace: Workspace, request: InsightRequest) -> None:
        before = _records(workspace)
        assert workspace.answer_warm(request) is None
        assert _records(workspace) == before

    def test_while_the_entry_lock_is_held(self, oecd_table):
        workspace = _carousel_only(oecd_table)
        request = _follow_ups(oecd_table)[0]
        holding, let_go = threading.Event(), threading.Event()

        def hold():
            with workspace._locked_entry("oecd"):
                holding.set()
                let_go.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=10)
            self._says_none(workspace, request)
        finally:
            let_go.set()
            holder.join(timeout=30)
        assert workspace.answer_warm(request) is not None

    def test_on_a_cold_engine(self, oecd_table):
        workspace = _workspace(oecd_table)
        self._says_none(workspace, CAROUSEL)
        assert workspace._entries["oecd"].engine is None

    def test_while_replay_is_pending(self, oecd_table, tmp_path):
        first = _workspace(oecd_table, data_dir=str(tmp_path))
        first.handle(CAROUSEL)
        first.append("oecd", oecd_table.to_records()[:3])
        first.close()
        restarted = Workspace(cache_size=256, data_dir=str(tmp_path))
        assert restarted._entries["oecd"].pending is not None
        self._says_none(restarted, CAROUSEL)
        assert restarted._entries["oecd"].pending is not None
        restarted.close()

    def test_with_a_domain_not_held(self, oecd_table):
        workspace = _workspace(oecd_table)
        workspace.engine("oecd")
        self._says_none(workspace, CAROUSEL)
        workspace.handle(InsightRequest(dataset="oecd", insight_classes=("skew",)))
        # The numeric singletons are held now; the numeric pairs are not.
        self._says_none(workspace, InsightRequest(
            dataset="oecd", insight_classes=("skew", "linear_relationship")))

    def test_with_an_admissible_score_missing(self, oecd_table):
        workspace = _workspace(oecd_table)
        numeric = oecd_table.numeric_names()
        workspace.handle(InsightRequest(dataset="oecd", insight_classes=("skew",),
                                        fixed=(numeric[0],)))
        # The domain is held, one of its scores too: the rest are missing,
        self._says_none(workspace, InsightRequest(
            dataset="oecd", insight_classes=("skew",)))
        # as are every score of a class sharing the domain,
        self._says_none(workspace, InsightRequest(
            dataset="oecd", insight_classes=("dispersion",), fixed=(numeric[0],)))
        # and of the same class in the other mode.
        self._says_none(workspace, InsightRequest(
            dataset="oecd", insight_classes=("skew",), fixed=(numeric[0],),
            mode="exact"))
        assert workspace.answer_warm(InsightRequest(
            dataset="oecd", insight_classes=("skew",), fixed=(numeric[0],),
            top_k=2)) is not None

    def test_a_request_handle_refuses_is_left_to_handle(self, oecd_table):
        workspace = _carousel_only(oecd_table)
        self._says_none(workspace, InsightRequest(
            dataset="oecd", insight_classes=("no_such_class",)))
        self._says_none(workspace, CAROUSEL.next_page("not-a-cursor"))


def test_racing_a_filler_every_reply_is_none_or_the_miss_reply(oecd_table):
    """A handler thread fills the snapshot while the caller asks warm
    follow-ups, switching every microsecond: each reply is None or the
    reply ``handle`` gives the same request on a fresh workspace."""
    follow_ups = _follow_ups(oecd_table)
    expected = [_answer(_workspace(oecd_table).handle(r)) for r in follow_ups]
    fills = [InsightRequest(dataset="oecd", insight_classes=(name,), top_k=k)
             for k in (1, 5) for name in CLASSES]
    for _ in range(3):
        workspace = _workspace(oecd_table)
        workspace.engine("oecd")
        done = threading.Event()
        errors: list[Exception] = []

        def fill() -> None:
            try:
                for request in fills:
                    workspace.handle(request)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            filler = threading.Thread(target=fill)
            filler.start()
            while not done.is_set():
                for request, want in zip(follow_ups, expected):
                    text = workspace.answer_warm(request)
                    if text is not None:
                        assert _answer(text) == want, request.to_json()
            filler.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # Filled: every follow-up is answered now (or already cached).
        for request, want in zip(follow_ups, expected):
            text = workspace.answer_warm(request)
            assert text is not None and _answer(text) == want
