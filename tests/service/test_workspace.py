"""Tests for the Workspace serving façade."""

import json
import threading

import pytest

from repro import Foresight, Insight, Workspace
from repro.core.engine import EngineConfig
from repro.data.datasets import load_oecd, make_numeric_table
from repro.errors import ProtocolError, ServiceError, UnknownDatasetError
from repro.service import InsightRequest, InsightResponse


@pytest.fixture()
def workspace(oecd_table):
    workspace = Workspace(cache_size=8)
    workspace.register("oecd", oecd_table)
    return workspace


def _request(**overrides) -> InsightRequest:
    payload = dict(dataset="oecd", insight_classes=("dispersion", "skew", "outliers"),
                   top_k=3)
    payload.update(overrides)
    return InsightRequest(**payload)


class TestDatasetManagement:
    def test_loader_runs_lazily_and_once(self):
        calls = []

        def loader():
            calls.append(1)
            return make_numeric_table(n_rows=80, n_columns=5, seed=1)

        workspace = Workspace()
        workspace.register("synthetic", loader)
        assert calls == []  # nothing loaded at registration time
        engine = workspace.engine("synthetic")
        assert isinstance(engine, Foresight)
        assert workspace.engine("synthetic") is engine  # cached
        assert calls == [1]

    def test_unknown_dataset_raises(self, workspace):
        with pytest.raises(UnknownDatasetError):
            workspace.engine("nope")
        with pytest.raises(UnknownDatasetError):
            workspace.handle(_request(dataset="nope"))

    def test_duplicate_registration_needs_replace(self, workspace, oecd_table):
        with pytest.raises(ServiceError):
            workspace.register("oecd", oecd_table)
        workspace.register("oecd", oecd_table, replace=True)
        assert workspace.version("oecd") == 2

    def test_engine_config_respected(self, oecd_table):
        workspace = Workspace()
        workspace.register("oecd", oecd_table,
                           engine_config=EngineConfig(mode="exact"))
        assert workspace.engine("oecd").store is None

    def test_describe_reports_lifecycle(self, oecd_table):
        workspace = Workspace()
        workspace.register("oecd", load_oecd)
        (status,) = workspace.describe()
        assert status == {"name": "oecd", "version": 1, "seq": 0,
                          "loaded": False, "engine_built": False,
                          "engine_builds": 0, "lazy": True, "busy": False,
                          "rebuild_running": False,
                          "ingest": {"seq": 0, "rows_appended": 0,
                                     "delta_merges": 0, "rebuilds": 0,
                                     "bg_rebuilds": 0,
                                     "rows_since_rebuild": 0,
                                     "base_rows": 0}}
        workspace.engine("oecd")
        (status,) = workspace.describe()
        assert status["loaded"] and status["engine_built"]
        assert status["engine_builds"] == 1


class TestRequestServing:
    def test_multi_class_response_in_request_order(self, workspace):
        response = workspace.handle(_request())
        assert response.classes() == ["dispersion", "skew", "outliers"]
        assert all(len(c["insights"]) == 3 for c in response.carousels)
        assert response.dataset_version == 1
        assert response.timing["total_seconds"] >= 0

    def test_multi_class_request_enumerates_once(self, workspace):
        response = workspace.handle(_request())
        stats = workspace.pipeline_stats()
        assert stats["enumerations"] == 1
        assert stats["shared_queries"] == 2
        # The counters describe the index's warmth, not the answer, so
        # they stay off the wire.
        assert set(response.provenance) == {"cache", "mode"}

    def test_repeat_request_served_from_cache_with_provenance(self, workspace):
        first = workspace.handle(_request())
        assert first.provenance["cache"] == "miss"
        second = workspace.handle(_request())
        assert second.provenance["cache"] == "hit"
        assert second.carousels == first.carousels
        info = workspace.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cache_hit_does_not_mutate_cached_entry(self, workspace):
        workspace.handle(_request())
        hit = workspace.handle(_request())
        hit.carousels[0]["insights"].clear()
        hit.provenance["cache"] = "tampered"
        again = workspace.handle(_request())
        assert again.provenance["cache"] == "hit"
        assert again.carousels[0]["insights"]

    def test_cache_holds_the_reply_as_a_hit_sends_it(self, workspace):
        miss = workspace.handle(_request())
        [key] = workspace.cache.keys()
        stored = workspace.cache.peek(key)
        assert workspace.handle(_request()).to_json() == stored
        miss.provenance["cache"] = "hit"
        assert miss.to_json() == stored

    def test_results_match_direct_engine_queries(self, workspace, oecd_engine):
        response = workspace.handle(_request())
        for name in ("dispersion", "skew", "outliers"):
            direct = oecd_engine.query(name, top_k=3)
            assert [i.attributes for i in response.insights_for(name)] == (
                direct.attribute_sets()
            )

    def test_dict_and_json_requests_accepted(self, workspace):
        response = workspace.handle(_request().to_dict())
        assert isinstance(response, InsightResponse)
        text = workspace.handle_json(_request().to_json())
        assert InsightResponse.from_json(text).classes() == [
            "dispersion", "skew", "outliers",
        ]

    def test_response_json_round_trip_is_byte_identical(self, workspace):
        response = workspace.handle(_request())
        text = response.to_json()
        assert InsightResponse.from_json(text).to_json() == text
        json.loads(text)  # strict JSON (no IEEE infinities etc.)

    def test_constraints_forwarded(self, workspace):
        response = workspace.handle(InsightRequest(
            dataset="oecd", insight_classes="linear_relationship", top_k=3,
            fixed=("SelfReportedHealth",), mode="exact",
        ))
        insights = response.insights_for("linear_relationship")
        assert insights
        assert all(i.involves("SelfReportedHealth") for i in insights)

    def test_bad_request_type_rejected(self, workspace):
        with pytest.raises(ServiceError):
            workspace.handle(42)


class TestPeekCached:
    """``peek_cached``: the cached reply without waiting, or None."""

    def test_none_until_handle_has_answered_then_the_hit_text(self, workspace):
        assert workspace.peek_cached(_request()) is None      # cold engine
        workspace.engine("oecd")
        assert workspace.peek_cached(_request()) is None      # nothing cached
        assert workspace.cache_info()["misses"] == 0
        workspace.handle(_request())
        text = workspace.peek_cached(_request())
        assert text == workspace.handle(_request()).to_json()
        info = workspace.cache_info()
        # Three reads served (miss, peeked hit, handled hit), three
        # lookups counted: the peeks that said None counted nothing.
        assert (info["hits"], info["misses"]) == (2, 1)

    def test_bills_and_traces_what_a_handle_hit_does(self, workspace):
        workspace.handle(_request())
        for serve in (workspace.handle, workspace.peek_cached):
            before = workspace.costs.snapshot()
            serve(_request())
            after = workspace.costs.snapshot()
            assert after["requests_total"] == before["requests_total"] + 1
            assert after["totals"]["cache_hits"] == \
                before["totals"]["cache_hits"] + 1
            [listed] = workspace.tracer.traces(limit=1)
            trace = workspace.tracer.trace(listed["trace_id"])
            assert trace["name"] == "workspace.handle"
            assert trace["root"]["attributes"]["cache"] == "hit"
            assert trace["cost"]["cache_hits"] == 1

    def test_debug_echo_is_stamped_on_a_copy(self, workspace):
        workspace.handle(_request())
        [key] = workspace.cache.keys()
        stored = workspace.cache.peek(key)
        debugged = json.loads(workspace.peek_cached(_request(debug=True)))
        assert debugged["provenance"].pop("cost")["cache_hits"] == 1
        assert debugged == json.loads(stored)
        assert workspace.cache.peek(key) is stored

    def test_says_no_rather_than_wait_for_the_entry_lock(self, workspace):
        workspace.handle(_request())
        entry = workspace._entry("oecd")
        holding, let_go = threading.Event(), threading.Event()

        def hold():
            with entry.lock:
                holding.set()
                let_go.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=10)
            assert workspace.peek_cached(_request()) is None
        finally:
            let_go.set()
            holder.join(timeout=30)
        assert workspace.peek_cached(_request()) is not None

    def test_never_answers_for_a_state_that_is_not_current(self, workspace):
        workspace.handle(_request())
        workspace.append("oecd", workspace.table("oecd").to_records()[:2])
        assert workspace.peek_cached(_request()) is None      # seq moved on
        workspace.handle(_request())
        assert json.loads(workspace.peek_cached(_request()))["dataset_seq"] == 1
        workspace.reload("oecd")
        assert workspace.peek_cached(_request()) is None      # engine is cold
        workspace.register("oecd", load_oecd(), replace=True)
        assert workspace.peek_cached(_request()) is None
        workspace.handle(_request())
        reply = json.loads(workspace.peek_cached(_request()))
        assert (reply["dataset_version"], reply["dataset_seq"]) == (3, 0)


class TestPagination:
    def test_pages_are_disjoint_and_ordered(self, workspace):
        page1 = workspace.handle(InsightRequest(
            dataset="oecd", insight_classes="skew", top_k=2, mode="exact"))
        assert page1.next_cursor is not None
        page2 = workspace.handle(InsightRequest(
            dataset="oecd", insight_classes="skew", top_k=2, mode="exact",
            cursor=page1.next_cursor))
        first = page1.insights_for("skew")
        second = page2.insights_for("skew")
        assert len(first) == 2 and second
        assert not {i.key for i in first} & {i.key for i in second}
        # Concatenated pages must equal one deep query.
        deep = workspace.engine("oecd").query("skew", top_k=4, mode="exact")
        assert [i.attributes for i in first + second] == deep.attribute_sets()[:len(first + second)]

    def test_pagination_terminates(self, workspace):
        cursor = None
        seen = []
        for _ in range(30):  # far more pages than insights exist
            response = workspace.handle(InsightRequest(
                dataset="oecd", insight_classes="skew", top_k=3, mode="exact",
                cursor=cursor))
            seen.extend(response.insights_for("skew"))
            cursor = response.next_cursor
            if cursor is None:
                break
        assert cursor is None
        assert len({i.key for i in seen}) == len(seen)

    def test_invalid_cursor_rejected(self, workspace):
        with pytest.raises(ProtocolError):
            workspace.handle(_request(cursor="garbage-cursor"))


class TestReloadAndInvalidation:
    def test_reload_bumps_version_and_invalidates_cache(self):
        calls = []

        def loader():
            calls.append(1)
            return make_numeric_table(n_rows=80, n_columns=5, seed=1)

        workspace = Workspace()
        workspace.register("synthetic", loader)
        request = InsightRequest(dataset="synthetic", insight_classes="skew", top_k=2)
        assert workspace.handle(request).provenance["cache"] == "miss"
        assert workspace.handle(request).provenance["cache"] == "hit"

        assert workspace.reload("synthetic") == 2
        assert workspace.version("synthetic") == 2
        response = workspace.handle(request)
        assert response.provenance["cache"] == "miss"
        assert response.dataset_version == 2
        assert len(calls) == 2  # loader re-ran after reload

    def test_explicit_invalidation(self, workspace):
        workspace.handle(_request())
        assert len(workspace.cache) == 1
        assert workspace.invalidate("oecd") == 1
        assert len(workspace.cache) == 0
        assert workspace.handle(_request()).provenance["cache"] == "miss"


class TestWorkspaceSessions:
    def test_session_addressable_by_dataset_name(self, workspace):
        session = workspace.session("oecd", name="analyst-1")
        assert session.dataset == "oecd"
        assert session.engine is workspace.engine("oecd")

    def test_save_restore_save_is_byte_identical(self, workspace):
        session = workspace.session("oecd", name="analyst-1")
        insight = Insight("normality", ("SelfReportedHealth",), 0.7,
                          "non_normality", summary="left-skewed",
                          details={"shape": "left-skewed"})
        session.focus(insight)
        session.query("skew", top_k=1)
        saved = session.save_json()
        restored = workspace.restore_session(saved)
        assert restored.save_json() == saved
        assert restored.focused_insights == [insight]
        # And once more through the dict form.
        assert workspace.restore_session(restored.save()).save_json() == saved

    def test_restored_session_keeps_exploring(self, workspace):
        session = workspace.session("oecd")
        session.focus(Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness"))
        restored = workspace.restore_session(session.save())
        result = restored.recommend_near_focus("linear_relationship", top_k=2)
        assert len(result) == 2

    def test_restore_unknown_dataset_raises(self, workspace):
        session = workspace.session("oecd")
        state = session.save()
        state["dataset"] = "elsewhere"
        with pytest.raises(UnknownDatasetError):
            workspace.restore_session(state)
