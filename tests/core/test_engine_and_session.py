"""Tests for the Foresight engine façade and exploration sessions."""

import json
from typing import Iterator

import pytest

from repro import Foresight
from repro.core.engine import EngineConfig
from repro.core.insight import Insight, InsightClass, ScoredCandidate, singletons
from repro.core.query import InsightQuery
from repro.core.session import ExplorationSession
from repro.errors import InsightError, UnknownInsightClassError
from repro.sketch.store import SketchStoreConfig
from repro.viz.spec import VisualizationSpec


class TestEngineBasics:
    def test_catalogue_lists_twelve_classes(self, oecd_engine):
        assert len(oecd_engine.insight_classes()) == 12

    def test_store_built_in_approximate_mode(self, oecd_engine):
        assert oecd_engine.store is not None
        assert oecd_engine.store.stats.n_rows == 35

    def test_exact_mode_skips_preprocessing(self, oecd_table):
        engine = Foresight(oecd_table, config=EngineConfig(mode="exact"))
        assert engine.store is None
        result = engine.query("skew", top_k=2)
        assert len(result) == 2

    def test_repr(self, oecd_engine):
        assert "oecd" in repr(oecd_engine)


class TestEngineQueries:
    def test_query_returns_ranked_insights(self, oecd_engine):
        result = oecd_engine.query("linear_relationship", top_k=3)
        assert len(result) == 3
        assert set(result.top().attributes) == {
            "EmployeesWorkingVeryLongHours", "TimeDevotedToLeisure",
        }

    def test_query_accepts_prebuilt_query(self, oecd_engine):
        result = oecd_engine.query(InsightQuery("skew", top_k=2, mode="exact"))
        assert len(result) == 2

    def test_query_rejects_mixed_arguments(self, oecd_engine):
        with pytest.raises(InsightError):
            oecd_engine.query(InsightQuery("skew"), top_k=2)

    def test_query_with_fixed_attribute(self, oecd_engine):
        result = oecd_engine.query(
            "linear_relationship", top_k=3, fixed=("SelfReportedHealth",), mode="exact"
        )
        assert all(i.involves("SelfReportedHealth") for i in result)

    def test_unknown_class_raises(self, oecd_engine):
        with pytest.raises(UnknownInsightClassError):
            oecd_engine.query("sorcery")

    def test_exact_and_approximate_agree_on_top_pair(self, oecd_engine):
        approx = oecd_engine.query("linear_relationship", top_k=1, mode="approximate")
        exact = oecd_engine.query("linear_relationship", top_k=1, mode="exact")
        assert set(approx.top().attributes) == set(exact.top().attributes)
        assert approx.top().score == pytest.approx(exact.top().score, abs=0.1)

    def test_carousels_cover_requested_classes(self, oecd_engine):
        carousels = oecd_engine.carousels(top_k=2, insight_classes=["skew", "outliers"])
        assert [c.insight_class for c in carousels] == ["skew", "outliers"]
        assert all(len(c) <= 2 for c in carousels)
        assert all(c.elapsed_seconds >= 0 for c in carousels)

    def test_carousels_default_covers_all_classes(self, oecd_engine):
        carousels = oecd_engine.carousels(top_k=1)
        assert len(carousels) == 12

    def test_triple_class_gets_candidate_cap(self, oecd_engine):
        result = oecd_engine.query("segmentation", top_k=2)
        assert result.query.max_candidates == oecd_engine.config.max_candidates_triples

    def test_recommend_near(self, oecd_engine):
        focus = oecd_engine.query("normality", top_k=5, mode="exact")
        health = next(i for i in focus if i.attributes == ("SelfReportedHealth",))
        nearby = oecd_engine.recommend_near(health, "linear_relationship", top_k=3, mode="exact")
        assert any(i.involves("SelfReportedHealth") for i in nearby)

    def test_visualize_and_overview(self, oecd_engine):
        insight = oecd_engine.query("linear_relationship", top_k=1).top()
        spec = oecd_engine.visualize(insight)
        assert isinstance(spec, VisualizationSpec)
        assert spec.mark == "point"
        overview = oecd_engine.overview("linear_relationship")
        assert overview.mark == "rect"
        assert oecd_engine.overview("skew") is None

    def test_exact_view(self, oecd_engine):
        exact_engine = oecd_engine.exact()
        assert exact_engine.config.mode == "exact"
        result = exact_engine.query("linear_relationship", top_k=1)
        assert result.top().details["source"] == "exact"


class _ConstantWidthInsight(InsightClass):
    """A trivial plug-in insight class used to test extensibility."""

    name = "value_range"
    label = "Value Range"
    description = "Width of the value range"
    metric_name = "range_width"
    arity = 1
    visualization = "histogram"

    def candidates(self, table) -> Iterator[tuple[str, ...]]:
        yield from singletons(table.numeric_names())

    def score(self, attributes, context):
        column = context.table.numeric_column(attributes[0])
        values = column.valid_values()
        if values.size == 0:
            return None
        return ScoredCandidate(attributes=attributes,
                               score=float(values.max() - values.min()))

    def visualize(self, insight, context):
        from repro.viz.charts import histogram_spec

        values = context.table.numeric_column(insight.attributes[0]).valid_values()
        return histogram_spec(values, insight.attributes[0])


class TestExtensibility:
    def test_register_custom_insight_class(self, oecd_table):
        engine = Foresight(oecd_table, config=EngineConfig(mode="exact"))
        engine.register(_ConstantWidthInsight())
        result = engine.query("value_range", top_k=3)
        assert len(result) == 3
        assert result.top().insight_class == "value_range"
        spec = engine.visualize(result.top())
        assert spec.mark == "bar"

    def test_duplicate_registration_needs_replace(self, oecd_table):
        engine = Foresight(oecd_table, config=EngineConfig(mode="exact"))
        engine.register(_ConstantWidthInsight())
        with pytest.raises(InsightError):
            engine.register(_ConstantWidthInsight())
        engine.register(_ConstantWidthInsight(), replace=True)


class TestExplorationSession:
    def test_carousels_without_focus(self, oecd_engine):
        session = ExplorationSession(oecd_engine, name="demo")
        carousels = session.carousels(top_k=2, insight_classes=["linear_relationship"])
        assert len(carousels) == 1
        assert len(carousels[0]) == 2

    def test_focus_changes_recommendations(self, oecd_engine):
        session = ExplorationSession(oecd_engine)
        first = session.carousels(top_k=3, insight_classes=["linear_relationship"])[0]
        health_shape = Insight(
            insight_class="normality", attributes=("SelfReportedHealth",),
            score=0.7, metric_name="non_normality",
        )
        session.focus(health_shape)
        assert session.focused_insights == [health_shape]
        focused = session.carousels(top_k=3, insight_classes=["linear_relationship"])[0]
        assert any(i.involves("SelfReportedHealth") for i in focused.insights)
        assert [i.attributes for i in focused.insights] != [i.attributes for i in first.insights]

    def test_focus_is_idempotent_and_unfocus_works(self, oecd_engine):
        session = ExplorationSession(oecd_engine)
        insight = Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness")
        session.focus(insight)
        session.focus(insight)
        assert len(session.focused_insights) == 1
        session.unfocus(insight)
        assert session.focused_insights == []
        session.focus(insight)
        session.clear_focus()
        assert session.focused_insights == []

    def test_recommend_near_focus_requires_focus(self, oecd_engine):
        session = ExplorationSession(oecd_engine)
        with pytest.raises(InsightError):
            session.recommend_near_focus("linear_relationship")

    def test_history_records_actions(self, oecd_engine):
        session = ExplorationSession(oecd_engine)
        session.query("skew", top_k=1)
        session.focus(Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness"))
        actions = [event.action for event in session.history]
        assert actions[0] == "session_started"
        assert "query" in actions
        assert "focus" in actions

    def test_injected_clock_stamps_history(self, oecd_engine):
        """Event timestamps come from the injected clock, not the wall.

        Regression test for the ``time.time()`` call the determinism audit
        flagged in the core: with a fixed clock every event — including the
        ``session_started`` logged by the constructor — carries the
        injected timestamp.
        """
        session = ExplorationSession(oecd_engine, name="fixed", clock=lambda: 123.5)
        session.focus(Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness"))
        session.clear_focus()
        assert [event.timestamp for event in session.history] == [123.5] * 3

    def test_same_clock_same_actions_identical_histories(self, oecd_engine):
        """Two sessions driven identically with the same deterministic clock
        produce byte-identical saved state."""

        def drive(clock):
            session = ExplorationSession(oecd_engine, name="replay", clock=clock)
            session.query("skew", top_k=1)
            session.focus(Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness"))
            return session.save_json()

        def make_clock():
            ticks = iter(range(1000))
            return lambda: float(next(ticks))

        assert drive(make_clock()) == drive(make_clock())

    def test_restore_accepts_clock(self, oecd_engine):
        session = ExplorationSession(oecd_engine, name="orig", clock=lambda: 1.0)
        restored = ExplorationSession.restore(
            oecd_engine, session.save(), clock=lambda: 2.0
        )
        restored.clear_focus()  # no focus: nothing logged
        restored.focus(Insight("skew", ("SelfReportedHealth",), 2.0, "abs_skewness"))
        assert restored.history[0].timestamp == 1.0  # carried forward verbatim
        assert restored.history[-1].timestamp == 2.0  # stamped by the new clock

    def test_save_and_restore_round_trip(self, oecd_engine):
        session = ExplorationSession(oecd_engine, name="analyst-1")
        insight = Insight("normality", ("SelfReportedHealth",), 0.7, "non_normality",
                          summary="left-skewed", details={"shape": "left-skewed"})
        session.focus(insight)
        payload = session.save_json()
        restored = ExplorationSession.restore_json(oecd_engine, payload)
        assert restored.name == "analyst-1"
        assert restored.focused_insights[0].attributes == ("SelfReportedHealth",)
        assert restored.focused_insights[0].details["shape"] == "left-skewed"
        # The restored state must be valid JSON for sharing with colleagues.
        assert json.loads(payload)["dataset"] == oecd_engine.table.name


class TestEngineConfig:
    def test_custom_sketch_config_respected(self, oecd_table):
        config = EngineConfig(sketch=SketchStoreConfig(sample_capacity=10, seed=3))
        engine = Foresight(oecd_table, config=config)
        assert engine.store.config.seed == 3
        assert engine.store.sample_table().n_rows <= 10

    def test_default_top_k_used(self, oecd_table):
        engine = Foresight(oecd_table, config=EngineConfig(default_top_k=2, mode="exact"))
        assert len(engine.query("skew")) == 2
