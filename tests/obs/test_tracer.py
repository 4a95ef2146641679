"""Unit tests for :mod:`repro.obs`: spans, the ring, drains, context.

Everything time-sensitive runs against an injected fake clock so
durations (and therefore filters, histograms and slow events) are
exact, not sleep-based.
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.obs.config import ObsConfig
from repro.obs.events import emit
from repro.obs.tracer import (
    NOOP_SPAN,
    SPAN_BUCKETS,
    Tracer,
    bind,
    current_span,
    obs_span,
)


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make_tracer(clock: FakeClock, **overrides) -> Tracer:
    config = ObsConfig(**overrides)
    return Tracer(config, wall_clock=lambda: 1_000.0, clock=clock)


# ---------------------------------------------------------------------------
# Span lifecycle and ambient context
# ---------------------------------------------------------------------------
class TestSpanLifecycle:
    def test_nested_with_spans_parent_via_ambient(self, clock):
        tracer = make_tracer(clock)
        with tracer.span("outer", dataset="oecd"):
            clock.advance(0.010)
            with tracer.span("inner"):
                clock.advance(0.005)
        [summary] = tracer.traces()
        assert summary["name"] == "outer"
        assert summary["dataset"] == "oecd"
        assert summary["n_spans"] == 2
        trace = tracer.trace(summary["trace_id"])
        assert trace["root"]["name"] == "outer"
        [child] = trace["root"]["children"]
        assert child["name"] == "inner"
        assert child["duration_ms"] == pytest.approx(5.0)
        assert trace["duration_ms"] == pytest.approx(15.0)
        assert trace["start_unix"] == 1_000.0

    def test_ambient_is_clean_after_exit(self, clock):
        tracer = make_tracer(clock)
        with tracer.span("root"):
            assert current_span() is not None
        assert current_span() is None

    def test_exception_records_error_attribute(self, clock):
        tracer = make_tracer(clock)
        with pytest.raises(ValueError):
            with tracer.span("root"):
                raise ValueError("boom")
        trace = tracer.trace(tracer.traces()[0]["trace_id"])
        assert trace["root"]["attributes"]["error"] == "ValueError"

    def test_end_is_idempotent(self, clock):
        tracer = make_tracer(clock)
        span = tracer.start_span("request")
        try:
            clock.advance(0.020)
        finally:
            span.end()
        clock.advance(5.0)
        span.end()  # second end must not re-record or re-time
        assert tracer.stats()["traces_recorded"] == 1
        [summary] = tracer.traces()
        assert summary["duration_ms"] == pytest.approx(20.0)

    def test_start_span_never_touches_ambient(self, clock):
        tracer = make_tracer(clock)
        span = tracer.start_span("request")
        try:
            assert current_span() is None
        finally:
            span.end()

    def test_explicit_parent_wins_over_ambient(self, clock):
        tracer = make_tracer(clock)
        root = tracer.start_span("request")
        try:
            with tracer.span("unrelated"):
                child = tracer.start_span("stage", parent=root)
                child.end()
        finally:
            root.end()
        trace = tracer.trace(root.trace_id)
        names = [node["name"] for node in trace["root"]["children"]]
        assert names == ["stage"]

    def test_disabled_tracer_hands_out_the_noop(self, clock):
        tracer = make_tracer(clock, enabled=False)
        assert tracer.span("a") is NOOP_SPAN
        assert tracer.start_span("b") is NOOP_SPAN
        with tracer.span("a") as span:
            span.set_attribute("k", "v")
        assert tracer.traces() == []
        assert tracer.stats()["enabled"] is False

    def test_noop_parent_starts_a_fresh_root(self, clock):
        tracer = make_tracer(clock)
        span = tracer.start_span("request", parent=NOOP_SPAN)
        span.end()
        assert tracer.traces()[0]["name"] == "request"

    def test_record_span_synthesizes_a_completed_child(self, clock):
        # The after-the-fact span: timed with tracer.clock(), recorded
        # only when the caller decides the elapsed time is worth keeping.
        tracer = make_tracer(clock)
        root = tracer.start_span("request")
        try:
            started = tracer.clock()
            clock.advance(0.050)
            tracer.record_span("admission.wait", root, started)
        finally:
            root.end()
        trace = tracer.trace(root.trace_id)
        [wait] = trace["root"]["children"]
        assert wait["name"] == "admission.wait"
        assert wait["duration_ms"] == pytest.approx(50.0)
        assert wait["start_ms"] == pytest.approx(0.0)

    def test_record_span_needs_a_real_parent(self, clock):
        # Synthesized spans never root a trace: no parent (or a no-op
        # parent, or a disabled tracer) records nothing.
        tracer = make_tracer(clock)
        tracer.record_span("admission.wait", None, tracer.clock())
        tracer.record_span("admission.wait", NOOP_SPAN, tracer.clock())
        assert tracer.stats()["spans_recorded"] == 0
        disabled = make_tracer(clock, enabled=False)
        root = disabled.start_span("request")
        disabled.record_span("admission.wait", root, disabled.clock())
        assert disabled.stats()["spans_recorded"] == 0


# ---------------------------------------------------------------------------
# The bounded ring
# ---------------------------------------------------------------------------
class TestRing:
    def test_capacity_bound_evicts_oldest(self, clock):
        tracer = make_tracer(clock, ring_capacity=4)
        ids = []
        for i in range(10):
            with tracer.span("request", index=i):
                clock.advance(0.001)
            ids.append(tracer.traces(limit=1)[0]["trace_id"])
        held = tracer.traces()
        assert len(held) == 4
        # Newest first, and exactly the last four survive.
        assert [t["trace_id"] for t in held] == list(reversed(ids[-4:]))
        assert tracer.trace(ids[0]) is None  # evicted
        assert tracer.trace(ids[-1]) is not None
        stats = tracer.stats()
        assert stats["traces_recorded"] == 10
        assert stats["traces_held"] == 4

    def test_abandoned_traces_hold_no_tracer_state(self, clock):
        tracer = make_tracer(clock, ring_capacity=1)
        # Roots that never complete, each with one finished child.  The
        # completed children land in their trace's own bucket, which the
        # tracer holds no reference to — nothing is recorded, nothing
        # accumulates, and the abandoned trace GCs with its spans.
        for _ in range(6):
            root = tracer.start_span("stuck")
            child = tracer.start_span("stage", parent=root)
            child.end()
        with tracer.span("healthy"):
            clock.advance(0.001)
        stats = tracer.stats()
        assert stats["traces_recorded"] == 1
        assert stats["spans_recorded"] == 1
        assert [t["name"] for t in tracer.traces()] == ["healthy"]

    def test_set_slow_ms_validates(self, clock):
        tracer = make_tracer(clock)
        assert tracer.set_slow_ms(10.0) == 10.0
        with pytest.raises(ValueError):
            tracer.set_slow_ms(-1)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------
class TestTraceFilters:
    @pytest.fixture
    def tracer(self, clock):
        tracer = make_tracer(clock)
        for dataset, seconds in (
            ("oecd", 0.100), ("imdb", 0.300), ("oecd", 0.300),
        ):
            with tracer.span("request", dataset=dataset):
                clock.advance(seconds)
        return tracer

    def test_dataset_filter(self, tracer):
        assert [t["dataset"] for t in tracer.traces(dataset="oecd")] == [
            "oecd", "oecd"
        ]

    def test_min_duration_filter(self, tracer):
        slow = tracer.traces(min_duration_ms=200.0)
        assert len(slow) == 2
        assert all(t["duration_ms"] >= 200.0 for t in slow)

    def test_limit_applies_after_filters(self, tracer):
        limited = tracer.traces(dataset="oecd", limit=1)
        assert len(limited) == 1
        # Newest matching trace, not newest overall.
        assert limited[0]["duration_ms"] == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------
class TestHistograms:
    def test_per_span_name_schema(self, clock):
        tracer = make_tracer(clock)
        for seconds in (0.004, 0.004, 0.080):
            with tracer.span("request"):
                clock.advance(seconds)
        histograms = tracer.histograms()
        snapshot = histograms["request"]
        assert snapshot["count"] == 3
        assert snapshot["sum_seconds"] == pytest.approx(0.088)
        assert snapshot["max_seconds"] == pytest.approx(0.080)
        assert snapshot["p50_seconds"] == 0.005
        assert snapshot["p99_seconds"] == 0.1
        assert snapshot["bounds"] == list(SPAN_BUCKETS)
        assert snapshot["buckets"]["le_0.005"] == 2
        assert snapshot["buckets"]["le_inf"] == 0

    def test_child_spans_feed_their_own_series(self, clock):
        tracer = make_tracer(clock)
        with tracer.span("request"):
            with tracer.span("engine.build"):
                clock.advance(0.050)
        assert set(tracer.histograms()) == {"engine.build", "request"}


# ---------------------------------------------------------------------------
# Threads: lock-free buffers, drains, context handoff
# ---------------------------------------------------------------------------
class TestThreads:
    def test_eight_thread_drain_is_exact(self, clock):
        tracer = make_tracer(clock, ring_capacity=512)
        threads, per_thread, children = 8, 25, 3
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def work() -> None:
            try:
                barrier.wait()
                for _ in range(per_thread):
                    with tracer.span("request"):
                        for _ in range(children):
                            with tracer.span("stage"):
                                pass
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert errors == []
        stats = tracer.stats()
        assert stats["traces_recorded"] == threads * per_thread
        assert stats["spans_recorded"] == threads * per_thread * (children + 1)
        assert all(
            t["n_spans"] == children + 1 for t in tracer.traces(limit=200)
        )

    def test_bind_hands_span_to_a_foreign_thread(self, clock):
        tracer = make_tracer(clock)
        root = tracer.start_span("request")

        def on_worker() -> None:
            with obs_span("stage"):
                pass

        try:
            thread = threading.Thread(target=bind(root, on_worker))
            thread.start()
            thread.join()
        finally:
            root.end()
        trace = tracer.trace(root.trace_id)
        assert [n["name"] for n in trace["root"]["children"]] == ["stage"]


# ---------------------------------------------------------------------------
# obs_span helper
# ---------------------------------------------------------------------------
class TestObsSpan:
    def test_without_ambient_span_is_the_noop(self):
        assert obs_span("journal.append") is NOOP_SPAN

    def test_with_ambient_span_parents_to_it(self, clock):
        tracer = make_tracer(clock)
        with tracer.span("request") as root:
            with obs_span("journal.append", n_rows=3):
                pass
        trace = tracer.trace(root.trace_id)
        [child] = trace["root"]["children"]
        assert child["name"] == "journal.append"
        assert child["attributes"] == {"n_rows": 3}


# ---------------------------------------------------------------------------
# Events: slow requests and the structured log
# ---------------------------------------------------------------------------
class TestEvents:
    def test_slow_root_emits_slow_request(self, clock, caplog):
        tracer = make_tracer(clock, slow_ms=200.0)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            with tracer.span("request", dataset="oecd"):
                clock.advance(0.150)  # under threshold: no event
            with tracer.span("request", dataset="imdb"):
                clock.advance(0.250)
        payloads = [json.loads(r.message) for r in caplog.records]
        assert len(payloads) == 1
        event = payloads[0]
        assert event["event"] == "slow_request"
        assert event["dataset"] == "imdb"
        assert event["duration_ms"] == pytest.approx(250.0)
        assert event["threshold_ms"] == 200.0
        assert "ts" in event

    def test_emit_is_silent_when_logger_disabled(self, caplog):
        emit("rebuild_swap", dataset="oecd")  # default WARNING level
        assert caplog.records == []

    def test_emit_stringifies_non_json_values(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            emit("fsync_failure", error=OSError("disk gone"))
        [record] = caplog.records
        assert json.loads(record.message)["error"] == "disk gone"


# ---------------------------------------------------------------------------
# ObsConfig parsing
# ---------------------------------------------------------------------------
class TestObsConfig:
    def test_defaults(self):
        config = ObsConfig()
        assert config.enabled is True
        assert config.ring_capacity == 256
        assert config.slow_ms == 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(ring_capacity=0)
        with pytest.raises(ValueError):
            ObsConfig(slow_ms=-1.0)

    def test_from_env(self):
        config = ObsConfig.from_env({
            "REPRO_OBS_ENABLED": "off",
            "REPRO_OBS_RING_CAPACITY": "32",
            "REPRO_OBS_SLOW_MS": "50",
        })
        assert config == ObsConfig(enabled=False, ring_capacity=32,
                                   slow_ms=50.0)

    def test_from_env_rejects_bad_bool(self):
        with pytest.raises(ValueError):
            ObsConfig.from_env({"REPRO_OBS_ENABLED": "maybe"})
