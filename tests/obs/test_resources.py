"""Unit tests for :mod:`repro.obs.resources`.

Cost recorders (counter accumulation, nesting-safe CPU windows, the
ambient thread-local channel) and the workspace-side
:class:`CostAggregator` (rolling per-key windows checked against a
brute-force recompute, monotone lifetime totals, the top-K ring) — plus
the ObsConfig knob surface the subsystem is configured through.
"""

from __future__ import annotations

import argparse
import threading
import time

import pytest

from repro.obs.config import ObsConfig
from repro.obs.resources import (
    CostAggregator,
    CostRecorder,
    attach_recorder,
    current_recorder,
    record_cache_probe,
    record_candidates,
    record_journal_bytes,
    record_rows,
    record_sketch_probe,
)


def _burn_cpu(seconds: float = 0.02) -> int:
    """Spin the CPU for roughly ``seconds`` of *thread* time."""
    deadline = time.thread_time() + seconds
    acc = 0
    while time.thread_time() < deadline:
        acc += 1
    return acc


class TestCostRecorder:
    def test_counters_accumulate_and_snapshot(self):
        recorder = CostRecorder()
        recorder.add("rows_scanned", 100)
        recorder.add("rows_scanned", 50)
        recorder.add("candidates_enumerated", 12)
        recorder.add("candidates_pruned", 4)
        recorder.add("sketch_probes", 3)
        recorder.add("cache_hits")
        recorder.add("cache_misses")
        recorder.add("bytes_journaled", 2048)
        snapshot = recorder.finish().snapshot()
        assert snapshot["rows_scanned"] == 150
        assert snapshot["candidates_enumerated"] == 12
        assert snapshot["candidates_pruned"] == 4
        assert snapshot["sketch_probes"] == 3
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache_misses"] == 1
        assert snapshot["bytes_journaled"] == 2048
        assert snapshot["wall_seconds"] >= 0.0
        # Every declared counter appears, even untouched ones.
        for name in CostRecorder.COUNTERS:
            assert name in snapshot

    def test_cpu_window_measures_thread_cpu(self):
        recorder = CostRecorder()
        with recorder.cpu_window():
            _burn_cpu(0.02)
        assert recorder.cpu_seconds >= 0.015

    def test_nested_window_on_same_thread_does_not_double_bill(self):
        recorder = CostRecorder()
        before = time.thread_time()
        with recorder.cpu_window():
            with recorder.cpu_window():
                _burn_cpu(0.02)
        external = time.thread_time() - before
        # Double billing would record ~2x the externally measured CPU.
        assert recorder.cpu_seconds <= external * 1.5 + 0.005

    def test_windows_on_distinct_threads_sum(self):
        recorder = CostRecorder()

        def shard():
            with recorder.cpu_window():
                _burn_cpu(0.02)

        threads = [threading.Thread(target=shard) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Two shards at >= 20ms thread-CPU each.
        assert recorder.cpu_seconds >= 0.03


class TestAmbientChannel:
    def test_helpers_are_noops_without_a_recorder(self):
        assert current_recorder() is None
        record_rows(10)
        record_sketch_probe()
        record_candidates(5, 2)
        record_journal_bytes(100)
        record_cache_probe(True)  # nothing to assert: must not raise

    def test_attach_records_and_restores(self):
        recorder = CostRecorder()
        with attach_recorder(recorder):
            assert current_recorder() is recorder
            record_rows(7)
            record_cache_probe(False)
        assert current_recorder() is None
        assert recorder.rows_scanned == 7
        assert recorder.cache_misses == 1

    def test_attach_none_is_a_noop(self):
        with attach_recorder(None) as attached:
            assert attached is None
            assert current_recorder() is None


class TestCostAggregator:
    @staticmethod
    def _snapshot(i: int) -> dict:
        return {
            "cpu_seconds": float(i), "wall_seconds": float(i) * 2,
            "rows_scanned": i * 10, "candidates_enumerated": i,
            "candidates_pruned": 0, "sketch_probes": i,
            "cache_hits": 0, "cache_misses": 1, "bytes_journaled": 0,
        }

    def test_rolling_window_matches_brute_force_recompute(self):
        agg = CostAggregator(window=4)
        snapshots = [self._snapshot(i) for i in range(10)]
        for snap in snapshots:
            agg.record(snap, datasets=("demo",))
        window = agg.snapshot()["datasets"]["demo"]
        last4 = snapshots[-4:]
        assert window["requests"] == 4
        assert window["requests_total"] == 10
        assert window["cpu_seconds"] == pytest.approx(
            sum(s["cpu_seconds"] for s in last4))
        assert window["rows_scanned"] == sum(s["rows_scanned"] for s in last4)

    def test_totals_are_lifetime_monotone(self):
        agg = CostAggregator(window=2)
        for i in range(6):
            agg.record(self._snapshot(i), datasets=("demo",))
        totals = agg.snapshot()["totals"]
        assert totals["rows_scanned"] == sum(i * 10 for i in range(6))
        assert totals["cpu_seconds"] == pytest.approx(sum(range(6)))
        assert agg.snapshot()["requests_total"] == 6

    def test_multi_key_request_counts_once_globally(self):
        agg = CostAggregator(window=8)
        agg.record(self._snapshot(3), datasets=("a", "b"),
                   classes=("skew", "outliers"))
        snap = agg.snapshot()
        assert snap["requests_total"] == 1
        assert snap["datasets"]["a"]["requests"] == 1
        assert snap["datasets"]["b"]["requests"] == 1
        assert snap["classes"]["skew"]["requests"] == 1
        assert snap["classes"]["outliers"]["requests"] == 1
        assert snap["totals"]["rows_scanned"] == 30

    def test_top_requests_sorted_by_cpu(self):
        agg = CostAggregator(window=8)
        for cpu in (1.0, 5.0, 3.0):
            snap = self._snapshot(0)
            snap["cpu_seconds"] = cpu
            agg.record(snap, datasets=("demo",), trace_id=f"t{cpu}")
        top = agg.top_requests(2)
        assert [entry["cpu_seconds"] for entry in top] == [5.0, 3.0]
        assert top[0]["trace_id"] == "t5.0"
        assert top[0]["datasets"] == ["demo"]
        # snapshot(top_k=...) embeds the same listing.
        assert agg.snapshot(top_k=1)["top_requests"][0]["cpu_seconds"] == 5.0
        assert "top_requests" not in agg.snapshot()

    def test_forget_dataset_drops_window_keeps_totals(self):
        agg = CostAggregator(window=4)
        agg.record(self._snapshot(2), datasets=("gone",))
        agg.forget_dataset("gone")
        snap = agg.snapshot()
        assert "gone" not in snap["datasets"]
        assert snap["requests_total"] == 1
        assert snap["totals"]["rows_scanned"] == 20

    def test_cpu_histogram_counts_every_request(self):
        agg = CostAggregator(window=4)
        for i in range(5):
            agg.record(self._snapshot(i), datasets=("demo",))
        assert agg.snapshot()["cpu_seconds_histogram"]["count"] == 5

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            CostAggregator(window=0)


class TestObsConfigKnobs:
    def test_env_round_trip(self):
        config = ObsConfig.from_env({
            "REPRO_OBS_RESOURCES_ENABLED": "false",
            "REPRO_OBS_COST_WINDOW": "64",
            "REPRO_OBS_DEBUG_TOP_K": "5",
            "REPRO_OBS_LOOP_LAG_MS": "250",
            "REPRO_OBS_REBUILD_DEADLINE_S": "12.5",
            "REPRO_OBS_LOCK_WAIT_MS": "80",
        })
        assert config.resources_enabled is False
        assert config.cost_window == 64
        assert config.debug_top_k == 5
        assert config.loop_lag_ms == 250.0
        assert config.rebuild_deadline_s == 12.5
        assert config.lock_wait_ms == 80.0

    def test_cli_round_trip(self):
        parser = argparse.ArgumentParser()
        ObsConfig.add_cli_arguments(parser, base=ObsConfig())
        args = parser.parse_args([
            "--obs-resources-enabled", "no",
            "--obs-cost-window", "32",
            "--obs-debug-top-k", "3",
            "--obs-loop-lag-ms", "150",
            "--obs-rebuild-deadline-s", "9",
            "--obs-lock-wait-ms", "40",
        ])
        config = ObsConfig.from_args(args)
        assert config.resources_enabled is False
        assert config.cost_window == 32
        assert config.debug_top_k == 3
        assert config.loop_lag_ms == 150.0
        assert config.rebuild_deadline_s == 9.0
        assert config.lock_wait_ms == 40.0

    @pytest.mark.parametrize("kwargs", [
        {"cost_window": 0},
        {"debug_top_k": -1},
        {"loop_lag_ms": -1.0},
        {"rebuild_deadline_s": -1.0},
        {"lock_wait_ms": -0.5},
    ])
    def test_validation_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ObsConfig(**kwargs)
