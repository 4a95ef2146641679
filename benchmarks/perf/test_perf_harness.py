"""The benchmark harness's own rules, pinned down.

The arithmetic tests use hand-made numbers; the stream tests only
generate inputs; one smoke run drives all four workloads for real —
subprocess server, sockets, SIGKILL, traced replay — at sizes small
enough for tier-1.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import perf_inprocess
import perf_loadgen
import perf_metrics as pm
import perf_table
import perf_tracing
import perf_workloads as wl
import run as perf_run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [15, 20, 35, 40, 50]
    assert pm.percentile(samples, 5) == 15
    assert pm.percentile(samples, 30) == 20
    assert pm.percentile(samples, 40) == 20
    assert pm.percentile(samples, 50) == 35
    assert pm.percentile(samples, 100) == 50
    assert pm.median([4, 1, 3, 2]) == 2  # an actual sample, never interpolated
    with pytest.raises(ValueError):
        pm.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    # p95 of n samples has n - ceil(0.95 n) samples beyond it: 10 at n=200.
    assert pm.samples_beyond(list(range(199)), 95) == 9
    assert pm.tail_percentile(list(range(199)), 95) is None
    assert pm.samples_beyond(list(range(200)), 95) == 10
    assert pm.tail_percentile(list(range(200)), 95) == 189
    assert pm.tail_percentile([], 95) is None


def test_spread_matches_the_drivers_arithmetic():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles defaults to the exclusive method: q1=11.75, q3=17.25.
    assert pm.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert pm.spread([5.0]) is None


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def _span(span_id, name, start, end, parent=None, thread=1, value=None):
    return (span_id, name, start, end, parent, thread, value)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "handle", 0.0, 10.0),
        _span(1, "score", 1.0, 8.0, parent=0),
        _span(2, "probe", 2.0, 3.0, parent=1),
        _span(3, "probe", 4.0, 6.0, parent=1),
        _span(4, "encode", 8.5, 9.5, parent=0),
        _span(5, "rebuild", 0.0, 4.0, thread=2),  # a root on another thread
    ]
    own = pm.self_times(spans)
    assert own == pytest.approx(
        {"handle": 2.0, "score": 4.0, "probe": 3.0, "encode": 1.0, "rebuild": 4.0})
    # Self times of one tree sum to its root's duration.
    assert sum(own.values()) - own["rebuild"] == pytest.approx(10.0)
    assert pm.inclusive_times(spans)["score"] == pytest.approx(7.0)
    assert pm.call_counts(spans)["probe"] == 2


def test_value_sums_only_count_spans_that_carry_a_value():
    spans = [_span(0, "encode", 0, 1, value=100), _span(1, "encode", 1, 2, value=50),
             _span(2, "append", 0, 3)]
    assert pm.value_sums(spans) == {"encode": 150}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
def test_verdict_separates_regressed_unresolved_and_unchanged():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert pm.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1)[0] == pm.UNCHANGED
    assert pm.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == pm.REGRESSION
    assert pm.verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[0] == pm.IMPROVED
    assert pm.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == pm.REGRESSION
    # Same medians, but runs that scatter more than the bound settle nothing.
    noisy = [70.0, 85.0, 100.0, 115.0, 130.0]
    assert pm.verdict(steady, noisy, "lower", 0.1)[0] == pm.UNRESOLVED
    # A pair without a bound is shown, never judged.
    assert pm.verdict(steady, noisy, "lower", None)[0] == pm.DIAGNOSTIC


def test_too_few_runs_settle_nothing_but_still_show_a_regression():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert pm.verdict([100.0], [68.0], "lower", 0.1)[0] == pm.UNRESOLVED
    assert pm.verdict(steady, steady[:4], "lower", 0.1)[0] == pm.UNRESOLVED
    assert pm.verdict([100.0], [150.0], "lower", 0.1)[0] == pm.REGRESSION


def _runs(scale: float = 1.0, count: int = 5, failed: int = 0) -> list[dict]:
    return [
        {"workload": "serve_cached", "trace": 0, "attempted": 1000,
         "failed": failed, "metrics": {
             "setup_s": {"value": 2.0 + 0.01 * i, "unit": "s"},
             "op_p50_ms": {"value": (8.0 + 0.02 * i) * scale, "unit": "ms"},
             "op_samples": {"value": 1000, "unit": "count"},
             "ops_per_s": {"value": (240.0 + i) / scale, "unit": "1/s"},
             "peak_rss_mb": {"value": 125.0, "unit": "MiB"}}}
        for i in range(count)
    ]


def test_pair_bounds_follow_the_spread():
    wide = _runs()
    for i, run in enumerate(wide):
        run["metrics"]["ops_per_s"]["value"] = 200.0 + 20.0 * i
    pairs = pm.pair_bounds(wide)["serve_cached"]
    assert pairs["peak_rss_mb"]["bound"] == pm.BOUND_FLOOR  # repeats exactly
    assert pairs["setup_s"]["bound"] == pm.BOUND_FLOOR
    assert pairs["ops_per_s"]["bound"] == pm.MAX_BOUND  # 2 x spread is 50%
    assert "op_samples" not in pairs  # a sample count, not a metric
    assert all(pair["bound"] is None
               for pair in pm.pair_bounds(_runs(count=4))["serve_cached"].values())


def test_more_failed_operations_is_a_regression_however_fast():
    bounds = pm.pair_bounds(_runs())
    rows, regressed = pm.compare_runs(_runs(), _runs(0.5), bounds)
    assert not regressed
    assert rows[0]["cells"]["op_p50_ms"]["verdict"] == pm.IMPROVED
    rows, regressed = pm.compare_runs(_runs(), _runs(0.5, failed=3), bounds)
    assert regressed
    assert rows[0]["cells"]["failed_share"]["verdict"] == pm.REGRESSION
    assert rows[0]["cells"]["op_p50_ms"]["verdict"] == pm.IMPROVED


def test_compare_exits_nonzero_only_on_a_regression(tmp_path, capsys):
    def ledger(name: str, scale: float) -> str:
        (tmp_path / name).write_text(json.dumps({"runs": _runs(scale)}))
        return str(tmp_path / name)

    base, same, slow = ledger("a", 1.0), ledger("b", 1.01), ledger("c", 1.5)
    assert perf_run.main(["--compare", base, same]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert perf_run.main(["--compare", base, slow]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and out.count("serve_cached") == 1


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------
def _request_bytes(seed: int, rounds: int) -> bytes:
    table = wl.explore_table(seed, wl.SMOKE)
    stream = wl.explore_rounds(seed, table)
    return "\n".join(request.to_json() for _ in range(rounds)
                     for request in next(stream)).encode()


def _batch_bytes(seed: int) -> bytes:
    return json.dumps(wl.take_batches(seed, wl.SMOKE, 6), sort_keys=True).encode()


def test_same_seed_same_streams_other_seed_other_streams():
    assert _request_bytes(5, 3) == _request_bytes(5, 3)
    assert _request_bytes(5, 3) != _request_bytes(6, 3)
    assert _batch_bytes(5) == _batch_bytes(5)
    assert _batch_bytes(5) != _batch_bytes(6)
    picks = [next(wl.zipf_rounds(5, 0, 32, 50)).tolist() for _ in range(2)]
    assert picks[0] == picks[1]
    assert picks[0] != next(wl.zipf_rounds(6, 0, 32, 50)).tolist()
    assert picks[0] != next(wl.zipf_rounds(5, 1, 32, 50)).tolist()


def test_explore_cold_never_repeats_a_canonical_key():
    table = wl.explore_table(9, wl.SMOKE)
    stream = wl.explore_rounds(9, table)
    rounds = [next(stream) for _ in range(40)]
    keys = [request.canonical_key() for round_ in rounds for request in round_]
    assert len(keys) == len(set(keys)) > 128  # far beyond the result cache
    # Every round carries the same mix of work.
    shapes = {tuple((r.insight_classes, bool(r.fixed), r.cursor is not None)
                    for r in round_) for round_ in rounds}
    assert len(shapes) == 1


def test_table_survives_the_file_it_travels_in(tmp_path):
    table = wl.explore_table(2, wl.SMOKE)
    perf_table.save_table(table, str(tmp_path / "t.npz"))
    loaded = perf_table.load_table(str(tmp_path / "t.npz"))
    assert loaded.to_columns() == table.to_columns()
    assert loaded.schema.names() == table.schema.names()


# ---------------------------------------------------------------------------
# Tracing guards
# ---------------------------------------------------------------------------
def test_wrappers_are_restored_and_holders_rebound():
    import repro.ingest.maintenance as maintenance
    import repro.service.workspace as workspace
    from repro.sketch.store import SketchStore

    original = maintenance.merge_delta
    probe = SketchStore.approx_mean
    assert workspace.merge_delta is original
    with perf_tracing.install() as tracing:
        assert maintenance.merge_delta is not original
        # ``from ... import merge_delta`` call sites see the wrapper too.
        assert workspace.merge_delta is maintenance.merge_delta
        assert SketchStore.approx_mean is not probe
        assert tracing.recorder.spans == []
    assert maintenance.merge_delta is original
    assert workspace.merge_delta is original
    assert SketchStore.approx_mean is probe


def test_a_vanished_target_fails_loudly():
    gone = perf_tracing.Target("core.score", "repro.core.pipeline:QueryPipeline",
                               "score_renamed", ("explore_cold",))
    with pytest.raises(perf_tracing.MissingTarget, match="score_renamed"):
        perf_tracing.install([gone])


def test_an_unreached_span_fails_coverage():
    target = perf_tracing.Target("data.take", "repro.data.table:DataTable",
                                 "take", ("explore_cold",))
    with perf_tracing.install([target]) as tracing:
        tracing.check_coverage("serve_cached")  # not expected there
        with pytest.raises(perf_tracing.CoverageError, match="data.take"):
            tracing.check_coverage("explore_cold")
        wl.explore_table(1, wl.SMOKE).take([0, 1])
        tracing.check_coverage("explore_cold")


# ---------------------------------------------------------------------------
# The whole harness, small
# ---------------------------------------------------------------------------
def test_smoke_run_emits_every_metric_in_benchmark_json(tmp_path):
    end_to_end = {entry["name"] for entry in SPEC["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    seen: set[str] = set()
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert workloads == list(perf_loadgen.RUNNERS) == list(perf_inprocess.REPLAYS)
    for workload in workloads:
        record = perf_run.run_workload(workload, seed=3, seconds=0.3, trace=True,
                                       sizes=wl.SMOKE, workroot=tmp_path)
        assert record["correct"] and record["failed"] == 0
        # BENCHMARK.json's end-to-end metrics apply to every workload and
        # are never 0; the rest are named in BETTER, where they apply.
        assert end_to_end <= set(record["server_phase"])
        assert set(record["server_phase"]) <= set(pm.BETTER) | {"op_samples"}
        assert all(m["value"] > 0 for m in record["server_phase"].values())
        # The reported layer totals add up to the in-process op.
        assert 0.9 < record["metrics"]["bench.accounted_share"]["value"] < 1.01
        # Nothing is emitted that BENCHMARK.json does not name.
        for name, measured in record["metrics"].items():
            assert per_layer[name] == measured["unit"], name
        seen |= set(record["metrics"])
        line = json.loads(perf_run.result_line(record, SPEC))
        assert list(line["metrics"]) == list(per_layer)
    assert seen == set(per_layer)
    assert not list(tmp_path.iterdir())  # scratch directories are removed
