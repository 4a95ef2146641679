"""Property tests for the durable journal: record round-trips and replay.

Two families of properties:

* **container round-trips** — any append record (arbitrary
  ``DeltaBatch`` contents: unicode labels, missing values, float
  extremes) encodes and decodes byte-exactly, concatenated record
  streams decode in order, and truncating the byte stream at *any*
  offset yields a clean prefix of records — never an exception;
* **replay determinism** — journalling a row stream through a durable
  workspace and replaying it into a fresh process reproduces the
  sketch-store summaries byte-for-byte, for any split of the stream
  into batches; and across *different* splits the mergeable summaries
  agree (exact for counter sketches, to float-merge tolerance for
  moments).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnKind
from repro.data.table import DataTable
from repro.ingest import DeltaBatch, IngestConfig
from repro.ingest.durable import decode_records, encode_record, scan_records
from repro.service import InsightRequest, Workspace

SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Small label universe: keeps Misra–Gries / Space-Saving merges exact,
#: so cross-split comparisons can be equality checks on counters.
LABELS = st.sampled_from(["alpha", "beta", "γάμμα", "δέλτα", "e✓", "zed"])

NUMERIC = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=64,
              min_value=-1e12, max_value=1e12),
)

ROWS = st.lists(
    st.fixed_dictionaries({"x": NUMERIC, "y": NUMERIC, "label": LABELS}),
    min_size=1, max_size=25,
)


def _schema():
    table = DataTable.from_columns(
        {"x": [1.0, 2.0], "y": [0.5, 1.5], "label": ["alpha", "beta"]},
        kinds={"x": ColumnKind.NUMERIC, "y": ColumnKind.NUMERIC,
               "label": ColumnKind.CATEGORICAL},
    )
    return table.schema


def _record_payload(rows, seq=1):
    batch = DeltaBatch.from_records("live", rows, _schema())
    return {
        "type": "append", "seq": seq, "applied": "deferred",
        "n_rows": batch.n_rows, "total_rows": 2 + batch.n_rows,
        "ts": 1234.5, "rows": batch.to_records(),
    }


class TestRecordContainer:
    @SETTINGS
    @given(rows=ROWS)
    def test_encode_decode_round_trips_delta_batch_contents(self, rows):
        payload = _record_payload(rows)
        decoded, clean = decode_records(encode_record(payload))
        assert decoded == [payload]
        assert clean == len(encode_record(payload))
        # And the decoded rows revalidate into an identical batch.
        original = DeltaBatch.from_records("live", rows, _schema())
        rehydrated = DeltaBatch.from_records(
            "live", decoded[0]["rows"], _schema()
        )
        assert rehydrated.to_records() == original.to_records()

    @SETTINGS
    @given(batches=st.lists(ROWS, min_size=1, max_size=4))
    def test_concatenated_streams_decode_in_order(self, batches):
        payloads = [
            _record_payload(rows, seq=i + 1) for i, rows in enumerate(batches)
        ]
        data = b"".join(encode_record(p) for p in payloads)
        decoded, clean = decode_records(data)
        assert decoded == payloads
        assert clean == len(data)

    @SETTINGS
    @given(batches=st.lists(ROWS, min_size=1, max_size=3),
           data=st.data())
    def test_truncation_at_any_offset_yields_a_clean_prefix(self, batches,
                                                            data):
        payloads = [
            _record_payload(rows, seq=i + 1) for i, rows in enumerate(batches)
        ]
        stream = b"".join(encode_record(p) for p in payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        decoded, clean = decode_records(stream[:cut])  # must never raise
        assert decoded == payloads[: len(decoded)]  # a prefix, in order
        assert clean <= cut
        # Complete records survive exactly up to the cut.
        boundaries = [end for _p, _s, end in scan_records(stream)]
        expected = sum(1 for end in boundaries if end <= cut)
        assert len(decoded) == expected


def _summaries(workspace) -> str:
    """Byte-comparable sketch-store summaries of the "live" dataset."""
    store = workspace.engine("live").store
    sketch = store.column_sketches("x").quantiles
    quantiles = [sketch.quantile(q) for q in (0.25, 0.5, 0.75)]
    return json.dumps({
        "mean": store.approx_mean("x"),
        "variance": store.approx_variance("x"),
        "quantiles": quantiles,
        "top": store.approx_top_values("label", 4),
        "counts": {label: store.column_sketches("label").frequent.estimate(label)
                   for label in ("alpha", "beta", "γάμμα", "δέλτα", "e✓",
                                 "zed")},
    }, sort_keys=True)


def _base_table():
    return DataTable.from_columns(
        {"x": [float(i) for i in range(20)],
         "y": [float(i % 7) for i in range(20)],
         "label": [["alpha", "beta", "zed"][i % 3] for i in range(20)]},
        kinds={"x": ColumnKind.NUMERIC, "y": ColumnKind.NUMERIC,
               "label": ColumnKind.CATEGORICAL},
        name="live",
    )


def _split(rows, cut_points):
    batches, start = [], 0
    for cut in sorted(set(cut_points)):
        if start < cut < len(rows):
            batches.append(rows[start:cut])
            start = cut
    batches.append(rows[start:])
    return [batch for batch in batches if batch]


class TestReplayDeterminism:
    @SETTINGS
    @given(rows=ROWS, cuts=st.lists(st.integers(min_value=1, max_value=24),
                                    max_size=3))
    def test_journal_replay_reproduces_summaries_byte_for_byte(
        self, tmp_path_factory, rows, cuts
    ):
        data_dir = tmp_path_factory.mktemp("journal")
        live = Workspace(data_dir=str(data_dir),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", _base_table())
        live.engine("live")
        for batch in _split(rows, cuts):
            live.append("live", batch)
        expected_state = live.state("live")
        expected_summary = _summaries(live)
        request = InsightRequest(dataset="live", insight_classes=("skew",),
                                 top_k=3)
        expected_response = live.handle(request).to_json()

        restarted = Workspace(
            data_dir=str(data_dir),
            ingest=IngestConfig(rebuild_fraction=float("inf")),
        )
        assert restarted.state("live") == expected_state
        assert _summaries(restarted) == expected_summary
        restored = json.loads(restarted.handle(request).to_json())
        reference = json.loads(expected_response)
        for body in (restored, reference):
            body.pop("timing")
            body["provenance"].pop("cache", None)
        assert restored == reference

    @SETTINGS
    @given(rows=st.lists(
        st.fixed_dictionaries({"x": NUMERIC, "y": NUMERIC, "label": LABELS}),
        min_size=4, max_size=25,
    ), data=st.data())
    def test_any_batch_split_replays_to_the_same_summaries(self, rows, data):
        n = len(rows)
        cuts_a = data.draw(st.lists(st.integers(1, n - 1), max_size=3))
        cuts_b = data.draw(st.lists(st.integers(1, n - 1), max_size=3))

        def ingest(cut_points):
            workspace = Workspace(
                ingest=IngestConfig(rebuild_fraction=float("inf"))
            )
            workspace.register("live", _base_table())
            workspace.engine("live")
            for batch in _split(rows, cut_points):
                workspace.append("live", batch)
            return workspace.engine("live").store

        store_a, store_b = ingest(cuts_a), ingest(cuts_b)
        # Counter sketches merge exactly (the label universe is smaller
        # than every sketch capacity), so counts must agree exactly.
        for label in ("alpha", "beta", "γάμμα", "δέλτα", "e✓", "zed"):
            assert store_a.column_sketches("label").frequent.estimate(label) == (
                store_b.column_sketches("label").frequent.estimate(label)
            )
        assert store_a.approx_top_values("label", 4) == (
            store_b.approx_top_values("label", 4)
        )
        # Moment sums add in batch order: identical up to float merge
        # tolerance, not byte order.
        assert math.isclose(store_a.approx_mean("x"),
                            store_b.approx_mean("x"),
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(store_a.approx_variance("x"),
                            store_b.approx_variance("x"),
                            rel_tol=1e-9, abs_tol=1e-9)
        # GK quantile summaries depend on interleave grouping but stay
        # inside the configured rank error; the medians of two splits of
        # the same stream must bracket each other's neighboring values.
        n_values = store_a.table.n_rows
        epsilon = store_a.config.quantile_epsilon
        rank_slack = max(2.0, 4.0 * epsilon * n_values)
        values = sorted(v for v in store_a.table.numeric_column("x")
                        .valid_values())
        if values:
            median_a = store_a.column_sketches("x").quantiles.quantile(0.5)
            median_b = store_b.column_sketches("x").quantiles.quantile(0.5)
            rank_a = sum(1 for v in values if v <= median_a)
            rank_b = sum(1 for v in values if v <= median_b)
            assert abs(rank_a - rank_b) <= rank_slack


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
