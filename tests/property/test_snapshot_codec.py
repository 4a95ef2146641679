"""Property tests for the binary columnar snapshot codec.

Two families of properties:

* **codec round-trips** — any compaction payload (unicode category
  labels in any order, missing numeric values, empty columns, zero-row
  tables) survives ``encode_snapshot``/``decode_snapshot`` exactly, at
  the dict level and through a real :class:`DataTable`; and corrupting
  any single byte of the encoding must raise
  :class:`SnapshotDecodeError` or decode to the original payload (a
  flip inside zlib padding may be absorbed) — never return a silently
  different payload;
* **no legacy reader** — a directory holding only a pre-codec
  ``snapshot-<version>.json`` (synthesized via ``encode_record``) has no
  durable state.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnKind
from repro.data.table import DataTable
from repro.ingest.durable import (
    DatasetJournal,
    encode_record,
    table_to_payload,
)
from repro.ingest.snapshot_codec import (
    SnapshotDecodeError,
    decode_snapshot,
    encode_snapshot,
)
from repro.service import Workspace

SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Unicode-heavy label universe, deliberately not in sorted order.
LABELS = ["γάμμα", "alpha", "δέλτα", "beta", "e✓", "zed"]

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e12, max_value=1e12)

NUMERIC_VALUES = st.lists(st.one_of(st.none(), FINITE), max_size=30)


@st.composite
def categorical_spec(draw, n_rows):
    """codes + categories with arbitrary (non-first-appearance) order."""
    categories = draw(st.permutations(LABELS).map(
        lambda p: list(p)[: draw(st.integers(1, len(LABELS)))]))
    codes = draw(st.lists(
        st.integers(-1, len(categories) - 1),  # -1 = missing
        min_size=n_rows, max_size=n_rows))
    return codes, categories


@st.composite
def snapshot_payload(draw):
    """A dict-level compaction payload like ``_write_snapshot_locked``'s."""
    n_rows = draw(st.integers(0, 20))  # 0 = empty columns throughout
    columns = []
    n_numeric = draw(st.integers(0, 3))
    n_categorical = draw(st.integers(0, 2))
    for i in range(n_numeric):
        values = draw(st.lists(st.one_of(st.none(), FINITE),
                               min_size=n_rows, max_size=n_rows))
        columns.append({
            "name": f"n{i}", "kind": ColumnKind.NUMERIC.value,
            "description": "", "unit": "", "tags": [],
            "values": values,
        })
    for i in range(n_categorical):
        codes, categories = draw(categorical_spec(n_rows))
        columns.append({
            "name": f"c{i}", "kind": ColumnKind.CATEGORICAL.value,
            "description": "désc ✓", "unit": "", "tags": ["t"],
            "codes": codes, "categories": categories,
        })
    return {
        "type": "snapshot",
        "version": draw(st.integers(1, 99)),
        "seq": draw(st.integers(0, 500)),
        "counters": {"rows_appended": n_rows, "delta_merges": 0},
        "table": {"name": "live", "n_rows": n_rows, "columns": columns},
    }


class TestCodecRoundTrip:
    @SETTINGS
    @given(payload=snapshot_payload())
    def test_dict_level_round_trip_is_exact(self, payload):
        assert decode_snapshot(encode_snapshot(payload)) == payload

    @SETTINGS
    @given(
        x=NUMERIC_VALUES,
        labels=st.lists(st.sampled_from(LABELS), max_size=30),
    )
    def test_real_table_payload_round_trips(self, x, labels):
        n = min(len(x), len(labels))
        table = DataTable.from_columns(
            {"x": x[:n], "label": labels[:n]},
            kinds={"x": ColumnKind.NUMERIC,
                   "label": ColumnKind.CATEGORICAL},
            name="live",
        )
        payload = {"type": "snapshot", "version": 1, "seq": 0,
                   "table": table_to_payload(table)}
        assert decode_snapshot(encode_snapshot(payload)) == payload

    @SETTINGS
    @given(payload=snapshot_payload(), data=st.data())
    def test_single_byte_corruption_never_decodes_differently(self, payload,
                                                              data):
        encoded = bytearray(encode_snapshot(payload))
        index = data.draw(st.integers(0, len(encoded) - 1))
        flip = data.draw(st.integers(1, 255))
        encoded[index] ^= flip
        try:
            decoded = decode_snapshot(bytes(encoded))
        except SnapshotDecodeError:
            return  # fail-closed: the framing caught it
        # zlib streams carry slack bits; a flip the inflater ignores
        # must still decompress to the exact original sections (the
        # CRC runs over the *compressed* bytes, so an absorbed flip is
        # impossible — reaching here means CRC passed AND content
        # matches).
        assert decoded == payload


class TestLegacyJsonSnapshotIsNotRead:
    def test_json_only_directory_loads_as_no_snapshot(self, tmp_path):
        """The pre-codec ``snapshot-<version>.json`` read path is gone: a
        directory holding only such a file has no durable state — the
        journal neither lists nor loads it, and the name registers
        fresh."""
        table = DataTable.from_columns(
            {"x": [float(i % 17) for i in range(40)]},
            kinds={"x": ColumnKind.NUMERIC}, name="live",
        )
        live = Workspace(data_dir=str(tmp_path))
        live.register("live", table)
        live.close()
        directory = Path(tmp_path, "live")
        binary = next(directory.glob("snapshot-*.bin"))
        payload = decode_snapshot(binary.read_bytes())
        (directory / binary.name.replace(".bin", ".json")).write_bytes(
            encode_record(payload))
        binary.unlink()
        for segment in directory.glob("journal-*.seg"):
            segment.unlink()

        journal = DatasetJournal(tmp_path, fsync=False)
        assert journal.dataset_names() == []
        assert not journal.has_state("live")
        assert journal.load("live") is None
        restarted = Workspace(data_dir=str(tmp_path))
        assert restarted.datasets() == []
        restarted.register("live", table)  # no "journalled state" refusal
        assert restarted.state("live") == (1, 0)
        restarted.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
