"""Property tests for the binary columnar snapshot codec.

Three families of properties:

* **golden bytes** — ``tests/ingest/fixtures/snapshot-{edge,empty}.bin``
  were written by the list-payload encoder the table codec replaced,
  for the fixed tables below: ``encode_snapshot`` must reproduce them
  byte for byte, and ``decode_snapshot`` must restore every column
  (values, mask, codes, category order, field description/unit/tags);
* **codec round-trips** — any table (unicode category labels in any
  order, missing numeric values, NaN payloads and infinities, empty
  columns, zero rows) survives ``encode_snapshot``/``decode_snapshot``
  exactly, and re-encoding the decoded table reproduces the bytes;
  corrupting any single byte of the encoding must raise
  :class:`SnapshotDecodeError` or decode to the original snapshot (a
  flip inside zlib padding may be absorbed) — never return a silently
  different table;
* **no legacy reader** — a directory holding only a pre-codec
  ``snapshot-<version>.json`` (synthesized via ``encode_record``) has no
  durable state.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.column import BooleanColumn, CategoricalColumn, NumericColumn
from repro.data.schema import ColumnKind, Field
from repro.data.table import DataTable
from repro.ingest.durable import DatasetJournal, encode_record
from repro.ingest.snapshot_codec import (
    FORMAT_VERSION,
    SnapshotDecodeError,
    decode_snapshot,
    encode_snapshot,
)
from repro.service import Workspace

SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIXTURES = Path(__file__).resolve().parent.parent / "ingest" / "fixtures"

#: Unicode-heavy label universe, deliberately not in sorted order.
LABELS = ["γάμμα", "alpha", "δέλτα", "beta", "e✓", "zed"]

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64,
                   min_value=-1e12, max_value=1e12)

#: Any float64 bit pattern: NaN payloads, ±inf, ±0, subnormals.
ANY_FLOAT = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array([bits], dtype=np.uint64).view(np.float64)[0])

NUMERIC_VALUES = st.lists(st.one_of(st.none(), FINITE), max_size=30)

#: The golden fixtures' metadata.
EDGE_META = {
    "type": "snapshot", "version": 3, "seq": 7, "n_rows": 10,
    "base_rows": 8, "engine_built": True,
    "counters": {"rows_appended": 2, "delta_merges": 1, "rebuilds": 1,
                 "bg_rebuilds": 1, "rows_since_rebuild": 2,
                 "base_rows": 8},
    "engine_config": {"mode": "approximate", "default_top_k": 5,
                      "sketch": {"seed": 11, "quantile_epsilon": 0.01}},
}
EMPTY_META = {**EDGE_META, "n_rows": 0, "seq": 0, "base_rows": 0}


def _nan(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def edge_table(n_rows: int = 10) -> DataTable:
    """NaN payloads (``-nan``, a quiet NaN with payload bits, a
    signalling-pattern NaN), ±inf, -0.0, a subnormal, a masked cell
    holding a non-NaN value, unicode categories in non-sorted order with
    missing codes, and a boolean column — or the same schema with
    ``n_rows`` 0."""
    values = np.array([
        1.5, -np.nan, _nan(0x7FF8000000000123), np.inf, -np.inf,
        -0.0, 2.5, 5e-324, _nan(0xFFF0000000000001), 1e300,
    ])[:n_rows]
    mask = np.zeros(n_rows, dtype=bool)
    mask[6:7] = True  # a masked cell holding a non-NaN value
    x = NumericColumn(Field("x", ColumnKind.NUMERIC, description="désc ✓",
                            unit="h", tags=("t1", "τ2")), values, mask)
    y = NumericColumn(Field("y", ColumnKind.NUMERIC),
                      np.arange(n_rows, dtype=np.float64) / 3)
    label = CategoricalColumn(
        Field("label", ColumnKind.CATEGORICAL, tags=("cat",)),
        np.array([2, 0, -1, 1, 3, 3, 0, -1, 2, 1])[:n_rows],
        ["γάμμα", "zed", "alpha", "e✓"])
    flag = BooleanColumn(Field("flag", ColumnKind.BOOLEAN, unit="bool"),
                         np.array([1, 0, -1, 1, 1, 0, -1, 0, 1, 1])[:n_rows])
    return DataTable([x, label, y, flag], name="edge ✓")


def assert_same_table(decoded: DataTable, original: DataTable) -> None:
    """Column for column: field, mask, codes and category order; numeric
    values bit for bit wherever they are not missing (a missing cell
    restores as NaN, whatever it held)."""
    assert decoded.name == original.name
    assert decoded.n_rows == original.n_rows
    assert len(decoded.columns()) == len(original.columns())
    for got, want in zip(decoded.columns(), original.columns()):
        assert type(got) is type(want)
        assert got.field == want.field
        assert np.array_equal(got.mask, want.mask)
        if isinstance(want, NumericColumn):
            assert got.values.dtype == np.float64
            present = ~want.mask
            assert np.array_equal(got.values[present].view(np.uint64),
                                  want.values[present].view(np.uint64))
            assert np.isnan(got.values[want.mask]).all()
        else:
            assert got.codes.dtype == np.int64
            assert np.array_equal(got.codes, want.codes)
            assert got.categories == want.categories


@st.composite
def snapshot_table(draw):
    """A table like a compaction snapshot's: numeric columns with any
    float64 bits and missing cells, categorical columns with any code
    and category order, boolean columns; possibly zero rows."""
    n_rows = draw(st.integers(0, 20))  # 0 = empty columns throughout
    columns = []
    for i in range(draw(st.integers(0, 3))):
        values = np.array(draw(st.lists(ANY_FLOAT, min_size=n_rows,
                                        max_size=n_rows)), dtype=np.float64)
        mask = np.array(draw(st.lists(st.booleans(), min_size=n_rows,
                                      max_size=n_rows)), dtype=bool)
        columns.append(NumericColumn(
            Field(f"n{i}", ColumnKind.NUMERIC, unit="u"), values, mask))
    for i in range(draw(st.integers(0, 2))):
        categories = draw(st.permutations(LABELS))[
            : draw(st.integers(1, len(LABELS)))]
        codes = draw(st.lists(st.integers(-1, len(categories) - 1),
                              min_size=n_rows, max_size=n_rows))
        columns.append(CategoricalColumn(
            Field(f"c{i}", ColumnKind.CATEGORICAL, description="désc ✓",
                  tags=("t",)),
            np.array(codes, dtype=np.int64), categories))
    if draw(st.booleans()):
        codes = draw(st.lists(st.integers(-1, 1), min_size=n_rows,
                              max_size=n_rows))
        columns.append(BooleanColumn(Field("b", ColumnKind.BOOLEAN),
                                     np.array(codes, dtype=np.int64)))
    return DataTable(columns, name="live")


@st.composite
def snapshot_meta(draw):
    return {
        "type": "snapshot",
        "version": draw(st.integers(1, 99)),
        "seq": draw(st.integers(0, 500)),
        "counters": {"rows_appended": draw(st.integers(0, 50)),
                     "delta_merges": 0},
    }


class TestGoldenSnapshot:
    @pytest.mark.parametrize("fixture, meta, n_rows", [
        ("snapshot-edge.bin", EDGE_META, 10),
        ("snapshot-empty.bin", EMPTY_META, 0),
    ])
    def test_encode_writes_the_fixture_bytes(self, fixture, meta, n_rows):
        assert FORMAT_VERSION == 1
        expected = (FIXTURES / fixture).read_bytes()
        assert encode_snapshot(meta, edge_table(n_rows)) == expected

    @pytest.mark.parametrize("fixture, meta, n_rows", [
        ("snapshot-edge.bin", EDGE_META, 10),
        ("snapshot-empty.bin", EMPTY_META, 0),
    ])
    def test_decode_restores_every_column(self, fixture, meta, n_rows):
        decoded_meta, table = decode_snapshot(
            (FIXTURES / fixture).read_bytes())
        assert decoded_meta == meta
        assert_same_table(table, edge_table(n_rows))

    def test_missing_cells_pack_as_the_canonical_nan(self):
        """``-nan``, NaN payloads and the masked 2.5 all restore as
        ``np.nan``'s own bits; unmasked infinities, -0.0 and the
        subnormal keep theirs."""
        _meta, table = decode_snapshot(
            (FIXTURES / "snapshot-edge.bin").read_bytes())
        x = table.column("x")
        canonical = np.array([np.nan]).view(np.uint64)[0]
        assert x.mask.tolist() == [False, True, True, False, False, False,
                                   True, False, True, False]
        assert (x.values[x.mask].view(np.uint64) == canonical).all()
        assert x.values.view(np.uint64)[5] == 1 << 63  # -0.0


class TestCodecRoundTrip:
    @SETTINGS
    @given(meta=snapshot_meta(), table=snapshot_table())
    def test_table_level_round_trip_is_exact(self, meta, table):
        encoded = encode_snapshot(meta, table)
        decoded_meta, decoded = decode_snapshot(encoded)
        assert decoded_meta == meta
        assert_same_table(decoded, table)
        assert encode_snapshot(decoded_meta, decoded) == encoded

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
        meta = {"type": "snapshot", "version": 1, "seq": 0}
        decoded_meta, decoded = decode_snapshot(encode_snapshot(meta, table))
        assert decoded_meta == meta
        assert_same_table(decoded, table)

    @SETTINGS
    @given(meta=snapshot_meta(), table=snapshot_table(), data=st.data())
    def test_single_byte_corruption_never_decodes_differently(self, meta,
                                                              table, data):
        encoded = bytearray(encode_snapshot(meta, table))
        index = data.draw(st.integers(0, len(encoded) - 1))
        flip = data.draw(st.integers(1, 255))
        encoded[index] ^= flip
        try:
            decoded_meta, decoded = decode_snapshot(bytes(encoded))
        except SnapshotDecodeError:
            return  # fail-closed: the framing caught it
        # zlib streams carry slack bits; a flip the inflater ignores
        # must still decompress to the exact original sections (the
        # CRC runs over the *compressed* bytes, so an absorbed flip is
        # impossible — reaching here means CRC passed AND content
        # matches).
        assert decoded_meta == meta
        assert_same_table(decoded, table)

    def test_a_block_directory_that_does_not_match_the_table_is_refused(
        self,
    ):
        """Section 0 names the column each block belongs to; a directory
        naming the wrong column, key or length fails closed."""
        table = edge_table()
        encoded = encode_snapshot(EDGE_META, table)
        length, _raw, _crc = struct.unpack_from(">III", encoded, 8)
        header = json.loads(zlib.decompress(encoded[20:20 + length]))
        for block, key, value in ((0, "column", 1), (0, "key", "codes"),
                                  (1, "n", 9)):
            broken = json.loads(json.dumps(header))
            broken["_blocks"][block][key] = value
            raw = json.dumps(broken, sort_keys=True,
                             separators=(",", ":")).encode()
            section = zlib.compress(raw)
            forged = (encoded[:8]
                      + struct.pack(">III", len(section), len(raw),
                                    zlib.crc32(section))
                      + section + encoded[20 + length:])
            with pytest.raises(SnapshotDecodeError, match="does not match"):
                decode_snapshot(forged)


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
        meta, _table = decode_snapshot(binary.read_bytes())
        (directory / binary.name.replace(".bin", ".json")).write_bytes(
            encode_record({**meta, "table": {
                "name": "live", "n_rows": 40,
                "columns": [{"name": "x", "kind": "numeric",
                             "values": table.column("x").to_list()}]}}))
        binary.unlink()
        for segment in directory.glob("journal-*.seg"):
            segment.unlink()

        journal = DatasetJournal(tmp_path, fsync=False)
        assert journal.dataset_names() == []
        assert journal.load("live") is None
        restarted = Workspace(data_dir=str(tmp_path))
        assert restarted.datasets() == []
        restarted.register("live", table)  # no "journalled state" refusal
        assert restarted.state("live") == (1, 0)
        restarted.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
