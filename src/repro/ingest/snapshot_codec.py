"""Binary columnar snapshot codec for the durable ingestion journal.

A compaction snapshot (``snapshot-<version>.bin``) is a small metadata
dict — position, counters, engine config — plus the dataset's
:class:`~repro.data.table.DataTable`.  This module packs the two into
one container and back:

* a **versioned header** (magic, format version, section count);
* **section 0**: the metadata, the table's schema (name, row count,
  per-column name, kind, description, unit, tags and — for categorical
  columns — the category list in order) and a block directory naming
  the column each later section belongs to, as canonical JSON (the same
  canonicalization as :func:`repro.ingest.durable.encode_record`);
* **one section per column**: numeric columns as a missing-value bitmap
  followed by big-endian float64 values, categorical/boolean columns
  as big-endian int64 codes.

Every section is individually zlib-compressed and CRC-checked, and every
length field is bounds-checked, so any truncation or corruption — at any
byte offset — raises :class:`SnapshotDecodeError` instead of yielding a
wrong table.  The journal treats that as a damaged generation and
rotates it away; a replica refuses a reset that does not decode.

The codec is **pure bytes ↔ table**: it never touches the filesystem.
All file I/O (tmp-file + fsync + rename discipline) stays in
:mod:`repro.ingest.durable`, which also keeps the durability-protocol
lint rule's single-owner invariant intact.  The same bytes travel as
the replication feed's bootstrap reset.

Fidelity is exact: the column arrays are packed straight from the
table (``>f8`` / ``>i8``, the missing mask through ``np.packbits``), a
missing numeric cell packs as the canonical NaN with its bitmap bit
set, and decoding builds the columns straight from the buffers — so a
decoded table holds bit-identical values, masks, codes and category
order, and ``encode_snapshot`` is deterministic (decode → encode
reproduces the input bytes).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

import numpy as np

from repro.data.column import (
    BooleanColumn,
    CategoricalColumn,
    Column,
    NumericColumn,
)
from repro.data.schema import ColumnKind, Field
from repro.data.table import DataTable
from repro.errors import ForesightError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotDecodeError",
    "decode_snapshot",
    "encode_snapshot",
]

#: File magic: RePro Snapshot Columnar.
MAGIC = b"RPSC"

#: Bump on any incompatible layout change; readers reject unknown
#: versions rather than guessing.
FORMAT_VERSION = 1

#: ``magic | format version | section count``.
_FILE_HEADER = struct.Struct(">4sHH")

#: Per-section frame: ``compressed length | raw length | crc32`` of the
#: compressed bytes (checked before decompression is attempted).
_SECTION_HEADER = struct.Struct(">III")

#: Refuse absurd section lengths outright — a corrupted length field
#: must not make the reader try to allocate gigabytes.
MAX_SECTION_BYTES = 1 << 31

#: Key under which the block directory travels inside section 0.  The
#: leading underscore keeps it out of any plausible metadata namespace;
#: decode strips it again.
_BLOCKS_KEY = "_blocks"

#: Key under which the table's schema travels inside section 0.
_TABLE_KEY = "table"

#: zlib levels: metadata JSON compresses well and is small (go for
#: ratio); packed float blocks are large and nearly incompressible (go
#: for speed).
_META_LEVEL = 6
_BLOCK_LEVEL = 1


class SnapshotDecodeError(Exception):
    """A binary snapshot is truncated, corrupted, or of an unknown format."""


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------
def _column_spec(column: Column) -> dict[str, Any]:
    """A column's schema as section 0 carries it."""
    spec: dict[str, Any] = {
        "name": column.name,
        "kind": column.kind.value,
        "description": column.field.description,
        "unit": column.field.unit,
        "tags": list(column.field.tags),
    }
    if (isinstance(column, CategoricalColumn)
            and not isinstance(column, BooleanColumn)):
        spec["categories"] = column.categories
    return spec


def _column_block(column: Column) -> tuple[str, bytes]:
    """A column's section: ``("values", bitmap + >f8)`` or ``("codes", >i8)``.

    A missing numeric cell packs as the canonical NaN whatever the
    table holds there, so the bitmap — not the float lane — is the
    single source of truth for missingness.  Bit ``i % 8`` of byte
    ``i // 8`` is entry ``i``.
    """
    if isinstance(column, NumericColumn):
        missing = column.mask
        floats = column.values.astype(">f8")
        floats[missing] = np.nan
        return "values", (np.packbits(missing, bitorder="little").tobytes()
                          + floats.tobytes())
    return "codes", column.codes.astype(">i8").tobytes()


def encode_snapshot(meta: dict[str, Any], table: DataTable) -> bytes:
    """Pack snapshot metadata and ``table`` into the columnar container.

    ``meta`` is any JSON-safe dict (the journal's ``type`` / ``version``
    / ``seq`` / counters / optional ``engine_config``); it rides in the
    canonical-JSON section 0 beside the table's schema, and
    :func:`decode_snapshot` returns it unchanged.
    """
    columns = table.columns()
    sections: list[tuple[bytes, int]] = []  # (raw bytes, zlib level)
    blocks: list[dict[str, Any]] = []
    for index, column in enumerate(columns):
        key, raw = _column_block(column)
        blocks.append({"column": index, "key": key, "n": len(column)})
        sections.append((raw, _BLOCK_LEVEL))
    header = {
        **meta,
        _TABLE_KEY: {"name": table.name, "n_rows": table.n_rows,
                     "columns": [_column_spec(column) for column in columns]},
        _BLOCKS_KEY: blocks,
    }
    meta_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    sections.insert(0, (meta_bytes, _META_LEVEL))

    parts = [_FILE_HEADER.pack(MAGIC, FORMAT_VERSION, len(sections))]
    for raw, level in sections:
        compressed = zlib.compress(raw, level)
        parts.append(
            _SECTION_HEADER.pack(
                len(compressed), len(raw), zlib.crc32(compressed)
            )
        )
        parts.append(compressed)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------
def _read_sections(data: bytes) -> list[bytes]:
    size = len(data)
    if size < _FILE_HEADER.size:
        raise SnapshotDecodeError("truncated header")
    magic, version, n_sections = _FILE_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SnapshotDecodeError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise SnapshotDecodeError(f"unsupported format version {version}")
    sections: list[bytes] = []
    offset = _FILE_HEADER.size
    for index in range(n_sections):
        if offset + _SECTION_HEADER.size > size:
            raise SnapshotDecodeError(f"truncated section {index} header")
        compressed_len, raw_len, checksum = _SECTION_HEADER.unpack_from(
            data, offset
        )
        offset += _SECTION_HEADER.size
        if compressed_len > MAX_SECTION_BYTES or raw_len > MAX_SECTION_BYTES:
            raise SnapshotDecodeError(f"section {index} length out of range")
        if offset + compressed_len > size:
            raise SnapshotDecodeError(f"truncated section {index} body")
        compressed = data[offset : offset + compressed_len]
        offset += compressed_len
        if zlib.crc32(compressed) != checksum:
            raise SnapshotDecodeError(f"section {index} CRC mismatch")
        try:
            raw = zlib.decompress(compressed)
        except zlib.error as exc:
            raise SnapshotDecodeError(
                f"section {index} does not decompress: {exc}"
            ) from exc
        if len(raw) != raw_len:
            raise SnapshotDecodeError(
                f"section {index} decompressed to {len(raw)} bytes, "
                f"header declared {raw_len}"
            )
        sections.append(raw)
    if offset != size:
        raise SnapshotDecodeError(
            f"{size - offset} trailing bytes after the last section"
        )
    return sections


def _numeric_values(block: bytes, n: int) -> np.ndarray:
    """A numeric block's float64 values, NaN wherever the bitmap says
    missing."""
    bitmap_size = (n + 7) // 8
    if len(block) != bitmap_size + 8 * n:
        raise SnapshotDecodeError(
            f"numeric block holds {len(block)} bytes, expected "
            f"{bitmap_size + 8 * n} for {n} values"
        )
    values = np.frombuffer(block, dtype=">f8", offset=bitmap_size).astype(
        np.float64)
    missing = np.unpackbits(np.frombuffer(block, dtype=np.uint8,
                                          count=bitmap_size),
                            count=n, bitorder="little").view(bool)
    values[missing] = np.nan
    return values


def _codes(block: bytes, n: int) -> np.ndarray:
    if len(block) != 8 * n:
        raise SnapshotDecodeError(
            f"code block holds {len(block)} bytes, expected {8 * n} "
            f"for {n} codes"
        )
    return np.frombuffer(block, dtype=">i8").astype(np.int64)


def _column(spec: dict[str, Any], block: dict[str, Any], raw: bytes,
            index: int, n_rows: int) -> Column:
    """Column ``index`` of the table, built from its schema and section."""
    kind = ColumnKind(spec["kind"])
    key = "values" if kind is ColumnKind.NUMERIC else "codes"
    if block != {"column": index, "key": key, "n": n_rows}:
        raise SnapshotDecodeError("block directory does not match table")
    column_field = Field(name=spec["name"], kind=kind,
                         description=spec["description"], unit=spec["unit"],
                         tags=tuple(spec["tags"]))
    if kind is ColumnKind.NUMERIC:
        return NumericColumn(column_field, _numeric_values(raw, n_rows))
    if kind is ColumnKind.BOOLEAN:
        return BooleanColumn(column_field, _codes(raw, n_rows))
    return CategoricalColumn(column_field, _codes(raw, n_rows),
                             spec["categories"])


def decode_snapshot(data: bytes) -> tuple[dict[str, Any], DataTable]:
    """Unpack :func:`encode_snapshot` output: ``(meta, table)``.

    Raises :class:`SnapshotDecodeError` on any structural damage —
    truncation at any byte offset, a flipped bit anywhere (CRC), an
    unknown format version, or metadata that does not describe the
    binary sections it travels with.
    """
    sections = _read_sections(data)
    if not sections:
        raise SnapshotDecodeError("no sections")
    try:
        meta = json.loads(sections[0].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotDecodeError(f"metadata section: {exc}") from exc
    if not isinstance(meta, dict):
        raise SnapshotDecodeError("metadata section is not an object")
    blocks = meta.pop(_BLOCKS_KEY, None)
    schema = meta.pop(_TABLE_KEY, None)
    if not isinstance(blocks, list):
        raise SnapshotDecodeError("metadata lacks the block directory")
    if len(blocks) != len(sections) - 1:
        raise SnapshotDecodeError(
            f"block directory lists {len(blocks)} blocks, container "
            f"holds {len(sections) - 1}"
        )
    try:
        specs, n_rows = schema["columns"], schema["n_rows"]
        if len(specs) != len(blocks):
            raise SnapshotDecodeError("block directory does not match table")
        columns = [
            _column(spec, block, raw, index, n_rows)
            for index, (spec, block, raw)
            in enumerate(zip(specs, blocks, sections[1:]))
        ]
        table = DataTable(columns, name=schema["name"])
    except (ForesightError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotDecodeError(f"table schema: {exc}") from exc
    if table.n_rows != n_rows:
        raise SnapshotDecodeError("block directory does not match table")
    return meta, table
