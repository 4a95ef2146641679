"""Binary columnar snapshot codec for the durable ingestion journal.

Snapshots used to be one canonical-JSON journal record per generation
(``snapshot-<version>.json``).  That is robust but slow and large for
wide numeric tables: every float costs ~18 text bytes to serialize and a
full JSON parse to restore, and restart replay time is dominated by it.
This module packs the same snapshot payload into a binary columnar
container (``snapshot-<version>.bin``):

* a **versioned header** (magic, format version, section count);
* **section 0**: the snapshot payload minus the bulk per-column arrays,
  as canonical JSON (the same canonicalization as
  :func:`repro.ingest.durable.encode_record`), plus a block directory
  describing the stripped arrays;
* **one section per column**: numeric columns as a missing-value bitmap
  followed by big-endian float64 values, categorical/boolean columns
  as big-endian int64 codes (their category lists, being small and
  already JSON values, stay in section 0).

Every section is individually zlib-compressed and CRC-checked, and every
length field is bounds-checked, so any truncation or corruption — at any
byte offset — raises :class:`SnapshotDecodeError` instead of yielding a
wrong table.  The journal treats that exactly like a torn JSON snapshot:
the generation is declared damaged and rotated away.

The codec is **pure bytes → dict**: it never touches the filesystem.
All file I/O (tmp-file + fsync + rename discipline) stays in
:mod:`repro.ingest.durable`, which also keeps the durability-protocol
lint rule's single-owner invariant intact.

Fidelity is exact, not approximate: float64 values and int64 codes
round-trip bit-for-bit through big-endian numpy buffers (``>f8`` /
``>i8``, the bitmap through ``np.packbits``), and ``None`` (missing)
entries are carried in the bitmap, so ``decode_snapshot(
encode_snapshot(payload))`` compares equal to ``payload`` — the restored
table and sketch payloads are byte-identical to what the JSON path
produces.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any

import numpy as np

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
#: leading underscore keeps it out of any plausible payload namespace;
#: decode strips it again.
_BLOCKS_KEY = "_blocks"

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
def _pack_values(values: list[Any]) -> bytes:
    """Numeric column block: missing bitmap + float64 values.

    ``None`` entries set their bitmap bit and pack a NaN placeholder;
    real (non-missing) NaN/inf values pass through the float64 lanes
    untouched, so the bitmap — not the payload — is the single source of
    truth for missingness.  Bit ``i % 8`` of byte ``i // 8`` is entry
    ``i``.
    """
    floats = np.array(values, dtype=np.float64)  # None becomes the NaN
    missing = np.zeros(floats.size, dtype=bool)
    for index in np.flatnonzero(np.isnan(floats)).tolist():
        missing[index] = values[index] is None
    return (np.packbits(missing, bitorder="little").tobytes()
            + floats.astype(">f8").tobytes())


def _unpack_values(block: bytes, n: int) -> list[Any]:
    bitmap_size = (n + 7) // 8
    if len(block) != bitmap_size + 8 * n:
        raise SnapshotDecodeError(
            f"numeric block holds {len(block)} bytes, expected "
            f"{bitmap_size + 8 * n} for {n} values"
        )
    values = np.frombuffer(block, dtype=">f8", offset=bitmap_size).tolist()
    missing = np.unpackbits(np.frombuffer(block, dtype=np.uint8, count=bitmap_size),
                            count=n, bitorder="little")
    for index in np.flatnonzero(missing).tolist():
        values[index] = None
    return values


def _pack_codes(codes: list[int]) -> bytes:
    """Categorical/boolean column block: big-endian int64 codes."""
    return np.asarray(codes, dtype=">i8").tobytes()


def _unpack_codes(block: bytes, n: int) -> list[int]:
    if len(block) != 8 * n:
        raise SnapshotDecodeError(
            f"code block holds {len(block)} bytes, expected {8 * n} "
            f"for {n} codes"
        )
    return np.frombuffer(block, dtype=">i8").tolist()


def encode_snapshot(payload: dict[str, Any]) -> bytes:
    """Pack a snapshot payload dict into the binary columnar container.

    ``payload`` is the exact dict the journal used to serialize as JSON
    (``type``/``version``/``seq``/counters/``table``/optional
    ``engine_config``).  Only the bulk per-column arrays move into
    binary sections; everything else rides in the canonical-JSON
    metadata section, so ``decode_snapshot`` returns an equal dict.
    """
    meta: dict[str, Any] = dict(payload)
    blocks: list[dict[str, Any]] = []
    sections: list[tuple[bytes, int]] = []  # (raw bytes, zlib level)

    table = payload.get("table")
    if isinstance(table, dict) and isinstance(table.get("columns"), list):
        stripped_columns = []
        for index, spec in enumerate(table["columns"]):
            if not isinstance(spec, dict):
                stripped_columns.append(spec)
                continue
            stripped = dict(spec)
            if "values" in stripped:
                values = stripped.pop("values")
                blocks.append(
                    {"column": index, "key": "values", "n": len(values)}
                )
                sections.append((_pack_values(values), _BLOCK_LEVEL))
            elif "codes" in stripped:
                codes = stripped.pop("codes")
                blocks.append(
                    {"column": index, "key": "codes", "n": len(codes)}
                )
                sections.append((_pack_codes(codes), _BLOCK_LEVEL))
            stripped_columns.append(stripped)
        stripped_table = dict(table)
        stripped_table["columns"] = stripped_columns
        meta["table"] = stripped_table

    meta[_BLOCKS_KEY] = blocks
    meta_bytes = json.dumps(
        meta, sort_keys=True, separators=(",", ":")
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


def decode_snapshot(data: bytes) -> dict[str, Any]:
    """Unpack :func:`encode_snapshot` output back into the payload dict.

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
    if not isinstance(blocks, list):
        raise SnapshotDecodeError("metadata lacks the block directory")
    if len(blocks) != len(sections) - 1:
        raise SnapshotDecodeError(
            f"block directory lists {len(blocks)} blocks, container "
            f"holds {len(sections) - 1}"
        )

    table = meta.get("table")
    columns = (
        table.get("columns")
        if isinstance(table, dict) and isinstance(table.get("columns"), list)
        else None
    )
    for block, raw in zip(blocks, sections[1:]):
        if not isinstance(block, dict):
            raise SnapshotDecodeError("malformed block directory entry")
        index = block.get("column")
        key = block.get("key")
        n = block.get("n")
        if (
            columns is None
            or not isinstance(index, int)
            or not 0 <= index < len(columns)
            or not isinstance(columns[index], dict)
            or key not in ("values", "codes")
            or not isinstance(n, int)
            or n < 0
        ):
            raise SnapshotDecodeError("block directory does not match table")
        if key == "values":
            columns[index]["values"] = _unpack_values(raw, n)
        else:
            columns[index]["codes"] = _unpack_codes(raw, n)
    return meta
