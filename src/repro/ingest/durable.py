"""The durable ingestion journal: on-disk WAL, snapshots and restart replay.

Everything :mod:`repro.ingest` journals in memory — the monotone
``(version, seq)`` identity and the delta batches behind it — is lost on
restart, which silently breaks the cache-key and provenance contract the
serving stack relies on.  This module makes the journal **persistent**:

* **Record container** — every journal entry is a length-prefixed,
  CRC-32-checksummed record (:func:`encode_record`) holding one
  canonical-JSON payload.  The reader (:func:`scan_records`) is
  *tolerant*: a torn or corrupted tail — a crash mid-write, a truncated
  copy, a flipped byte — stops the scan at the last complete record
  instead of raising, so recovery never invents data and never fails on
  the exact failure it exists for.

* **Segment files** — each dataset directory holds per-generation
  segment files (``journal-<version>-<base_seq>.seg``).  A segment opens
  with a generation-header record; append/build/swap records follow.
  Rotating to a new generation (reload / re-registration) creates and
  fsyncs the *new* segment **before** the in-memory swap and only then
  deletes the old ones, so a crash anywhere in the window can never
  replay a previous generation's deltas onto the new version.

* **Snapshots + compaction** — a full sketch rebuild makes the engine
  state a pure function of ``(rows[:base_rows], rows[base_rows:])``, so
  right after one the journal writes a per-generation
  ``snapshot-<version>.bin`` (the table in
  columnar form plus the ingest counters, atomically via
  ``write-tmp + fsync + rename``) and truncates the replayed records by
  starting a fresh segment.  Replay cost is therefore bounded by the
  accuracy budget, not by dataset lifetime.

* **The transition** — what an ``append`` / ``build`` / ``swap`` record
  does to a dataset's ``(table, engine, IngestLog)`` is written exactly
  once, as :class:`ReplayMachine`: a side-effect-free ``stage`` (record
  → next table and engine) and a ``commit`` (assign them, fold the
  record into the log via :func:`fold_record`).  The primary decides,
  stages, journals, then commits; a restart (:func:`replay_state`) and
  a replica just ``apply`` (stage-then-commit) the journalled records —
  same code, same RNG seeds (the streams are keyed by table sizes, not
  wall clock), so byte-identical responses after restart or on a
  replica are the tested contract, not a best effort.

* **The read** — which records of a generation are replayable is
  decided once too, by :meth:`DatasetJournal.scan`: the segment-header
  check, seq contiguity, the stop at a torn tail or a seq gap, and
  which build markers are news.  A restart (:meth:`DatasetJournal.load`)
  scans from the snapshot's position, the replication feed
  (:class:`JournalFeed`) from a replica's cursor.  A segment whose
  header names another generation is unusable to both, so a replica
  holding a cursor into it is reset to exactly what a restart loads.

The :class:`~repro.service.workspace.Workspace` drives all of this via
its ``data_dir`` argument; this module owns the file format and the
dataset transition.
"""

from __future__ import annotations

import base64
import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence
from urllib.parse import quote, unquote

import numpy as np

from repro.errors import DeltaValidationError, IngestError
from repro.obs.resources import record_journal_bytes
from repro.core.engine import EngineConfig, Foresight
from repro.core.neighborhood import NeighborhoodConfig
from repro.sketch.store import SketchStoreConfig
from repro.data.table import DataTable
from repro.ingest import delta as ingest_delta
from repro.ingest.delta import DeltaBatch
from repro.ingest.log import (
    APPLIED_DEFERRED,
    APPLIED_DELTA_MERGE,
    IngestLog,
)
from repro.ingest.maintenance import build_delta_partials, merge_delta
from repro.ingest.snapshot_codec import (
    SnapshotDecodeError,
    decode_snapshot,
    encode_snapshot,
)

#: Journal record types (the ``"type"`` key of every record payload).
RECORD_GENERATION = "gen"     # segment header: names the generation
RECORD_APPEND = "append"      # one accepted append, rows included
RECORD_BUILD = "build"        # cold engine build froze the deferred rows
RECORD_SWAP = "swap"          # background rebuild swapped a fresh engine in

#: On-disk names.  Snapshots are **per generation** — the snapshot for a
#: new version must never overwrite the old generation's only durable
#: copy before the new generation's segment exists, so each lives in its
#: own file and stale ones are deleted only after the rotation is safe.
_SEGMENT_RE = re.compile(r"^journal-(\d{8})-(\d{10})\.seg$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.bin$")


def snapshot_filename(version: int) -> str:
    """The (binary columnar) snapshot file for generation ``version``."""
    return f"snapshot-{version:08d}.bin"


#: Record header: big-endian (payload_length, crc32(payload)).
_HEADER = struct.Struct(">II")

#: Refuse absurd record lengths outright — a corrupted length field must
#: not make the reader try to allocate gigabytes.
MAX_RECORD_BYTES = 256 * 1024 * 1024


# ---------------------------------------------------------------------------
# Record container
# ---------------------------------------------------------------------------
def encode_record(payload: dict[str, Any]) -> bytes:
    """One journal record: ``length | crc32 | canonical JSON payload``."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def scan_records(data: bytes) -> Iterator[tuple[dict[str, Any], int, int]]:
    """Yield ``(payload, start_offset, end_offset)`` for each valid record.

    Stops — without raising — at the first torn, truncated or corrupted
    record: a header that doesn't fit, a body shorter than its declared
    length, a CRC mismatch, or an undecodable payload all end the scan.
    The last yielded record's ``end_offset`` is the clean truncation
    point for repair.
    """
    offset = 0
    size = len(data)
    while offset + _HEADER.size <= size:
        length, checksum = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or body_start + length > size:
            return
        body = data[body_start : body_start + length]
        if zlib.crc32(body) != checksum:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        end = body_start + length
        yield payload, offset, end
        offset = end


def decode_records(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """All complete records in ``data`` plus the clean-tail offset."""
    records: list[dict[str, Any]] = []
    clean = 0
    for payload, _start, end in scan_records(data):
        records.append(payload)
        clean = end
    return records, clean


def segment_filename(version: int, base_seq: int) -> str:
    """The segment file holding generation ``version`` records > ``base_seq``."""
    return f"journal-{version:08d}-{base_seq:010d}.seg"


# ---------------------------------------------------------------------------
# Engine configuration (persisted inside snapshots)
# ---------------------------------------------------------------------------
def engine_config_to_payload(config: EngineConfig) -> dict[str, Any]:
    """A JSON image of the result-affecting engine configuration.

    Persisted inside a dataset's snapshot so a restart rebuilds a
    custom-configured dataset under the exact config it was registered
    with — sketch seeds, capacities and mode all change what a query
    returns, so restoring under the workspace default would silently
    break byte-identical recovery.
    """
    return {
        "mode": config.mode,
        "default_top_k": config.default_top_k,
        "max_candidates_triples": config.max_candidates_triples,
        "sketch": {f.name: getattr(config.sketch, f.name)
                   for f in dataclass_fields(SketchStoreConfig)},
        "neighborhood": {f.name: getattr(config.neighborhood, f.name)
                         for f in dataclass_fields(NeighborhoodConfig)},
    }


def engine_config_from_payload(payload: dict[str, Any]) -> EngineConfig:
    """Rebuild the :class:`EngineConfig` written by
    :func:`engine_config_to_payload`.

    Unknown keys are ignored (an older build reading a newer snapshot
    must not crash on a knob it doesn't have); missing keys keep their
    defaults.
    """
    def _known(cls: type, raw: Any) -> dict[str, Any]:
        names = {f.name for f in dataclass_fields(cls)}
        return {key: value for key, value in dict(raw or {}).items()
                if key in names}

    base = EngineConfig()
    return EngineConfig(
        mode=str(payload.get("mode", base.mode)),
        default_top_k=int(payload.get("default_top_k", base.default_top_k)),
        max_candidates_triples=int(
            payload.get("max_candidates_triples", base.max_candidates_triples)
        ),
        sketch=SketchStoreConfig(
            **_known(SketchStoreConfig, payload.get("sketch"))
        ),
        neighborhood=NeighborhoodConfig(
            **_known(NeighborhoodConfig, payload.get("neighborhood"))
        ),
    )


# ---------------------------------------------------------------------------
# Durable state (what a load reconstructs from disk)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FeedPosition:
    """A replica's cursor into one dataset's journal: ``(version, seq)``,
    plus whether the build marker at ``seq`` is behind it.

    A build marker is the one journal record that moves no ``seq``, and
    a primary may write it long after the append it follows — after a
    replica already holds that ``seq``.  ``built`` keeps the cursor
    exact there: the marker is delivered once, not never and not on
    every poll.

    The token form ``"<version>:<seq>"`` (``"<version>:<seq>b"`` when
    ``built``) travels in the ``?from=`` query parameter of the HTTP
    journal endpoint.
    """

    version: int
    seq: int
    built: bool = False

    def token(self) -> str:
        return f"{self.version}:{self.seq}{'b' if self.built else ''}"

    @classmethod
    def parse(cls, token: str) -> "FeedPosition":
        version_text, sep, seq_text = token.partition(":")
        if not sep:
            raise ValueError(
                f"feed position must be '<version>:<seq>[b]', got {token!r}"
            )
        return cls(version=int(version_text),
                   seq=int(seq_text.removesuffix("b")),
                   built=seq_text.endswith("b"))

    def after(self, records: Iterable[dict[str, Any]]) -> "FeedPosition":
        """The cursor once ``records`` (journal records past this one)
        are applied: an append or a swap moves ``seq``, a build marker
        sets ``built``."""
        seq, built = self.seq, self.built
        for record in records:
            if record["type"] == RECORD_BUILD:
                built = True
            else:
                seq, built = int(record["seq"]), False
        return FeedPosition(self.version, seq, built)


@dataclass
class DurableState:
    """Everything the journal knows about one dataset."""

    version: int
    #: The compaction snapshot's metadata (``seq``, counters, build
    #: state, engine config of ``snapshot-<version>.bin``), or None when
    #: recovery starts from the registered loader's base table.
    snapshot: dict[str, Any] | None
    #: The snapshot's rows; set exactly when ``snapshot`` is.
    table: DataTable | None = None
    #: Replayable records of the current generation, contiguous, with
    #: seq above the snapshot's.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: True when a torn/corrupt tail (or stale later segments) was found
    #: and will be dropped on repair.
    damaged: bool = False
    #: The engine-config payload persisted for this generation, already
    #: resolved: the snapshot's copy when a snapshot exists, else the
    #: segment header's (which exists so a custom config survives a
    #: crash *before* the first compaction snapshot).  None means the
    #: workspace default applied.
    engine_config: dict[str, Any] | None = None

    @property
    def position(self) -> FeedPosition:
        """Where the state stands (a bootstrapped replica's cursor): the
        snapshot's ``(seq, engine_built)``, or the generation's start,
        past ``records``."""
        snapshot = self.snapshot or {}
        return FeedPosition(self.version, int(snapshot.get("seq", 0)),
                            bool(snapshot.get("engine_built"))
                            ).after(self.records)

    @property
    def seq(self) -> int:
        """The last durable sequence number."""
        return self.position.seq

    def base_log(self) -> IngestLog:
        """The log the generation's records fold onto: the snapshot's
        counters at the snapshot's seq, or a fresh one at seq 0."""
        if self.snapshot is None:
            return IngestLog()
        return IngestLog.from_payload(self.snapshot.get("counters", {}),
                                      seq=int(self.snapshot["seq"]))


@dataclass
class GenerationScan:
    """One read of a generation's segments (:meth:`DatasetJournal.scan`)."""

    #: The first segment's base seq: nothing at or below it is on disk.
    base_seq: int = 0
    #: The highest append/swap seq read (``base_seq`` when none).
    tip: int = 0
    #: Contiguous append/swap records after ``start.seq``, and the build
    #: markers not behind ``start``, in journal order.
    records: list[dict[str, Any]] = field(default_factory=list)
    #: The first segment header's engine config.
    engine_config: dict[str, Any] | None = None
    #: Why the read ended early: ``"torn"`` (a torn tail, whose clean end
    #: is ``truncate_at``), ``"header"`` (a segment header missing or
    #: naming another generation) or ``"gap"`` (a seq gap); None when
    #: every segment was read to its end.
    stop: str | None = None
    truncate_at: tuple[Path, int] | None = None
    #: Segments nothing may be replayed from: one with a bad header, and
    #: every one after the stop.
    unusable: list[Path] = field(default_factory=list)


class DatasetJournal:
    """Per-workspace manager of the on-disk dataset journals.

    One instance owns a ``data_dir``; each dataset gets a subdirectory
    (URL-quoted name, so any registrable name maps to a filesystem-safe,
    injective path).  All mutating calls for one dataset happen under
    that dataset's workspace entry lock, so this class needs no lock of
    its own.
    """

    def __init__(self, root: str | Path, fsync: bool = True):
        self.root = Path(root)
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        self._handles: dict[str, Any] = {}
        # Per-dataset on-disk bytes, maintained incrementally: appends
        # add record lengths; rotations (rare, already O(directory))
        # rescan.  Reads (the memory ledger) never touch the filesystem.
        self._disk: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _dir(self, name: str) -> Path:
        return self.root / quote(name, safe="")

    def dataset_names(self) -> list[str]:
        """Datasets with any durable state, in directory order."""
        names = []
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and any(
                _SEGMENT_RE.match(p.name) or _SNAPSHOT_RE.match(p.name)
                for p in child.iterdir()
            ):
                names.append(unquote(child.name))
        return names

    def _segments(self, name: str) -> list[tuple[int, int, Path]]:
        """All ``(version, base_seq, path)`` segments, sorted."""
        directory = self._dir(name)
        if not directory.is_dir():
            return []
        found = []
        for path in directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), int(match.group(2)), path))
        return sorted(found)

    def _snapshots(self, name: str) -> list[tuple[int, Path]]:
        """All ``(version, path)`` snapshot files, sorted."""
        directory = self._dir(name)
        if not directory.is_dir():
            return []
        found = []
        for path in directory.iterdir():
            match = _SNAPSHOT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    # ------------------------------------------------------------------
    # Loading + repair
    # ------------------------------------------------------------------
    def load(self, name: str, repair: bool = False) -> DurableState | None:
        """Reconstruct the dataset's durable state from disk.

        Reads the newest generation's segments with :meth:`scan` from
        the snapshot's position, tolerating a torn or corrupted tail by
        stopping at the last complete record.  With
        ``repair=True`` the torn tail is truncated away and stale files
        (older generations, unusable later segments, an out-of-date
        snapshot) are deleted, leaving the directory ready for appends.
        """
        segments = self._segments(name)
        snapshots = self._snapshots(name)
        if not segments and not snapshots:
            return None
        # The newest generation *with a segment* wins.  A newer
        # snapshot-only version is a crashed rotation that never started
        # its segment: the operation was never acknowledged, so the old
        # generation — still fully intact — is the correct state.  With
        # no segment at all, a crash between the snapshot rename and the
        # compaction segment left the snapshot orphaned: the dataset
        # must stay appendable, so repair recreates its segment.
        version = (max(entry[0] for entry in segments) if segments
                   else snapshots[-1][0])
        stale_paths = [entry[2] for entry in segments if entry[0] != version]
        stale_paths += [path for v, path in snapshots if v != version]
        snapshot, table = self._read_snapshot(name, version)
        state = DurableState(version=version, snapshot=snapshot, table=table)
        # With no records yet, the state's position is where replay
        # starts: the snapshot's (seq, engine_built), or the
        # generation's start.
        scan = self.scan(name, state.position)
        if scan is None:
            if segments:  # a rotation replaced the generation meanwhile
                return self.load(name, repair)
            scan = GenerationScan()  # the orphaned snapshot's
        state.records, state.damaged = scan.records, scan.stop is not None
        state.engine_config = (snapshot.get("engine_config")
                               if snapshot is not None else scan.engine_config)

        if snapshot is None and any(v == version for v, _path in snapshots):
            # The generation HAS a snapshot file but it is unreadable:
            # the compacted rows are lost, so every surviving record is
            # unanchored — and pretending the generation starts at seq 0
            # would re-mint identities already acknowledged for
            # different data.  Rotation deletes every old segment and
            # the corrupt snapshot; the bumped version guarantees no
            # (version, seq) pair ever names two different states.
            if repair:
                self.begin_generation(name, version + 1,
                                      engine_config=scan.engine_config)
            return DurableState(version=version + 1, snapshot=None,
                                damaged=True,
                                engine_config=scan.engine_config)
        if repair:
            if scan.truncate_at is not None:
                path, clean = scan.truncate_at
                with open(path, "r+b") as handle:
                    handle.truncate(clean)
                    handle.flush()
                    os.fsync(handle.fileno())
            for path in scan.unusable + stale_paths:
                self._remove(path)
            self._fsync_dir(self._dir(name))
            if not any(v == version for v, _s, _p in self._segments(name)):
                # No segment of the surviving generation is left (all
                # unusable, e.g. a destroyed header, or an orphaned
                # snapshot's never written): start a fresh one at the
                # recovered position so appends have somewhere to land.
                self.begin_generation(name, version, base_seq=state.seq,
                                      engine_config=state.engine_config)
        return state

    def scan(self, name: str, start: FeedPosition) -> GenerationScan | None:
        """Read generation ``start.version``'s segments from ``start``.

        The one reader of a generation's records: restart recovery
        (:meth:`load`) starts it at the snapshot's position, the
        replication feed at a replica's cursor.  ``None`` unless
        ``start.version`` is the newest generation with a segment.
        Append and swap records must continue ``start.seq`` one by one;
        a build marker is kept unless ``start`` is past it.  The read
        stops at a torn tail, at a segment header that is missing or
        names another generation, or at a seq gap, and every segment
        after the stop is unusable.  Never writes; never decodes the
        snapshot.
        """
        segments = self._segments(name)
        if not segments or max(v for v, _s, _p in segments) != start.version:
            return None
        current = [(base, path) for v, base, path in segments
                   if v == start.version]
        scan = GenerationScan(base_seq=current[0][0], tip=current[0][0])
        expected = start.seq
        for index, (_base, path) in enumerate(current):
            if scan.stop is not None:
                scan.unusable.append(path)
                continue
            data = path.read_bytes()
            records, clean = decode_records(data)
            if clean < len(data):
                scan.stop, scan.truncate_at = "torn", (path, clean)
            if not records and index > 0:
                continue  # a later segment with no complete record
            header = records[0] if records else {}
            if (header.get("type") != RECORD_GENERATION
                    or int(header.get("version", -1)) != start.version):
                scan.stop = "header"
                scan.unusable.append(path)
                continue
            if scan.engine_config is None:
                scan.engine_config = header.get("engine_config")
            for record in records[1:]:
                kind = record.get("type")
                if kind in (RECORD_APPEND, RECORD_SWAP):
                    seq = int(record.get("seq", -1))
                    scan.tip = max(scan.tip, seq)
                    if seq <= expected:
                        continue  # at or before the start
                    if seq != expected + 1:
                        # Records were lost mid-journal: nothing after
                        # the gap is usable.
                        scan.stop = "gap"
                        break
                    expected = seq
                    scan.records.append(record)
                elif kind == RECORD_BUILD:
                    # A marker at the start's own seq is news only if
                    # the start is not already past it.
                    seq = int(record.get("seq", -1))
                    if seq > start.seq or (seq == start.seq
                                           and not start.built):
                        scan.records.append(record)
                # Unknown record types are skipped, not fatal.
        return scan

    def _read_snapshot(
        self, name: str, version: int,
    ) -> tuple[dict[str, Any], DataTable] | tuple[None, None]:
        """The generation's snapshot ``(meta, table)``, or ``(None, None)``
        (absent or corrupt — the caller tells the two apart by the
        file's presence)."""
        try:
            data = (self._dir(name) / snapshot_filename(version)).read_bytes()
            meta, table = decode_snapshot(data)
        except (OSError, SnapshotDecodeError):
            return None, None
        if (meta.get("type") != "snapshot"
                or int(meta.get("version", -1)) != version):
            return None, None
        return meta, table

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def begin_generation(self, name: str, version: int,
                         base_seq: int = 0,
                         engine_config: dict[str, Any] | None = None) -> None:
        """Rotate to a fresh generation: new segment first, cleanup after.

        The new segment (with its generation-header record) is written
        and fsynced — file and directory — *before* any old file is
        touched, so recovery always finds either the old generation
        intact or the new one started; never a mix.  Cleanup then drops
        other generations' segments and snapshots (snapshots are
        per-generation files, so the new generation's own snapshot — if
        compaction just wrote it — survives untouched).

        ``engine_config`` (an :func:`engine_config_to_payload` dict)
        rides in the generation header so a custom-configured dataset
        whose process dies before its first compaction snapshot still
        replays under the config its journalled history was produced
        with.
        """
        directory = self._dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        old_segments = [path for _v, _s, path in self._segments(name)]
        old_snapshots = [path for v, path in self._snapshots(name)
                         if v != version]
        self._close_handle(name)
        path = directory / segment_filename(version, base_seq)
        handle = open(path, "ab")
        header: dict[str, Any] = {
            "type": RECORD_GENERATION, "version": version,
            "base_seq": base_seq,
        }
        if engine_config is not None:
            header["engine_config"] = engine_config
        try:
            handle.write(encode_record(header))
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            # Failure-atomic, like append(): a partial segment with a
            # torn header must not survive — recovery would take it as
            # the newest generation, declare it unusable, and delete the
            # still-intact previous generation with it.
            try:
                handle.close()
            except OSError:  # pragma: no cover - close failure is benign
                pass
            self._remove(path)
            raise
        self._fsync_dir(directory)
        for old in old_segments:
            if old != path:
                self._remove(old)
        for old in old_snapshots:
            self._remove(old)
        self._fsync_dir(directory)
        self._handles[name] = handle
        self._rescan_disk(name)

    def append(self, name: str, payload: dict[str, Any]) -> None:
        """Commit one record to the dataset's tail segment.

        The record is durable when this returns: written, flushed and
        (with ``fsync``) fsynced here, on the caller's thread.  The
        workspace calls it between :meth:`ReplayMachine.stage` and
        :meth:`ReplayMachine.commit`, so a record becomes visible only
        once it is durable.

        Failure-atomic: if the write/flush/fsync fails partway (ENOSPC,
        I/O error), the segment is truncated back to its pre-append
        length before the error propagates.  Torn bytes must never stay
        in the file — a later successful append would land *after* them,
        and replay (which stops at the first damage) would silently drop
        it despite its acknowledgement.
        """
        handle = self._handle(name)
        record = encode_record(payload)
        start = handle.tell()
        try:
            handle.write(record)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError:
            try:
                handle.truncate(start)
                # truncate() leaves the position past the new end, and
                # the next append reads it back as its own ``start``.
                handle.seek(start)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                # Can't prove the tail is clean: drop the handle so the
                # next open goes through load(repair=True)'s scan.
                self._close_handle(name)
            raise
        usage = self._disk.get(name)
        if usage is None:
            self._rescan_disk(name)  # first sight; includes this record
        else:
            usage["journal_bytes"] += len(record)
        record_journal_bytes(len(record))

    def sync(self, name: str) -> None:
        """Force the dataset's journal to stable storage (flush + fsync)."""
        handle = self._handles.get(name)
        if handle is None:
            tail = self._tail_segment(name)
            if tail is None:
                return
            with open(tail, "rb") as reader:
                os.fsync(reader.fileno())
            return
        handle.flush()
        os.fsync(handle.fileno())

    def write_snapshot(self, name: str, meta: dict[str, Any],
                       table: DataTable) -> None:
        """Atomically persist a compaction snapshot and truncate the journal.

        ``meta`` (``type`` / ``version`` / ``seq`` / counters / optional
        ``engine_config``) and ``table`` are packed by
        :func:`~repro.ingest.snapshot_codec.encode_snapshot`.

        The snapshot is written to its generation's own file (temp +
        fsync + rename); only then does a fresh segment (based at the
        snapshot's seq) replace the replayed ones and delete other
        generations' files.  Because snapshots are per-generation, a
        crash at any point leaves a recoverable combination: the old
        generation fully intact (its snapshot untouched, the new one
        ignored as segment-less), or the new one started.
        """
        version = int(meta["version"])
        directory = self._dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / snapshot_filename(version)
        temporary = directory / (snapshot_filename(version) + ".tmp")
        try:
            with open(temporary, "wb") as handle:
                handle.write(encode_snapshot(meta, table))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, target)
        except BaseException:
            self._remove(temporary)  # recovery ignores .tmp, but be tidy
            raise
        self._fsync_dir(directory)
        self.begin_generation(name, version, base_seq=int(meta["seq"]),
                              engine_config=meta.get("engine_config"))

    def close(self) -> None:
        for name in list(self._handles):
            self._close_handle(name)

    # ------------------------------------------------------------------
    # Disk-byte accounting (feeds the memory ledger)
    # ------------------------------------------------------------------
    def _rescan_disk(self, name: str) -> dict[str, int]:
        """Recount one dataset's on-disk bytes from the directory.

        Called only at rotation points (``begin_generation``, first
        sight of a dataset) — never on the read path — so the usage
        dict stays a pure counter read for ``disk_usage``.
        """
        journal_bytes = 0
        for _version, _base_seq, path in self._segments(name):
            try:
                journal_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                pass
        snapshot_bytes = 0
        for _version, path in self._snapshots(name):
            try:
                snapshot_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                pass
        usage = {"journal_bytes": journal_bytes,
                 "snapshot_bytes": snapshot_bytes}
        self._disk[name] = usage
        return usage

    def disk_usage(self, name: str | None = None) -> dict[str, int]:
        """Incrementally maintained on-disk bytes (journal + snapshots).

        With a ``name``, that dataset's usage (scanning it on first
        sight); without one, totals across every dataset already seen.
        """
        if name is not None:
            usage = self._disk.get(name)
            if usage is None:
                usage = self._rescan_disk(name)
            return dict(usage)
        # The totals path must count recovered-but-untouched datasets
        # too: right after a restart nothing has been appended yet, so
        # ``self._disk`` is empty and /v1/debug + Prometheus would read
        # 0 disk bytes until first access.  Scan the directory listing
        # for unseen datasets (a one-time cost per dataset; the usage
        # row is cached afterwards).
        for unseen in self.dataset_names():
            if unseen not in self._disk:
                self._rescan_disk(unseen)
        totals = {"journal_bytes": 0, "snapshot_bytes": 0}
        for usage in self._disk.values():
            totals["journal_bytes"] += usage["journal_bytes"]
            totals["snapshot_bytes"] += usage["snapshot_bytes"]
        return totals

    def forget_disk_usage(self, name: str) -> None:
        """Drop a closed dataset's usage row."""
        self._disk.pop(name, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _handle(self, name: str):
        handle = self._handles.get(name)
        if handle is None:
            tail = self._tail_segment(name)
            if tail is None:
                raise IngestError(
                    f"dataset {name!r} has no journal segment; "
                    "begin_generation must run before appends"
                )
            handle = open(tail, "ab")
            self._handles[name] = handle
        return handle

    def _tail_segment(self, name: str) -> Path | None:
        segments = self._segments(name)
        return segments[-1][2] if segments else None

    def _close_handle(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close failure is benign
                pass

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX fallback
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - some filesystems refuse
            pass
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# The dataset transition
# ---------------------------------------------------------------------------
@dataclass(kw_only=True)
class DatasetState:
    """What the journal determines about one dataset, and nothing else.

    A workspace's dataset entry *is* one of these (plus registration
    metadata and its lock); :func:`replay_state` builds a bare one.
    :class:`ReplayMachine` is the only code that advances it.
    """

    table: DataTable | None = None
    engine: Foresight | None = None
    #: Sequence number, ingestion counters and accuracy-budget accounting
    #: of this generation.  Replaced wholesale on reload.
    ingest: IngestLog = field(default_factory=IngestLog)
    #: How many times the engine was (re)built — the single-flight tests
    #: assert this stays at 1 when N threads race on a cold dataset.
    engine_builds: int = 0
    #: How many times the loader actually ran.
    loads: int = 0


def _engine_over(engine: Foresight, table: DataTable,
                 store: Any) -> Foresight:
    """``engine``'s registry/config over ``table`` — no preprocess."""
    return Foresight(
        table,
        registry=engine.registry,
        config=engine.config,
        preprocess=False,
        store=store,
    )


def _delta_merged(engine: Foresight, new_table: DataTable,
                  counts: Sequence[int]) -> Foresight:
    """An engine over ``new_table``: ``engine``'s sketches with the
    partials of the rows past them — deltas of ``counts`` rows each, in
    order — merged in (copy-on-merge; ``engine`` is untouched)."""
    store = engine.store
    partials = build_delta_partials(new_table, store, counts)
    merged = merge_delta(store, new_table, list(zip(counts, partials)))
    return _engine_over(engine, new_table, merged)


def rebuild_with_catchup(
    table: DataTable,
    base_rows: int,
    make_engine: Callable[[DataTable], Foresight],
    fresh: Foresight | None = None,
) -> Foresight:
    """An engine over ``table`` whose sketches were rebuilt from its first
    ``base_rows`` rows and delta-merged over the remaining ones.

    ``fresh`` is that prefix build when the caller already has it (a
    background rebuild sketches its table snapshot off-lock); otherwise
    the prefix is re-sliced from ``table`` and built here.
    """
    if fresh is None:
        prefix = (table if base_rows >= table.n_rows
                  else table.take(np.arange(base_rows)))
        fresh = make_engine(prefix)
    if fresh.table is table:
        return fresh
    n_prefix = fresh.table.n_rows
    if fresh.store is None or table.n_rows <= n_prefix:
        return _engine_over(fresh, table, fresh.store)
    return _delta_merged(fresh, table, [table.n_rows - n_prefix])


def _applied(dataset: str, record: dict[str, Any]) -> str:
    """An ``append`` record's ``applied`` value: ``delta_merge`` or
    ``deferred``.

    Both halves of the transition read it through here, so a record
    this build does not know how to apply — a journal from another
    version — is refused, never counted or replayed as something else.
    """
    applied = record.get("applied")
    if applied not in (APPLIED_DELTA_MERGE, APPLIED_DEFERRED):
        raise IngestError(
            f"journal for {dataset!r} holds an append at seq "
            f"{record.get('seq')} with unknown applied={applied!r}"
        )
    return applied


def fold_record(dataset: str, log: IngestLog, record: dict[str, Any]) -> None:
    """The log half of the transition: count one of ``dataset``'s
    journal records.

    Needs no table, so a dataset whose replay is still deferred (a
    pending entry) reports exactly the counters its replay will produce.
    """
    kind = record["type"]
    if kind == RECORD_APPEND:
        n_rows, total_rows = int(record["n_rows"]), int(record["total_rows"])
        applied = _applied(dataset, record)
        if applied == APPLIED_DELTA_MERGE and log.base_rows <= 0:
            # A delta merge needs a built store, yet this log has
            # accounted no build: the engine was cold-built over the
            # pre-append rows and its marker is not here (a journal
            # written before seq-0 builds were journalled).
            log.mark_rebuilt(total_rows - n_rows)
        log.append(n_rows, applied)
    elif kind == RECORD_BUILD:
        log.mark_rebuilt(int(record["total_rows"]))
    elif kind == RECORD_SWAP:
        log.record_swap(int(record["built_from_rows"]),
                        int(record["total_rows"]))


def fold_records(dataset: str, log: IngestLog,
                 records: Iterable[dict[str, Any]]) -> IngestLog:
    """:func:`fold_record` over ``records``; returns ``log``."""
    for record in records:
        fold_record(dataset, log, record)
    return log


def _runs(dataset: str, records: Sequence[dict[str, Any]]
          ) -> Iterator[tuple[bool, Sequence[dict[str, Any]]]]:
    """``records`` cut into maximal runs of delta-merging appends
    (``(True, run)``); any other record is a run of its own
    (``(False, [record])``)."""
    start = 0
    for index, record in enumerate(records):
        if (record["type"] != RECORD_APPEND
                or _applied(dataset, record) != APPLIED_DELTA_MERGE):
            if start < index:
                yield True, records[start:index]
            yield False, records[index:index + 1]
            start = index + 1
    if start < len(records):
        yield True, records[start:]


class ReplayMachine:
    """What journal records do to a dataset — the one transition.

    Bound to a :class:`DatasetState` (a live workspace entry, or the
    bare state a restart is rebuilding) and the owning workspace's
    ``make_engine`` (a full build under the dataset's config).  The
    transition is split so a primary can put its write-ahead journal
    write in the middle:

    * :meth:`stage` — records → the next ``(table, engine)``.  Touches
      nothing; may raise (invalid rows, a failed merge).
    * :meth:`commit` — assign the staged state and fold the records into
      the log.  Cannot fail.

    :meth:`apply` is stage-then-commit: all a restart or a replica does,
    with every record it holds, so a batch lands whole or not at all.
    A live append is a list of one.  Every caller running the same code
    over the same records is what makes a live, a restarted and a
    replicated dataset byte-identical at the same ``(version, seq)``.

    A run of consecutive delta-merging appends is one step, as the
    sketches compose: its rows are parsed once and concatenated onto the
    table once, each append's partials are built from slices of them
    and merged in journal order (each with its own RNG streams and
    sample advance, so the result equals one append at a time), and one
    store and one engine are published at the end.
    """

    __slots__ = ("dataset", "state", "make_engine")

    def __init__(
        self,
        dataset: str,
        state: DatasetState,
        make_engine: Callable[[DataTable], Foresight],
    ):
        self.dataset = dataset
        self.state = state
        self.make_engine = make_engine

    def stage(
        self,
        records: Sequence[dict[str, Any]],
        batch: DeltaBatch | None = None,
        fresh: Foresight | None = None,
    ) -> tuple[DataTable, Foresight | None, int]:
        """The ``(table, engine, engine_builds)`` that ``records`` lead to.

        ``batch`` and ``fresh`` are work a live caller has already done
        for its one record — the validated rows of an append; the engine
        a lazy cold build sketched over the table, or a background
        rebuild sketched off-lock over its first ``built_from_rows`` rows
        — handed over so it is not redone; replay derives both from the
        records.
        """
        table, engine, builds = self.state.table, self.state.engine, 0
        for merging, run in _runs(self.dataset, records):
            if merging:
                table, engine, built = self._merge_run(run, table, engine,
                                                       batch)
            else:
                table, engine, built = self._step(run[0], table, engine,
                                                  batch, fresh)
            builds += built
        return table, engine, builds

    def _rows(self, records: Sequence[dict[str, Any]], table: DataTable,
              batch: DeltaBatch | None) -> list[DataTable]:
        """The appends' validated rows, in as few tables as
        :data:`~repro.ingest.delta.MAX_BATCH_ROWS` allows (cut only
        between records).  Rows refused together are validated again
        record by record, so the error is exactly the one the first
        invalid record raises alone."""
        if batch is not None:
            return [batch.table]
        schema = table.schema
        parts = [record["rows"] for record in records]
        if len(parts) > 1 and all(isinstance(rows, list) and rows
                                  for rows in parts):
            chunks: list[list[Any]] = [[]]
            for rows in parts:
                if (chunks[-1] and len(chunks[-1]) + len(rows)
                        > ingest_delta.MAX_BATCH_ROWS):
                    chunks.append([])
                chunks[-1] += rows
            try:
                return [DeltaBatch.from_records(self.dataset, rows, schema).table
                        for rows in chunks]
            except DeltaValidationError:
                pass  # validated again below, record by record
        return [DeltaBatch.from_records(self.dataset, rows, schema).table
                for rows in parts]

    def _merge_run(
        self,
        run: Sequence[dict[str, Any]],
        table: DataTable,
        engine: Foresight | None,
        batch: DeltaBatch | None,
    ) -> tuple[DataTable, Foresight, int]:
        """A run of delta-merging appends, as one step."""
        new_table = table.concat(*self._rows(run, table, batch))
        builds = 0
        if engine is None:
            # Cold-built live with no marker in this journal (one
            # written before seq-0 builds were journalled): rebuild it
            # over the same pre-append rows.
            engine = self.make_engine(table)
            builds = 1
        if engine.store is None:  # pragma: no cover - defensive
            raise IngestError(
                f"journal for {self.dataset!r} delta-merges into an "
                "exact-mode engine"
            )
        counts = ([batch.n_rows] if batch is not None
                  else [len(record["rows"]) for record in run])
        return new_table, _delta_merged(engine, new_table, counts), builds

    def _step(
        self,
        record: dict[str, Any],
        table: DataTable,
        engine: Foresight | None,
        batch: DeltaBatch | None,
        fresh: Foresight | None,
    ) -> tuple[DataTable, Foresight | None, int]:
        """One record that is not part of a run: a deferred append, a
        build marker or a swap."""
        kind = record["type"]
        builds = 0
        if kind == RECORD_APPEND:
            new_table = table.concat(*self._rows([record], table, batch))
            if engine is not None:
                # Deferred: rows only extend the table.  An exact-mode
                # engine has nothing sketched and simply moves onto the
                # grown table.  An approximate one can only be a
                # replica's local lazy build the journal never recorded
                # (a primary would have merged): it no longer covers
                # every row, so it must not stand — the next build
                # marker or read rebuilds over the full table.
                engine = (_engine_over(engine, new_table, None)
                          if engine.store is None else None)
            return new_table, engine, builds
        if kind == RECORD_BUILD:
            # A lazily built engine covering the same rows is, by
            # determinism, the engine the marker names: keep it.
            if engine is None:
                engine = (fresh if fresh is not None
                          else self.make_engine(table))
                builds = 1
        elif kind == RECORD_SWAP:
            engine = rebuild_with_catchup(
                table, int(record["built_from_rows"]), self.make_engine,
                fresh=fresh,
            )
            builds = 1
        return table, engine, builds

    def commit(self, records: Sequence[dict[str, Any]],
               staged: tuple[DataTable, Foresight | None, int]) -> None:
        """Make ``staged`` (from :meth:`stage` of ``records``) the state."""
        state = self.state
        state.table, state.engine, builds = staged
        state.engine_builds += builds
        fold_records(self.dataset, state.ingest, records)

    def apply(self, records: Sequence[dict[str, Any]]) -> None:
        """Fold journal records into the state (stage, then commit)."""
        self.commit(records, self.stage(records))


def replay_state(
    dataset: str,
    state: DurableState,
    base_table: Callable[[], DataTable] | None,
    make_engine: Callable[[DataTable], Foresight],
) -> DatasetState:
    """Fold a :class:`DurableState` back into live serving state.

    ``base_table`` supplies the generation's base rows when no snapshot
    exists (the registered loader); ``make_engine`` builds a fresh engine
    for a table exactly the way the owning workspace would (same config
    resolution), so replayed builds match live builds byte for byte.
    """
    snapshot, table = state.snapshot, state.table
    if snapshot is not None:
        replayed = DatasetState(table=table, ingest=state.base_log())
        if snapshot.get("engine_built"):
            replayed.engine = rebuild_with_catchup(
                table, int(snapshot.get("base_rows", table.n_rows)),
                make_engine,
            )
            replayed.engine_builds = 1
    else:
        if base_table is None:
            raise IngestError(
                f"dataset {dataset!r} has journalled appends but no snapshot "
                "and no loader to supply its base rows"
            )
        replayed = DatasetState(table=base_table(), loads=1)
    ReplayMachine(dataset, replayed, make_engine).apply(state.records)
    return replayed


# ---------------------------------------------------------------------------
# Replication feed
# ---------------------------------------------------------------------------
@dataclass
class FeedBatch:
    """One :meth:`JournalFeed.poll` answer.

    Either a **reset** (``reset`` holds a full :class:`DurableState` the
    replica must bootstrap from — late join, generation change, or a
    cursor the journal can no longer serve incrementally) or an
    **incremental** batch (``records`` are contiguous journal records
    strictly after the polled position).  ``position`` is the cursor
    after applying the batch; ``primary_seq`` is the primary's durable
    tip at scan time, so ``primary_seq - position.seq`` is the replica's
    remaining lag; ``more`` says the batch was cut at ``max_records``
    and another poll will make immediate progress.
    """

    dataset: str
    reset: DurableState | None
    records: list[dict[str, Any]]
    position: FeedPosition
    more: bool
    primary_seq: int


def durable_state_to_payload(state: DurableState) -> dict[str, Any]:
    """A JSON-safe image of a :class:`DurableState` (for the HTTP feed).

    The snapshot travels as the bytes of its ``snapshot-<version>.bin``
    — :func:`~repro.ingest.snapshot_codec.encode_snapshot` is
    deterministic, so re-encoding reproduces the file — in base64.
    """
    snapshot = None
    if state.snapshot is not None:
        snapshot = base64.b64encode(
            encode_snapshot(state.snapshot, state.table)).decode("ascii")
    return {
        "version": state.version,
        "snapshot": snapshot,
        "records": list(state.records),
        "damaged": state.damaged,
        "engine_config": state.engine_config,
    }


def durable_state_from_payload(payload: dict[str, Any]) -> DurableState:
    """Rebuild the :class:`DurableState` from
    :func:`durable_state_to_payload`.

    Raises :class:`~repro.ingest.snapshot_codec.SnapshotDecodeError`
    when the snapshot is not base64 of an intact snapshot file.
    """
    snapshot = table = None
    encoded = payload.get("snapshot")
    if encoded is not None:
        try:
            data = base64.b64decode(encoded, validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error included
            raise SnapshotDecodeError(f"reset snapshot: {exc}") from exc
        snapshot, table = decode_snapshot(data)
    return DurableState(
        version=int(payload["version"]),
        snapshot=snapshot,
        table=table,
        records=list(payload.get("records") or []),
        damaged=bool(payload.get("damaged", False)),
        engine_config=payload.get("engine_config"),
    )


class JournalFeed:
    """A tailable, read-only view of a data directory's journals.

    The primary's WAL *is* the replication stream: the feed serves the
    same CRC'd records :class:`DatasetJournal` wrote, positioned by a
    ``(version, seq)`` cursor.  An incremental poll is
    :meth:`DatasetJournal.scan` from the cursor, the read a restart
    does from its snapshot.  A full :class:`DurableState` bootstrap
    answers whenever incremental delivery is impossible — a late
    joiner (no cursor), a generation change (reload / re-registration
    bumped the version), compaction that truncated records the cursor
    still needed, a scan that stopped at anything but a torn tail (a
    bad segment header, a seq gap), or a cursor *ahead* of the
    primary's durable tip (the primary lost acknowledged-to-the-feed
    bytes, e.g. a failure-atomic append truncation raced a poll; the
    replica must re-anchor rather than diverge).

    The feed is stateless (cursors are caller-owned) and never writes:
    a reset's ``load`` runs with ``repair=False``, so a feed polling a
    live primary's directory can never race its owner's mutations — the
    worst case is reading a torn tail, which the scan treats as "not
    yet written".
    """

    def __init__(self, root: str | Path,
                 journal: DatasetJournal | None = None):
        self._journal = (journal if journal is not None
                         else DatasetJournal(root, fsync=False))

    def dataset_names(self) -> list[str]:
        """Datasets with durable state (what a replica should tail)."""
        return self._journal.dataset_names()

    def poll(self, name: str, position: FeedPosition | None = None,
             max_records: int = 512) -> FeedBatch | None:
        """Records after ``position``, or a bootstrap reset, or ``None``.

        ``None`` means the dataset has no durable state at all (never
        registered on the primary, or dropped).  Without a ``position``
        the answer is always a reset.  ``max_records`` bounds one
        incremental batch; the cut is extended through trailing build
        markers so a build is never separated from the append at its
        seq.  A marker written after the replica reached its seq is
        still owed: it is kept while ``position.built`` is unset.
        """
        if max_records < 1:
            raise IngestError(f"max_records must be >= 1, got {max_records}")
        if position is not None:
            try:
                batch = self._incremental(name, position, max_records)
            except OSError:
                # Segment deleted mid-read (compaction/rotation race):
                # fall through to a fresh bootstrap of the new state.
                batch = None
            if batch is not None:
                return batch
        state = self._journal.load(name, repair=False)
        if state is None:
            return None
        return FeedBatch(
            dataset=name, reset=state, records=[], position=state.position,
            more=False, primary_seq=state.seq,
        )

    def _incremental(self, name: str, position: FeedPosition,
                     max_records: int) -> FeedBatch | None:
        """An incremental batch after ``position``, or ``None`` for a
        reset (the causes are listed on the class)."""
        scan = self._journal.scan(name, position)
        if (scan is None or scan.stop not in (None, "torn")
                or not scan.base_seq <= position.seq <= scan.tip):
            return None
        records = scan.records
        cut = min(len(records), max_records)
        while cut < len(records) and records[cut]["type"] == RECORD_BUILD:
            cut += 1
        return FeedBatch(
            dataset=name, reset=None, records=records[:cut],
            position=position.after(records[:cut]),
            more=cut < len(records), primary_seq=scan.tip,
        )


__all__ = [
    "DatasetJournal",
    "DatasetState",
    "DurableState",
    "FeedBatch",
    "FeedPosition",
    "GenerationScan",
    "JournalFeed",
    "MAX_RECORD_BYTES",
    "RECORD_APPEND",
    "RECORD_BUILD",
    "RECORD_GENERATION",
    "RECORD_SWAP",
    "ReplayMachine",
    "decode_records",
    "durable_state_from_payload",
    "durable_state_to_payload",
    "encode_record",
    "engine_config_from_payload",
    "engine_config_to_payload",
    "fold_record",
    "fold_records",
    "rebuild_with_catchup",
    "replay_state",
    "scan_records",
    "segment_filename",
    "snapshot_filename",
]
