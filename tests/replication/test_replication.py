"""Replication suite: the journal feed and in-process read replicas.

The contract under test (ISSUE 10): a replica tailing a primary's
journal through :class:`JournalFeed` and applying records through the
restart-replay code path is **byte-identical** to a primary restarted
at the same ``(version, seq)`` — and a damaged feed tail, at *any*
byte offset of the final record, leaves the replica at the last
complete record: never an exception, never invented data.
"""

from __future__ import annotations

import json
import shutil
import time

import pytest

from repro.data.datasets import make_mixed_table
from repro.errors import IngestError, ReplicaReadOnlyError, ServiceError
from repro.ingest import IngestConfig
from repro.ingest.durable import (
    DatasetJournal,
    FeedPosition,
    JournalFeed,
    encode_record,
    scan_records,
)
from repro.service import (
    InsightRequest,
    LocalFeedSource,
    ReplicaWorkspace,
    Workspace,
)

#: Shared, deterministic base table + append stream for every scenario.
BASE_SEED, STREAM_SEED = 11, 12
BASE_ROWS = 80


@pytest.fixture(scope="module")
def base_table():
    return make_mixed_table(n_rows=BASE_ROWS, n_numeric=3, n_categorical=2,
                            seed=BASE_SEED)


@pytest.fixture(scope="module")
def stream(base_table):
    return make_mixed_table(n_rows=30, n_numeric=3, n_categorical=2,
                            seed=STREAM_SEED).to_records()


def _request():
    return InsightRequest(dataset="live", insight_classes=("skew", "outliers"),
                          top_k=3)


def _payload(response) -> str:
    """Canonical response bytes minus wall-clock timing."""
    body = response.to_dict()
    body.pop("timing")
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _open(data_dir, base, **ingest_overrides) -> Workspace:
    defaults = {"rebuild_fraction": float("inf")}
    defaults.update(ingest_overrides)
    workspace = Workspace(data_dir=str(data_dir) if data_dir else None,
                          ingest=IngestConfig(**defaults))
    # Concrete-table registration journals the base rows themselves, so
    # the durable state is self-contained — the precondition for
    # replication (a replica has no loader to supply base rows).
    workspace.register("live", base)
    return workspace


def _reopen(data_dir, **ingest_overrides) -> Workspace:
    """A restarted primary: the self-contained snapshot needs no register."""
    defaults = {"rebuild_fraction": float("inf")}
    defaults.update(ingest_overrides)
    return Workspace(data_dir=str(data_dir),
                     ingest=IngestConfig(**defaults))


def _replica(data_dir) -> ReplicaWorkspace:
    return ReplicaWorkspace(LocalFeedSource(str(data_dir)))


class TestJournalFeed:
    """The tailable cursor-positioned view over a data directory."""

    def test_no_position_always_bootstraps(self, tmp_path, base_table,
                                           stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        batch = feed.poll("live")
        assert batch is not None
        assert batch.reset is not None
        assert batch.records == []
        assert batch.position == FeedPosition(1, 1)
        assert batch.primary_seq == 1
        assert batch.more is False

    def test_unknown_dataset_is_none(self, tmp_path):
        assert JournalFeed(str(tmp_path)).poll("ghost") is None

    def test_caught_up_cursor_gets_an_empty_batch(self, tmp_path, base_table,
                                                  stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        batch = feed.poll("live", FeedPosition(1, 1))
        assert batch.reset is None
        assert batch.records == []
        assert batch.position == FeedPosition(1, 1)
        assert batch.more is False

    def test_incremental_records_after_the_cursor(self, tmp_path, base_table,
                                                  stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        position = feed.poll("live").position
        primary.append("live", stream[4:8])
        primary.append("live", stream[8:12])
        batch = feed.poll("live", position)
        assert batch.reset is None
        assert [r["seq"] for r in batch.records] == [2, 3]
        assert batch.position == FeedPosition(1, 3)
        assert batch.primary_seq == 3

    def test_max_records_cuts_and_resumes(self, tmp_path, base_table, stream):
        primary = _open(tmp_path, base_table)
        for i in range(4):
            primary.append("live", stream[2 * i: 2 * i + 2])
        feed = JournalFeed(str(tmp_path))
        position = FeedPosition(1, 0)
        seqs = []
        for _ in range(10):
            batch = feed.poll("live", position, max_records=1)
            assert batch.reset is None
            seqs.extend(r["seq"] for r in batch.records)
            position = batch.position
            if not batch.more:
                break
        assert seqs == [1, 2, 3, 4]
        assert position == FeedPosition(1, 4)

    def test_max_records_below_one_is_refused(self, tmp_path):
        with pytest.raises(IngestError, match="max_records"):
            JournalFeed(str(tmp_path)).poll("live", max_records=0)

    def test_version_change_forces_a_reset(self, tmp_path, base_table,
                                           stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        position = feed.poll("live").position
        primary.reload("live")  # bumps the generation: version 2
        batch = feed.poll("live", position)
        assert batch.reset is not None
        assert batch.position.version == 2

    def test_compaction_past_the_cursor_forces_a_reset(self, tmp_path,
                                                       base_table, stream):
        primary = _open(tmp_path, base_table)
        primary.engine("live")
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        stale = FeedPosition(1, 0)  # needs records the snapshot will eat
        primary.rebuild("live")  # compacts: new segment based at the tip
        batch = feed.poll("live", stale)
        assert batch.reset is not None
        assert batch.reset.snapshot is not None

    def test_cursor_ahead_of_the_tip_forces_a_reset(self, tmp_path,
                                                    base_table, stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        feed = JournalFeed(str(tmp_path))
        batch = feed.poll("live", FeedPosition(1, 99))
        assert batch.reset is not None
        assert batch.position == FeedPosition(1, 1)

    def test_a_rotation_during_a_reset_read_loads_the_new_generation(
            self, tmp_path, base_table, stream, monkeypatch):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        journal = DatasetJournal(tmp_path, fsync=False)
        scan = journal.scan

        def rotating_scan(name, start):
            # Lands between load()'s directory listing and its read.
            if primary.state("live")[0] == 1:
                primary.reload("live")
            return scan(name, start)

        monkeypatch.setattr(journal, "scan", rotating_scan)
        batch = JournalFeed(str(tmp_path), journal=journal).poll("live")
        assert batch.reset is not None
        assert batch.reset.snapshot is not None
        assert batch.position == FeedPosition(2, 0)

    def test_position_token_round_trip(self):
        assert FeedPosition.parse("3:17") == FeedPosition(3, 17)
        assert FeedPosition.parse(FeedPosition(3, 17).token()) == \
            FeedPosition(3, 17)
        with pytest.raises(ValueError):
            FeedPosition.parse("17")
        with pytest.raises(ValueError):
            FeedPosition.parse("a:b")


class TestReplicaByteIdentity:
    """A replica equals a restarted primary at the same position."""

    def test_deferred_appends_replicate_byte_identically(
        self, tmp_path, base_table, stream
    ):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:6])
        primary.append("live", stream[6:12])
        replica = _replica(tmp_path)
        applied = replica.sync()
        assert applied == {"live": 1}  # one bootstrap reset
        assert replica.state("live") == (1, 2)
        restarted = _reopen(tmp_path)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))

    def test_delta_merge_appends_replicate_byte_identically(
        self, tmp_path, base_table, stream
    ):
        primary = _open(tmp_path, base_table)
        primary.engine("live")
        primary.append("live", stream[:6])
        replica = _replica(tmp_path)
        replica.sync()
        # Incremental catch-up: new records flow through ReplayMachine.
        primary.append("live", stream[6:14])
        assert replica.sync() == {"live": 1}
        assert replica.state("live") == (1, 2)
        restarted = _reopen(tmp_path)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))

    def test_appends_after_a_local_query_drop_the_ephemeral_engine(
        self, tmp_path, base_table, stream
    ):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.sync()
        replica.handle(_request())  # builds a local (ephemeral) engine
        primary.append("live", stream[4:8])  # deferred on the primary
        replica.sync()
        # A primary restarted here lazily rebuilds over the full table;
        # the replica must answer with those exact bytes, not with the
        # pre-append engine plus a delta.
        restarted = _reopen(tmp_path)
        assert replica.state("live") == restarted.state("live") == (1, 2)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))

    def test_reset_after_reload_converges(self, tmp_path, base_table,
                                          stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.sync()
        primary.reload("live")
        primary.append("live", stream[4:8])
        replica.sync()
        assert replica.state("live") == (2, 1)
        stats = replica.ingest_stats()["replica"]["datasets"]["live"]
        assert stats["resets"] == 2  # bootstrap + generation change
        restarted = _reopen(tmp_path)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))


class TestReplicaReadOnly:
    def test_writes_are_refused_until_promote(self, tmp_path, base_table,
                                              stream):
        _open(tmp_path, base_table).append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.sync()
        for operation in (
            lambda: replica.append("live", stream[4:6]),
            lambda: replica.register("other", lambda: base_table),
            lambda: replica.reload("live"),
            lambda: replica.rebuild("live"),
        ):
            with pytest.raises(ReplicaReadOnlyError):
                operation()
        # Reads always work.
        assert replica.handle(_request()).dataset == "live"

    def test_promote_makes_the_replica_writable(self, tmp_path, base_table,
                                                stream):
        _open(tmp_path, base_table).append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.sync()
        assert replica.promoted is False
        replica.promote()
        replica.promote()  # idempotent
        assert replica.promoted is True
        result = replica.append("live", stream[4:8])
        assert (result.version, result.seq) == (1, 2)

    def test_auto_promote_when_the_primary_is_unreachable(self):
        class DeadSource:
            def dataset_names(self):
                raise ServiceError("primary unreachable")

            def poll(self, name, position, max_records):  # pragma: no cover
                raise ServiceError("primary unreachable")

            def close(self):
                pass

        replica = ReplicaWorkspace(DeadSource())
        replica.start_tailing(interval=0.01, promote_after=0.05)
        deadline = time.monotonic() + 10.0
        while not replica.promoted and time.monotonic() < deadline:
            time.sleep(0.01)
        assert replica.promoted is True
        replica.close()


class TestReplicaLagAndStats:
    def test_lag_counts_unapplied_records(self, tmp_path, base_table,
                                          stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.sync()
        assert replica.replica_lag() == {"live": 0}
        primary.append("live", stream[4:8])
        primary.append("live", stream[8:12])
        # The lag becomes visible on the next poll even when capped.
        replica._max_batch_records = 1
        replica.sync()
        assert replica.replica_lag() == {"live": 0}  # loop drains `more`
        stats = replica.ingest_stats()["replica"]
        assert stats["promoted"] is False
        assert stats["tailing"] is False
        live = stats["datasets"]["live"]
        assert (live["version"], live["seq"]) == (1, 3)
        assert live["primary_seq"] == 3
        assert live["lag_seq"] == 0
        assert live["applied_records"] == 2
        assert live["resets"] == 1
        assert live["last_error"] is None

    def test_background_tailer_catches_up(self, tmp_path, base_table,
                                          stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        replica = _replica(tmp_path)
        replica.start_tailing(interval=0.02)
        try:
            primary.append("live", stream[4:8])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if replica.replica_lag().get("live") == 0 and \
                        replica.ingest_stats()["replica"]["datasets"].get(
                            "live", {}).get("seq") == 2:
                    break
                time.sleep(0.02)
            assert replica.state("live") == (1, 2)
        finally:
            replica.close()


class FlakySource(LocalFeedSource):
    """A feed source whose transport dies after ``fail_after`` polls."""

    def __init__(self, data_dir: str, fail_after: int):
        super().__init__(data_dir)
        self.polls = 0
        self.fail_after = fail_after
        self.healed = False

    def poll(self, name, position, max_records):
        self.polls += 1
        if not self.healed and self.polls > self.fail_after:
            raise ServiceError("primary 127.0.0.1:0 is unreachable")
        return super().poll(name, position, max_records)


class TestReplicaFaultTolerance:
    def test_killed_stream_rejoins_from_its_cursor(self, tmp_path,
                                                   base_table, stream):
        primary = _open(tmp_path, base_table)
        primary.append("live", stream[:4])
        source = FlakySource(str(tmp_path), fail_after=1)
        replica = ReplicaWorkspace(source)
        replica.sync()  # poll 1: bootstrap reset lands
        assert replica.state("live") == (1, 1)
        primary.append("live", stream[4:8])
        replica.sync()  # transport down: the pass survives
        stats = replica.ingest_stats()["replica"]["datasets"]["live"]
        assert "unreachable" in stats["last_error"]
        assert replica.state("live") == (1, 1)  # nothing invented
        source.healed = True
        assert replica.sync() == {"live": 1}  # resumes incrementally
        stats = replica.ingest_stats()["replica"]["datasets"]["live"]
        assert stats["last_error"] is None
        assert stats["resets"] == 1  # the rejoin reused the cursor
        assert replica.state("live") == (1, 2)
        restarted = _reopen(tmp_path)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))


class TestFeedFaultInjection:
    """Damage the primary's journal tail at every byte offset.

    The feed reads with ``repair=False`` — it never mutates the
    primary's files — so a replica bootstrapped from a damaged journal
    must land on the last complete record, like restart recovery.
    """

    N_APPENDS = 3

    @pytest.fixture()
    def journal(self, tmp_path, base_table, stream):
        """A journal of three 2-row deferred appends, plus its tail span."""
        live = _open(tmp_path, base_table)
        for i in range(self.N_APPENDS):
            live.append("live", stream[2 * i: 2 * i + 2])
        live.close()
        (segment,) = sorted((tmp_path / "live").glob("journal-*.seg"))
        data = segment.read_bytes()
        spans = [(start, end) for _p, start, end in scan_records(data)]
        assert len(spans) == 1 + self.N_APPENDS
        return tmp_path, segment, data, spans

    def _replicated(self, tmp_path):
        replica = _replica(tmp_path)
        replica.sync()
        state = replica.state("live")
        n_rows = replica.table("live").n_rows
        replica.close()
        return state, n_rows

    def test_truncation_at_every_byte_offset_of_final_record(
        self, journal
    ):
        tmp_path, segment, data, spans = journal
        final_start, final_end = spans[-1]
        for cut in range(final_start, final_end):
            segment.write_bytes(data[:cut])
            state, n_rows = self._replicated(tmp_path)
            assert state == (1, self.N_APPENDS - 1), f"cut at byte {cut}"
            assert n_rows == BASE_ROWS + 2 * (self.N_APPENDS - 1)

    def test_corruption_at_every_byte_offset_of_final_record(
        self, journal
    ):
        tmp_path, segment, data, spans = journal
        final_start, final_end = spans[-1]
        for position in range(final_start, final_end):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x5A
            segment.write_bytes(bytes(corrupted))
            state, n_rows = self._replicated(tmp_path)
            assert state == (1, self.N_APPENDS - 1), f"flip at byte {position}"
            assert n_rows == BASE_ROWS + 2 * (self.N_APPENDS - 1)

    def test_damaged_tail_replica_matches_the_repaired_primary(
        self, journal, base_table
    ):
        tmp_path, segment, data, spans = journal
        segment.write_bytes(data[:-7])  # tear the final record
        replica = _replica(tmp_path)
        replica.sync()
        # The restarted primary (which repairs) and the replica (which
        # never writes) agree on state AND payload bytes.
        restarted = _reopen(tmp_path)
        assert replica.state("live") == restarted.state("live") == \
            (1, self.N_APPENDS - 1)
        assert _payload(replica.handle(_request())) == \
            _payload(restarted.handle(_request()))


class TestCursorFaultInjection:
    """Damage the journal *past* a replica's cursor.

    :class:`TestFeedFaultInjection` builds a fresh replica for every
    damaged journal, so it only exercises the bootstrap read.  Here the
    replica first syncs to ``1:1``, so its next ``sync()`` reads
    incrementally from that cursor — and must still land on the state
    and payload bytes of a primary restarted on the same directory.
    """

    N_APPENDS = 3

    @pytest.fixture()
    def journal(self, tmp_path, base_table, stream):
        """A directory at seq 1 and the segment bytes of three 2-row
        deferred appends."""
        first = tmp_path / "first"
        live = _open(first, base_table)
        live.append("live", stream[:2])
        live.close()
        full = tmp_path / "full"
        shutil.copytree(first, full)
        live = _reopen(full)
        for i in range(1, self.N_APPENDS):
            live.append("live", stream[2 * i: 2 * i + 2])
        live.close()
        (segment,) = sorted((full / "live").glob("journal-*.seg"))
        data = segment.read_bytes()
        spans = [(start, end) for _p, start, end in scan_records(data)]
        assert len(spans) == 1 + self.N_APPENDS
        return first, segment.name, data, spans

    @staticmethod
    def _replica_then_restart(journal, tmp_path, damaged: bytes,
                              label: str):
        """Sync a replica to ``1:1``, write ``damaged`` as the segment,
        sync again, and check it against a restart; returns the state."""
        first, segment_name, _data, _spans = journal
        directory = tmp_path / "case"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(first, directory)
        replica = _replica(directory)
        restarted = None
        try:
            replica.sync()
            assert replica.state("live") == (1, 1), label
            (directory / "live" / segment_name).write_bytes(damaged)
            replica.sync()
            restarted = _reopen(directory)
            state = replica.state("live")
            assert state == restarted.state("live"), label
            assert _payload(replica.handle(_request())) == \
                _payload(restarted.handle(_request())), label
        finally:
            replica.close()
            if restarted is not None:
                restarted.close()
        return state

    def test_truncation_at_every_byte_offset_of_final_record(
        self, journal, tmp_path
    ):
        _first, _name, data, spans = journal
        final_start, final_end = spans[-1]
        for cut in range(final_start, final_end):
            state = self._replica_then_restart(journal, tmp_path, data[:cut],
                                               f"cut at byte {cut}")
            assert state == (1, self.N_APPENDS - 1)

    def test_corruption_at_every_byte_offset_of_final_record(
        self, journal, tmp_path
    ):
        _first, _name, data, spans = journal
        final_start, final_end = spans[-1]
        for position in range(final_start, final_end):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x5A
            state = self._replica_then_restart(
                journal, tmp_path, bytes(corrupted),
                f"flip at byte {position}")
            assert state == (1, self.N_APPENDS - 1)

    def test_header_naming_another_generation(self, journal, tmp_path):
        """A CRC-valid header that names version 2 inside generation 1's
        segment makes the whole segment unusable, cursor or not."""
        _first, _name, data, spans = journal
        ((header, _start, end),) = scan_records(data[:spans[0][1]])
        foreign = encode_record({**header, "version": 2}) + data[end:]
        state = self._replica_then_restart(journal, tmp_path, foreign,
                                           "header names version 2")
        assert state == (1, 0)

    def test_lost_record_past_the_cursor(self, journal, tmp_path):
        """Seq 2 is missing, so seq 3 does not follow the cursor."""
        _first, _name, data, spans = journal
        gapped = data[:spans[2][0]] + data[spans[3][0]:]
        state = self._replica_then_restart(journal, tmp_path, gapped,
                                           "seq 2 lost")
        assert state == (1, 1)
