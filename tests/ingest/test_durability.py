"""Crash-recovery and fault-injection suite for the durable journal.

The contract under test (ISSUE 5): with a ``data_dir``, a restarted
workspace replays the on-disk write-ahead journal to the **exact**
``(version, seq)`` identity and query payloads an uninterrupted process
would serve — and a torn or corrupted journal tail, at *any* byte
offset of the final record, recovers to the last complete record:
never an exception, never invented data.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig, Foresight
from repro.core.neighborhood import NeighborhoodConfig
from repro.data.datasets import make_mixed_table
from repro.errors import IngestError, ServiceError
from repro.ingest import IngestConfig
from repro.ingest.durable import (
    DatasetJournal,
    engine_config_from_payload,
    engine_config_to_payload,
    replay_state,
    scan_records,
)
from repro.service import InsightRequest, Workspace
from repro.sketch.store import SketchStoreConfig

#: Shared, deterministic base table + append stream for every scenario.
BASE_SEED, STREAM_SEED = 11, 12
BASE_ROWS = 80


def _base_table():
    return make_mixed_table(n_rows=BASE_ROWS, n_numeric=3, n_categorical=2,
                            seed=BASE_SEED)


@pytest.fixture(scope="module")
def base_table():
    return _base_table()


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
    # Registering over journal-restored state adopts it (the loader only
    # serves future reloads), so restart code is identical to cold-start
    # code — exactly how a production process would boot.
    workspace.register("live", lambda: base)
    return workspace


def _segment_paths(data_dir) -> list[Path]:
    return sorted(Path(data_dir, "live").glob("journal-*.seg"))


class TestRestartReplay:
    def test_restart_after_delta_merges_is_byte_identical(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:12])
        live.append("live", stream[12:20])
        live_response = live.handle(_request())
        # An uninterrupted (never-persisted) twin is the ground truth.
        twin = _open(None, base_table)
        twin.engine("live")
        twin.append("live", stream[:12])
        twin.append("live", stream[12:20])
        assert _payload(live_response) == _payload(twin.handle(_request()))

        # "Crash": the workspace is abandoned mid-flight, never closed.
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == live.state("live") == (1, 2)
        assert _payload(restarted.handle(_request())) == _payload(live_response)

    def test_restart_with_deferred_appends_only(self, tmp_path, base_table,
                                                stream):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:10])   # no engine yet: deferred
        assert live.state("live") == (1, 1)
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 1)
        assert restarted.table("live").n_rows == BASE_ROWS + 10
        assert _payload(restarted.handle(_request())) == _payload(
            live.handle(_request())
        )

    def test_cold_build_marker_freezes_the_deferred_rows(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:10])   # deferred
        live.engine("live")                # cold build over base + 10
        live.append("live", stream[10:18])  # delta merge on top
        reference = _payload(live.handle(_request()))
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 2)
        assert _payload(restarted.handle(_request())) == reference

    def test_background_swap_record_replays(self, tmp_path, base_table,
                                            stream):
        live = _open(tmp_path, base_table, rebuild_fraction=0.1)
        live.engine("live")
        result = live.append("live", stream[:12])  # beyond budget -> bg
        assert result.applied == "delta_merge"
        assert live.wait_for_rebuilds(timeout=30)
        assert live.state("live") == (1, 2)  # the swap minted seq 2
        reference = _payload(live.handle(_request()))
        live.close()

        restarted = _open(tmp_path, base_table, rebuild_fraction=0.1)
        assert restarted.state("live") == (1, 2)
        assert _payload(restarted.handle(_request())) == reference

    def test_restart_continues_seq_and_version_counters(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])
        restarted = _open(tmp_path, base_table)
        appended = restarted.append("live", stream[5:10])
        assert (appended.version, appended.seq) == (1, 2)
        assert restarted.reload("live") == 2  # versions never repeat
        assert restarted.state("live") == (2, 0)

    def test_inline_table_registration_survives_restart(self, tmp_path,
                                                        base_table, stream):
        live = Workspace(data_dir=str(tmp_path))
        live.register("inline", base_table)
        live.append("inline", stream[:6])
        identity = live.state("inline")
        request = InsightRequest(dataset="inline", insight_classes=("skew",),
                                 top_k=3)
        reference = _payload(live.handle(request))

        # No register call at all: the snapshot is self-contained.
        restarted = Workspace(data_dir=str(tmp_path))
        assert "inline" in restarted
        assert restarted.state("inline") == identity
        assert _payload(restarted.handle(request)) == reference

    def test_concrete_table_cannot_silently_discard_journalled_state(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])
        restarted = Workspace(data_dir=str(tmp_path))
        with pytest.raises(Exception, match="replace=True"):
            restarted.register("live", base_table)
        # The state survives the refusal and replays once a loader (or an
        # explicit replace) arrives.
        restarted.register("live", lambda: base_table)
        assert restarted.state("live") == (1, 1)

    def test_flush_reports_durability(self, tmp_path, base_table, stream):
        durable = _open(tmp_path, base_table, fsync=False)
        durable.append("live", stream[:3])
        flushed = durable.flush("live")
        assert flushed == {"dataset": "live", "version": 1, "seq": 1,
                           "durable": True}
        transient = _open(None, base_table)
        assert transient.flush("live")["durable"] is False

    def test_an_unknown_applied_value_is_refused(self, tmp_path, base_table,
                                                 stream):
        """A CRC-valid append record whose ``applied`` this build does
        not know — a journal from another version — fails the restart
        and the replay loudly, naming the dataset, the seq and the
        value; it never replays as a deferred append."""
        live = Workspace(data_dir=str(tmp_path))
        live.register("live", base_table)  # table-backed: self-contained
        live.append("live", stream[:3])
        live.close()
        journal = DatasetJournal(str(tmp_path), fsync=False)
        journal.append("live", {
            "type": "append", "seq": 2, "applied": "bogus", "n_rows": 1,
            "total_rows": BASE_ROWS + 4, "rows": stream[3:4], "ts": 0.0,
        })
        journal.close()
        refusal = r"'live'.* seq 2 .*applied='bogus'"
        with pytest.raises(IngestError, match=refusal):
            Workspace(data_dir=str(tmp_path))
        state = DatasetJournal(str(tmp_path), fsync=False).load("live")
        assert [record["seq"] for record in state.records] == [1, 2]
        with pytest.raises(IngestError, match=refusal):
            replay_state("live", state, None, Foresight)


class TestFaultInjection:
    """Damage the journal tail at every byte offset; recovery must hold."""

    N_APPENDS = 3

    @pytest.fixture()
    def journal(self, tmp_path, base_table, stream):
        """A journal of three 2-row deferred appends, plus its tail span."""
        live = _open(tmp_path, base_table)
        for i in range(self.N_APPENDS):
            live.append("live", stream[2 * i: 2 * i + 2])
        live.close()
        (segment,) = _segment_paths(tmp_path)
        data = segment.read_bytes()
        spans = [(start, end) for _p, start, end in scan_records(data)]
        # generation header + one record per append
        assert len(spans) == 1 + self.N_APPENDS
        return tmp_path, segment, data, spans

    def _recovered(self, tmp_path, base_table):
        restarted = _open(tmp_path, base_table)
        return restarted.state("live"), restarted.table("live").n_rows

    def test_truncation_at_every_byte_offset_of_final_record(
        self, journal, base_table
    ):
        tmp_path, segment, data, spans = journal
        final_start, final_end = spans[-1]
        for cut in range(final_start, final_end):
            segment.write_bytes(data[:cut])
            state, n_rows = self._recovered(tmp_path, base_table)
            assert state == (1, self.N_APPENDS - 1), f"cut at byte {cut}"
            assert n_rows == BASE_ROWS + 2 * (self.N_APPENDS - 1)

    def test_corruption_at_every_byte_offset_of_final_record(
        self, journal, base_table
    ):
        tmp_path, segment, data, spans = journal
        final_start, final_end = spans[-1]
        for position in range(final_start, final_end):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x5A
            segment.write_bytes(bytes(corrupted))
            state, n_rows = self._recovered(tmp_path, base_table)
            assert state == (1, self.N_APPENDS - 1), f"flip at byte {position}"
            assert n_rows == BASE_ROWS + 2 * (self.N_APPENDS - 1)

    def test_mid_journal_corruption_recovers_to_last_complete_record(
        self, journal, base_table
    ):
        tmp_path, segment, data, spans = journal
        second_start, second_end = spans[2]  # header, append#1, append#2, ...
        corrupted = bytearray(data)
        corrupted[(second_start + second_end) // 2] ^= 0xFF
        segment.write_bytes(bytes(corrupted))
        # Everything after the damage is unusable — recovery stops at the
        # last complete record before it, inventing nothing.
        state, n_rows = self._recovered(tmp_path, base_table)
        assert state == (1, 1)
        assert n_rows == BASE_ROWS + 2

    def test_unreadable_generation_header_starts_fresh(self, journal,
                                                       base_table):
        tmp_path, segment, data, spans = journal
        corrupted = bytearray(data)
        corrupted[spans[0][0]] ^= 0xFF  # destroy the header record
        segment.write_bytes(bytes(corrupted))
        state, n_rows = self._recovered(tmp_path, base_table)
        # Nothing of the generation is trustworthy: recover to the base.
        assert state == (1, 0)
        assert n_rows == BASE_ROWS

    def test_tail_recovery_preserves_query_payload_bytes(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:8])
        reference = _payload(live.handle(_request()))  # state at seq 1
        live.append("live", stream[8:16])
        live.close()
        (segment,) = _segment_paths(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # tear the final record
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 1)
        assert _payload(restarted.handle(_request())) == reference

    def test_repair_makes_the_journal_appendable_again(self, journal,
                                                       base_table, stream):
        tmp_path, segment, data, spans = journal
        segment.write_bytes(data[:-5])
        restarted = _open(tmp_path, base_table)
        appended = restarted.append("live", stream[20:24])
        assert (appended.version, appended.seq) == (1, self.N_APPENDS)
        # And the repaired + extended journal replays cleanly once more.
        again = _open(tmp_path, base_table)
        assert again.state("live") == (1, self.N_APPENDS)

    def test_failed_append_rolls_its_torn_bytes_back(self, tmp_path,
                                                     base_table, stream,
                                                     monkeypatch, caplog):
        """A failed commit must not leave garbage mid-segment.

        If it did, the *next* successful (acknowledged, fsynced) append
        would land after the garbage — and replay, which stops at the
        first damaged record, would silently drop it.
        """
        import repro.ingest.durable as durable

        live = _open(tmp_path, base_table)
        live.append("live", stream[:3])
        real_fsync = os.fsync
        blown = []

        def failing_fsync(fd):
            if not blown:
                blown.append(True)
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(durable.os, "fsync", failing_fsync)
        with caplog.at_level(logging.INFO, logger="repro.obs.events"):
            with pytest.raises(OSError):
                live.append("live", stream[3:6])
        events = [json.loads(record.getMessage()) for record in caplog.records
                  if record.name == "repro.obs.events"]
        assert [event["event"] for event in events] == ["fsync_failure"]
        assert events[0]["dataset"] == "live"
        assert "No space left on device" in events[0]["error"]
        assert live.state("live") == (1, 1)  # the failed append never landed
        appended = live.append("live", stream[6:9])
        assert (appended.version, appended.seq) == (1, 2)
        monkeypatch.undo()
        live.close()
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 2)
        assert restarted.table("live").n_rows == BASE_ROWS + 6

    def test_orphaned_snapshot_stays_appendable(self, tmp_path, base_table,
                                                stream):
        """Crash between snapshot rename and segment creation: repairable.

        Recovery must recreate the generation segment so the restored
        dataset accepts appends — not serve reads while rejecting every
        write forever.
        """
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:12])
        assert live.rebuild("live")["seq"] == 2  # swap -> snapshot
        live.close()
        for segment in _segment_paths(tmp_path):
            segment.unlink()  # the crash ate the compaction segment
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 2)
        appended = restarted.append("live", stream[12:15])
        assert (appended.version, appended.seq) == (1, 3)
        again = _open(tmp_path, base_table)
        assert again.state("live") == (1, 3)


class TestGenerationRotation:
    """Reload / re-registration must rotate the journal before swapping."""

    def test_reload_rotates_segments_on_disk(self, tmp_path, base_table,
                                             stream):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])
        assert len(_segment_paths(tmp_path)) == 1
        live.reload("live")
        (segment,) = _segment_paths(tmp_path)
        assert segment.name.startswith("journal-00000002-")
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (2, 0)

    def test_stale_generation_deltas_never_replay_onto_the_new_version(
        self, tmp_path, base_table, stream
    ):
        """Regression: crash between generation swap and old-segment cleanup.

        Recovery must pick the newest generation and ignore the stale
        one's deltas entirely — replaying them onto the new version was
        the failure mode the rotate-before-swap ordering exists to
        prevent.
        """
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])
        (old_segment,) = _segment_paths(tmp_path)
        stale = old_segment.read_bytes()
        live.reload("live")
        # Simulate the crash window: the old generation's segment (with
        # its journalled deltas) is still on disk next to the new one.
        old_segment.write_bytes(stale)
        assert len(_segment_paths(tmp_path)) == 2
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (2, 0)
        assert restarted.table("live").n_rows == BASE_ROWS  # no stale rows

    def test_crashed_inline_reload_never_loses_the_only_copy(
        self, tmp_path, base_table, stream
    ):
        """Regression: rotating an inline-table generation must not destroy
        the old generation's snapshot before the new one is durable.

        Snapshots are per-generation files; a crash after the new
        version's snapshot is written but before its segment exists must
        recover the OLD generation intact (the reload was never
        acknowledged) — not delete both copies.
        """
        import shutil

        live = Workspace(data_dir=str(tmp_path))
        live.register("inline", base_table)
        live.append("inline", stream[:5])
        live.close()
        before = {p.name: p.read_bytes()
                  for p in (tmp_path / "inline").iterdir()}

        other = Workspace(data_dir=str(tmp_path))
        assert other.reload("inline") == 2
        new_snapshot = (tmp_path / "inline" / "snapshot-00000002.bin"
                        ).read_bytes()
        other.close()

        # Reconstruct the crash window: v1 fully intact, the v2 snapshot
        # landed, the v2 segment never did.
        shutil.rmtree(tmp_path / "inline")
        (tmp_path / "inline").mkdir()
        for name, data in before.items():
            (tmp_path / "inline" / name).write_bytes(data)
        (tmp_path / "inline" / "snapshot-00000002.bin").write_bytes(
            new_snapshot)

        restarted = Workspace(data_dir=str(tmp_path))
        assert restarted.state("inline") == (1, 1)  # old generation intact
        assert restarted.table("inline").n_rows == BASE_ROWS + 5
        # And the dataset still accepts appends after the repair.
        appended = restarted.append("inline", stream[5:8])
        assert (appended.version, appended.seq) == (1, 2)

    def test_replace_registration_rotates_too(self, tmp_path, base_table,
                                              stream):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])
        live.register("live", base_table, replace=True)
        assert live.state("live") == (2, 0)
        restarted = Workspace(data_dir=str(tmp_path))
        assert restarted.state("live") == (2, 0)
        assert restarted.table("live").n_rows == BASE_ROWS


class TestKillAndRestart:
    """The acceptance e2e: a SIGKILL-equivalent death, then recovery."""

    CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[2])
from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig
from repro.service import InsightRequest, Workspace

base = make_mixed_table(n_rows={base_rows}, n_numeric=3, n_categorical=2,
                        seed={base_seed})
stream = make_mixed_table(n_rows=30, n_numeric=3, n_categorical=2,
                          seed={stream_seed}).to_records()
workspace = Workspace(data_dir=sys.argv[1],
                      ingest=IngestConfig(rebuild_fraction=float("inf")))
workspace.register("live", lambda: base)
workspace.engine("live")
workspace.append("live", stream[:9])
workspace.append("live", stream[9:17])
response = workspace.handle(InsightRequest(
    dataset="live", insight_classes=("skew", "outliers"), top_k=3))
body = response.to_dict()
body.pop("timing")
print(json.dumps({{
    "state": list(workspace.state("live")),
    "payload": json.dumps(body, sort_keys=True, separators=(",", ":")),
}}))
sys.stdout.flush()
os._exit(17)  # die without any cleanup: no close(), no atexit
"""

    def test_kill_and_restart_is_byte_identical(self, tmp_path, base_table,
                                                stream):
        src = str(Path(__file__).resolve().parents[2] / "src")
        child = self.CHILD.format(base_rows=BASE_ROWS, base_seed=BASE_SEED,
                                  stream_seed=STREAM_SEED)
        result = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path), src],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        assert result.returncode == 17, result.stderr
        reported = json.loads(result.stdout.strip().splitlines()[-1])

        # The uninterrupted twin, run entirely in this process.
        twin = _open(None, base_table)
        twin.engine("live")
        twin.append("live", stream[:9])
        twin.append("live", stream[9:17])
        twin_payload = _payload(twin.handle(_request()))
        assert reported["state"] == [1, 2]
        assert reported["payload"] == twin_payload

        # Restart over the dead process's data_dir.
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 2)
        assert _payload(restarted.handle(_request())) == twin_payload


class TestEngineConfigPersistence:
    """A custom engine config must restore with the snapshot.

    Sketch seeds, capacities and mode all change what a query returns;
    a restored dataset rebuilt under the workspace default would
    silently serve different results than the uninterrupted process.
    """

    def test_config_roundtrips_through_its_payload(self):
        config = EngineConfig(
            default_top_k=4,
            sketch=SketchStoreConfig(seed=7, frequent_capacity=64),
            neighborhood=NeighborhoodConfig(candidate_pool=10),
            max_candidates_triples=1234,
        )
        # Through real JSON text, exactly like the snapshot file.
        payload = json.loads(json.dumps(engine_config_to_payload(config)))
        restored = engine_config_from_payload(payload)
        assert restored.mode == config.mode
        assert restored.default_top_k == 4
        assert restored.max_candidates_triples == 1234
        assert restored.sketch == config.sketch
        assert restored.neighborhood == config.neighborhood

    def test_unknown_payload_keys_are_ignored(self):
        payload = engine_config_to_payload(EngineConfig())
        payload["future_knob"] = True
        payload["sketch"]["future_sketch_knob"] = 3
        restored = engine_config_from_payload(payload)
        assert restored.sketch == EngineConfig().sketch

    def test_a_snapshot_naming_the_dropped_sketch_knobs_still_restores(
        self, tmp_path, base_table, stream
    ):
        """Snapshots written while the store still built entropy and
        Count-Min sketches carry their three knobs; they restore, and
        answer as a fresh registration of the same rows does."""
        from repro.ingest.durable import snapshot_filename
        from repro.ingest.snapshot_codec import decode_snapshot, encode_snapshot

        config = EngineConfig(sketch=SketchStoreConfig(seed=7))
        live = Workspace(data_dir=str(tmp_path),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", base_table, engine_config=config)
        live.engine("live")
        live.append("live", stream[:10])
        live.rebuild("live")  # compaction: the snapshot holds every row
        live.close()
        path = tmp_path / "live" / snapshot_filename(1)
        meta, table = decode_snapshot(path.read_bytes())
        meta["engine_config"]["sketch"].update(
            entropy_capacity=256, countmin_width=256, countmin_depth=4)
        path.write_bytes(encode_snapshot(meta, table))

        def answers(workspace) -> str:
            body = workspace.handle(_request()).to_dict()
            return json.dumps(body["carousels"], sort_keys=True,
                              separators=(",", ":"))

        restored = Workspace(data_dir=str(tmp_path),
                             ingest=IngestConfig(rebuild_fraction=float("inf")))
        fresh = Workspace()
        try:
            assert restored.engine("live").config.sketch == config.sketch
            assert restored.state("live")[1] == 2  # the append and the swap
            fresh.register("live", restored.table("live"),
                           engine_config=config)
            assert answers(restored) == answers(fresh)
        finally:
            restored.close()
            fresh.close()

    def test_custom_config_survives_restart_without_reregistration(
        self, tmp_path, base_table, stream
    ):
        config = EngineConfig(
            default_top_k=4,
            sketch=SketchStoreConfig(seed=7, frequent_capacity=64),
        )
        live = Workspace(data_dir=str(tmp_path),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", base_table, engine_config=config)
        live.engine("live")
        live.append("live", stream[:10])
        reference = _payload(live.handle(_request()))
        live.close()

        # No register() at all: snapshot-backed datasets materialise on
        # first use, and must do so under the persisted config.
        restored = Workspace(data_dir=str(tmp_path),
                             ingest=IngestConfig(rebuild_fraction=float("inf")))
        engine = restored.engine("live")
        assert engine.config.sketch.seed == 7
        assert engine.config.sketch.frequent_capacity == 64
        assert engine.config.default_top_k == 4
        assert _payload(restored.handle(_request())) == reference
        restored.close()

    def test_header_config_survives_crash_before_first_snapshot(
        self, tmp_path, base_table, stream
    ):
        """Loader-backed journals have no snapshot until a rebuild: the
        generation header is the custom config's only durable copy, and
        replaying the journalled delta merges under the workspace
        default instead would silently change query results."""
        config = EngineConfig(sketch=SketchStoreConfig(seed=7))
        live = Workspace(data_dir=str(tmp_path),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", lambda: base_table, engine_config=config)
        live.engine("live")
        live.append("live", stream[:10])
        reference = _payload(live.handle(_request()))
        live.close()
        # No snapshot was ever written — the scenario under test.
        assert not list(Path(tmp_path, "live").glob("snapshot-*"))

        restored = Workspace(data_dir=str(tmp_path),
                             ingest=IngestConfig(rebuild_fraction=float("inf")))
        restored.register("live", lambda: base_table)  # config omitted
        engine = restored.engine("live")
        assert engine.config.sketch.seed == 7
        assert _payload(restored.handle(_request())) == reference
        restored.close()


class TestRegistrationJournalRace:
    def test_append_racing_a_fresh_registration_waits_for_the_segment(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """The generation segment is created under the entry lock before
        the entry is usable: an append racing a loader-backed
        registration blocks until the segment exists instead of failing
        with "no journal segment"."""
        workspace = Workspace(
            data_dir=str(tmp_path),
            ingest=IngestConfig(rebuild_fraction=float("inf")))
        real_begin = DatasetJournal.begin_generation
        rotation_started = threading.Event()
        release_rotation = threading.Event()

        def stalled_begin(journal, name, version, **kwargs):
            rotation_started.set()
            assert release_rotation.wait(timeout=30)
            return real_begin(journal, name, version, **kwargs)

        monkeypatch.setattr(DatasetJournal, "begin_generation", stalled_begin)
        register_thread = threading.Thread(
            target=lambda: workspace.register("live", lambda: base_table))
        register_thread.start()
        assert rotation_started.wait(timeout=30)

        results: list = []
        errors: list[Exception] = []

        def append():
            try:
                results.append(workspace.append("live", stream[:3]))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        append_thread = threading.Thread(target=append)
        append_thread.start()
        # The entry is already visible, but its segment isn't durable
        # yet: the append must wait on the registration, not race past
        # it (the old code raised IngestError here).
        append_thread.join(timeout=0.3)
        assert append_thread.is_alive(), errors
        release_rotation.set()
        register_thread.join(timeout=30)
        append_thread.join(timeout=30)

        assert errors == []
        assert results and (results[0].version, results[0].seq) == (1, 1)
        workspace.close()


class TestRecoveryHardening:
    """Failure paths that must never reuse identities or wedge a dataset."""

    def test_corrupt_snapshot_never_reuses_identities(self, tmp_path,
                                                      base_table, stream):
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:10])
        assert live.rebuild("live")["seq"] == 2  # writes the snapshot
        live.close()
        snapshot = next(Path(tmp_path, "live").glob("snapshot-*.bin"))
        data = bytearray(snapshot.read_bytes())
        data[len(data) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(data))

        # The compacted rows are unrecoverable; what recovery must NOT
        # do is restart generation 1 at seq 0 and hand out (1, ...)
        # identities again for different data.
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (2, 0)
        appended = restarted.append("live", stream[:3])
        assert (appended.version, appended.seq) == (2, 1)
        restarted.close()

    def test_closed_workspace_refuses_writes(self, tmp_path, base_table,
                                             stream):
        live = _open(tmp_path, base_table)
        live.append("live", stream[:3])
        live.close()
        with pytest.raises(ServiceError):
            live.append("live", stream[3:6])
        with pytest.raises(ServiceError):
            live.reload("live")
        with pytest.raises(ServiceError):
            live.register("other", lambda: base_table)
        assert live.rebuild("live") is None
        # The refused writes resurrected no journal handle.
        assert live._journal._handles == {}

    def test_failed_generation_write_unregisters_the_name(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        workspace = Workspace(data_dir=str(tmp_path))
        real_begin = DatasetJournal.begin_generation
        calls = {"n": 0}

        def failing_begin(journal, name, version, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise OSError("disk full")
            return real_begin(journal, name, version, **kwargs)

        monkeypatch.setattr(DatasetJournal, "begin_generation", failing_begin)
        with pytest.raises(OSError):
            workspace.register("live", lambda: base_table)
        # The failed registration left nothing behind: the name is free
        # and immediately functional on retry.
        assert "live" not in workspace
        workspace.register("live", lambda: base_table)
        appended = workspace.append("live", stream[:3])
        assert (appended.version, appended.seq) == (2, 1)
        workspace.close()

    def test_failed_replace_keeps_the_old_dataset_serving(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """A failed replace rolls back to the previous entry: the old
        generation — in memory and on disk — is untouched, so the
        dataset must keep serving and appending under its old identity
        rather than vanish."""
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:5])
        reference = _payload(live.handle(_request()))

        real_begin = DatasetJournal.begin_generation
        fail = {"armed": True}

        def failing_begin(journal, name, version, **kwargs):
            if fail["armed"]:
                fail["armed"] = False
                raise OSError("disk full")
            return real_begin(journal, name, version, **kwargs)

        monkeypatch.setattr(DatasetJournal, "begin_generation", failing_begin)
        with pytest.raises(OSError):
            live.register("live", lambda: _base_table(), replace=True)

        # The old entry is back: same identity, same payloads (still
        # cache-served — the rollback rightly invalidates nothing), and
        # the journal still appends into the old generation.
        assert live.state("live") == (1, 1)
        after = live.handle(_request())
        assert after.provenance["cache"] == "hit"
        after.provenance = {**after.provenance, "cache": "miss"}
        assert _payload(after) == reference
        appended = live.append("live", stream[5:8])
        assert (appended.version, appended.seq) == (1, 2)
        live.close()
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 2)
        restarted.close()

    def test_direct_rebuild_racing_close_discards_itself(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """close() waits only on the maintenance pool and entry locks —
        a direct rebuild() call mid-off-lock-build escapes both, so its
        swap section must notice the closed workspace and discard
        instead of journalling into a closed journal."""
        import repro.service.workspace as workspace_module

        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:5])

        real_foresight = workspace_module.Foresight
        build_started = threading.Event()
        release_build = threading.Event()

        def stalled_foresight(*args, **kwargs):
            build_started.set()
            assert release_build.wait(timeout=30)
            return real_foresight(*args, **kwargs)

        monkeypatch.setattr(workspace_module, "Foresight", stalled_foresight)
        outcomes: list[dict | None] = []
        worker = threading.Thread(
            target=lambda: outcomes.append(live.rebuild("live")))
        worker.start()
        assert build_started.wait(timeout=30)
        live.close()  # flushes and closes the journal under the rebuild
        monkeypatch.setattr(workspace_module, "Foresight", real_foresight)
        release_build.set()
        worker.join(timeout=30)
        assert not worker.is_alive()

        assert outcomes == [None]  # discarded, nothing journalled
        assert live._journal._handles == {}  # no handle resurrected

    def test_header_config_adopted_when_no_appends_were_journalled(
        self, tmp_path, base_table, stream
    ):
        """Header-only journals (fresh generation, zero appends) carry
        the custom config too: re-registering without one after a
        restart must not fall back to the workspace default."""
        config = EngineConfig(sketch=SketchStoreConfig(seed=7))
        live = Workspace(data_dir=str(tmp_path),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", lambda: base_table, engine_config=config)
        live.close()  # crash-equivalent: nothing but the header on disk

        restored = Workspace(data_dir=str(tmp_path),
                             ingest=IngestConfig(rebuild_fraction=float("inf")))
        restored.register("live", lambda: base_table)  # config omitted
        assert restored.engine("live").config.sketch.seed == 7
        # And appends journalled now replay under that config later.
        restored.append("live", stream[:5])
        reference = _payload(restored.handle(_request()))
        restored.close()
        second = Workspace(data_dir=str(tmp_path),
                           ingest=IngestConfig(rebuild_fraction=float("inf")))
        second.register("live", lambda: base_table)
        assert _payload(second.handle(_request())) == reference
        second.close()

    def test_failed_replace_restores_pending_recovery_state(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """A failed replace of a recovered-but-unregistered dataset must
        re-stash its pending journal state: the rows on disk are intact,
        so a retried loader registration still replays them."""
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:5])  # journalled, then "crash"

        recovered = Workspace(data_dir=str(tmp_path),
                              ingest=IngestConfig(
                                  rebuild_fraction=float("inf")))
        real_begin = DatasetJournal.begin_generation
        fail = {"armed": True}

        def failing_begin(journal, name, version, **kwargs):
            if fail["armed"]:
                fail["armed"] = False
                raise OSError("disk full")
            return real_begin(journal, name, version, **kwargs)

        monkeypatch.setattr(DatasetJournal, "begin_generation", failing_begin)
        with pytest.raises(OSError):
            recovered.register("live", _base_table(), replace=True)

        # The journalled generation still replays on a loader retry —
        # and a concrete table still requires explicit consent.
        with pytest.raises(ServiceError, match="journalled state"):
            recovered.register("live", _base_table())
        recovered.register("live", lambda: base_table)
        assert recovered.state("live") == (1, 1)
        assert recovered.table("live").n_rows == BASE_ROWS + 5
        recovered.close()

    def test_register_racing_close_is_refused(self, tmp_path, base_table,
                                              monkeypatch):
        """close() landing between register()'s entry check and its
        insert must refuse the registration — not let it publish an
        entry and reopen journal handles after the shutdown flush."""
        workspace = Workspace(data_dir=str(tmp_path))
        real_check = Workspace._check_open
        armed = {"v": True}

        def racing_check(self):
            real_check(self)
            if armed["v"]:
                # Deterministically emulate the preemption: close()
                # completes right after the entry check passes.
                armed["v"] = False
                self.close()

        monkeypatch.setattr(Workspace, "_check_open", racing_check)
        with pytest.raises(ServiceError):
            workspace.register("late", lambda: base_table)
        assert "late" not in workspace
        assert workspace._journal._handles == {}

    def test_replace_racing_close_is_refused(self, tmp_path, base_table,
                                             monkeypatch):
        """The replace variant: close() landing right after register()'s
        first check refuses the replace, starts no generation, and the
        old dataset stays current and lockable — a reader completes."""
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("live", base_table)
        real_check = Workspace._check_open
        armed = {"v": True}

        def racing_check(self):
            real_check(self)
            if armed["v"]:
                armed["v"] = False
                self.close()

        monkeypatch.setattr(Workspace, "_check_open", racing_check)
        with pytest.raises(ServiceError, match="closed"):
            workspace.register("live", _base_table(), replace=True)
        assert workspace._journal._handles == {}
        result: list[tuple] = []
        reader = threading.Thread(
            target=lambda: result.append((workspace.state("live"),
                                          workspace.table("live").n_rows)),
            daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert result == [((1, 0), BASE_ROWS)]

    def test_failed_table_reload_keeps_memory_behind_disk(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """A table-backed reload whose snapshot write fails changes
        nothing: the old generation keeps taking appends, and a restart
        holds every acknowledged one."""
        live = Workspace(data_dir=str(tmp_path),
                         ingest=IngestConfig(rebuild_fraction=float("inf")))
        live.register("live", base_table)
        live.append("live", stream[:5])
        assert live.state("live") == (1, 1)

        def full_disk(journal, name, meta, table):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(DatasetJournal, "write_snapshot", full_disk)
            with pytest.raises(OSError, match="No space left"):
                live.reload("live")
        assert live.state("live") == (1, 1)
        appended = live.append("live", stream[5:8])
        assert (appended.version, appended.seq) == (1, 2)
        assert live.table("live").n_rows == BASE_ROWS + 8
        live.close()

        restarted = Workspace(data_dir=str(tmp_path))
        assert restarted.state("live") == (1, 2)
        assert restarted.table("live").n_rows == BASE_ROWS + 8
        restarted.close()

    def test_failed_reload_keeps_a_pending_replay(
        self, tmp_path, base_table, stream, monkeypatch
    ):
        """A loader dataset restored but not yet replayed keeps its
        deferred journal replay when a reload fails: live and restart
        hold the same rows at the same identity."""
        live = _open(tmp_path, base_table)
        live.append("live", stream[:5])  # journalled, then "crash"
        recovered = _open(tmp_path, base_table)
        assert recovered.state("live") == (1, 1)

        def full_disk(journal, name, version, **kwargs):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(DatasetJournal, "begin_generation", full_disk)
            with pytest.raises(OSError, match="No space left"):
                recovered.reload("live")
        assert recovered.state("live") == (1, 1)
        assert recovered.table("live").n_rows == BASE_ROWS + 5
        recovered.close()
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, 1)
        assert restarted.table("live").n_rows == BASE_ROWS + 5
        restarted.close()


class TestConcurrentAppends:
    """Many threads appending to one dataset serialise on its entry lock.

    Every acknowledged append must be on stable storage, sequence
    numbers must stay dense and per-thread monotone, and a flush racing
    the appenders must neither deadlock nor drop records.
    """

    N_THREADS = 6
    PER_THREAD = 8

    def _hammer(self, workspace, stream):
        """N threads × 1-row appends; returns per-thread acked seqs."""
        rows = (stream * 2)[: self.N_THREADS * self.PER_THREAD]
        acked: list[list[int]] = [[] for _ in range(self.N_THREADS)]
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_THREADS)

        def appender(index):
            mine = rows[index * self.PER_THREAD:(index + 1) * self.PER_THREAD]
            barrier.wait()
            try:
                for row in mine:
                    acked[index].append(
                        workspace.append("live", [row]).seq)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=appender, args=(i,))
                   for i in range(self.N_THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        return acked

    def test_concurrent_appends_stay_gap_free_and_monotone(
        self, tmp_path, base_table, stream
    ):
        live = _open(tmp_path, base_table)
        acked = self._hammer(live, stream)
        total = self.N_THREADS * self.PER_THREAD
        # Each thread saw its own seqs strictly increase, and together
        # they are exactly 1..N: no gap, no duplicate, no invention.
        for seqs in acked:
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
        assert sorted(seq for seqs in acked for seq in seqs) == list(
            range(1, total + 1))
        assert live.state("live") == (1, total)
        live.close()

        # Every acknowledged append replays: identical identity and rows.
        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, total)
        assert restarted.table("live").n_rows == BASE_ROWS + total
        restarted.close()

    def test_flush_racing_appends_keeps_its_contract_without_deadlock(
        self, tmp_path, base_table, stream
    ):
        """flush() looping beside the appenders must not deadlock, and
        every reply must keep the exact response contract."""
        live = _open(tmp_path, base_table)
        stop = threading.Event()
        flushes: list[dict] = []
        flush_errors: list[Exception] = []

        def flusher():
            try:
                while not stop.is_set():
                    flushes.append(live.flush("live"))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                flush_errors.append(exc)

        worker = threading.Thread(target=flusher)
        worker.start()
        try:
            acked = self._hammer(live, stream)
        finally:
            stop.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert flush_errors == []
        total = self.N_THREADS * self.PER_THREAD
        assert sorted(seq for seqs in acked for seq in seqs) == list(
            range(1, total + 1))
        for flush in flushes:
            assert set(flush) == {"dataset", "version", "seq", "durable"}
            assert flush["durable"] is True
        # The final barrier observes everything.
        assert live.flush("live")["seq"] == total
        live.close()

        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, total)
        restarted.close()

    CHILD = """
import json, os, sys, threading
sys.path.insert(0, sys.argv[2])
from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig
from repro.service import Workspace

base = make_mixed_table(n_rows={base_rows}, n_numeric=3, n_categorical=2,
                        seed={base_seed})
stream = make_mixed_table(n_rows=30, n_numeric=3, n_categorical=2,
                          seed={stream_seed}).to_records()
workspace = Workspace(
    data_dir=sys.argv[1],
    ingest=IngestConfig(rebuild_fraction=float("inf")))
workspace.register("live", lambda: base)
N, PER = 4, 6
rows = (stream * 2)[: N * PER]
acked = [[] for _ in range(N)]
barrier = threading.Barrier(N)
def appender(index):
    mine = rows[index * PER:(index + 1) * PER]
    barrier.wait()
    for row in mine:
        acked[index].append(workspace.append("live", [row]).seq)
workers = [threading.Thread(target=appender, args=(i,)) for i in range(N)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
print(json.dumps({{"state": list(workspace.state("live")), "acked": acked}}))
sys.stdout.flush()
os._exit(17)  # die without any cleanup: no close(), no atexit
"""

    def test_acknowledged_concurrent_appends_survive_a_kill(self, tmp_path,
                                                            base_table):
        """SIGKILL-equivalent death right after a concurrent burst of
        appends: every append that returned must be found by replay."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        child = self.CHILD.format(base_rows=BASE_ROWS, base_seed=BASE_SEED,
                                  stream_seed=STREAM_SEED)
        result = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path), src],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        assert result.returncode == 17, result.stderr
        reported = json.loads(result.stdout.strip().splitlines()[-1])
        total = sum(len(seqs) for seqs in reported["acked"])
        assert sorted(
            seq for seqs in reported["acked"] for seq in seqs
        ) == list(range(1, total + 1))
        assert reported["state"] == [1, total]

        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (1, total)
        assert restarted.table("live").n_rows == BASE_ROWS + total
        restarted.close()


class TestBinarySnapshotTruncation:
    """A truncated binary snapshot must fail closed at *every* offset.

    The codec's framing (magic, section lengths, CRCs) has to catch any
    prefix of a valid snapshot — returning None from ``_read_snapshot``
    so recovery routes into the corrupt-snapshot rotation — never an
    unhandled exception, never a partially-decoded table.
    """

    def test_every_truncation_offset_reads_as_missing(self, tmp_path,
                                                      base_table, stream):
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:10])
        assert live.rebuild("live")["seq"] == 2  # writes the snapshot
        live.close()
        snapshot = Path(tmp_path, "live") / "snapshot-00000001.bin"
        data = snapshot.read_bytes()
        assert len(data) > 16

        journal = DatasetJournal(str(tmp_path))
        for cut in range(len(data)):
            snapshot.write_bytes(data[:cut])
            assert journal._read_snapshot("live", 1) == (None, None), (
                f"truncation at byte {cut} decoded"
            )
        # The intact bytes still decode — the sweep tested the codec,
        # not a broken fixture.
        snapshot.write_bytes(data)
        meta, table = journal._read_snapshot("live", 1)
        journal.close()
        assert meta is not None and meta["version"] == 1
        assert table.n_rows == BASE_ROWS + 10

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.95])
    def test_sampled_truncations_recover_via_rotation(self, tmp_path,
                                                      base_table, stream,
                                                      fraction):
        """Full-workspace restarts over sampled cuts: recovery rotates
        to a fresh generation (identities never reused) and the dataset
        keeps serving and appending."""
        live = _open(tmp_path, base_table)
        live.engine("live")
        live.append("live", stream[:10])
        assert live.rebuild("live")["seq"] == 2  # writes the snapshot
        live.close()
        snapshot = Path(tmp_path, "live") / "snapshot-00000001.bin"
        data = snapshot.read_bytes()
        snapshot.write_bytes(data[: int(len(data) * fraction)])

        restarted = _open(tmp_path, base_table)
        assert restarted.state("live") == (2, 0)
        appended = restarted.append("live", stream[:3])
        assert (appended.version, appended.seq) == (2, 1)
        assert restarted.handle(_request()).dataset == "live"
        restarted.close()
