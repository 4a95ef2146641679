"""Workspace.append: (version, seq) identity, atomic swaps, cache hygiene."""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import EngineConfig
from repro.data.datasets import make_mixed_table
from repro.errors import DeltaValidationError, UnknownDatasetError
from repro.ingest import IngestConfig
from repro.service import InsightRequest, Workspace


@pytest.fixture(scope="module")
def table():
    return make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=21)


@pytest.fixture(scope="module")
def delta_rows(table):
    return make_mixed_table(n_rows=40, n_numeric=4, n_categorical=2,
                            seed=22).to_records()


@pytest.fixture()
def workspace(table):
    workspace = Workspace()
    workspace.register("live", lambda: table)
    return workspace


def _request():
    return InsightRequest(dataset="live", insight_classes=("skew",), top_k=3)


class TestAppendSemantics:
    def test_append_bumps_seq_not_version(self, workspace, delta_rows):
        workspace.engine("live")
        result = workspace.append("live", delta_rows)
        assert (result.version, result.seq) == (1, 1)
        assert result.applied == "delta_merge"
        assert result.rows_appended == len(delta_rows)
        assert workspace.state("live") == (1, 1)
        assert workspace.engine("live").table.n_rows == 300 + len(delta_rows)

    def test_no_engine_rebuild_on_delta_path(self, workspace, delta_rows):
        workspace.engine("live")
        assert workspace.engine_builds("live") == 1
        workspace.append("live", delta_rows)
        assert workspace.engine_builds("live") == 1  # merged, not rebuilt
        stats = workspace.ingest_stats()
        assert stats["totals"]["delta_merges"] == 1
        assert stats["totals"]["rebuilds"] == 0

    def test_budget_exhaustion_schedules_background_rebuild(
        self, table, delta_rows
    ):
        """The triggering append never pays for the rebuild.

        It still delta-merges (applied="delta_merge"), and the worker's
        atomic swap mints a sequence number of its own so the rebuilt
        engine never shares a (version, seq) identity with the merged
        one it replaces.
        """
        workspace = Workspace(ingest=IngestConfig(rebuild_fraction=0.05))
        workspace.register("live", lambda: table)
        workspace.engine("live")
        result = workspace.append("live", delta_rows)  # 40 > 0.05 * 300
        assert result.applied == "delta_merge"
        assert (result.version, result.seq) == (1, 1)
        assert workspace.wait_for_rebuilds(timeout=30)
        assert workspace.state("live") == (1, 2)  # the swap minted seq 2
        assert workspace.engine_builds("live") == 2
        stats = workspace.ingest_stats()
        assert stats["totals"]["rebuilds"] == 1
        assert stats["totals"]["bg_rebuilds"] == 1
        assert stats["datasets"]["live"]["rebuild_running"] is False
        # The rebuilt store has no stale delta rows.
        assert workspace.engine("live").store.stats.delta_rows == 0
        workspace.close()

    def test_append_before_engine_build_is_deferred(self, workspace,
                                                    delta_rows):
        result = workspace.append("live", delta_rows)
        assert result.applied == "deferred"
        assert workspace.engine_builds("live") == 0
        # The first (lazy) build sketches base + deferred rows at once.
        engine = workspace.engine("live")
        assert engine.table.n_rows == 300 + len(delta_rows)
        assert engine.store.stats.delta_rows == 0

    def test_append_to_exact_mode_engine(self, table, delta_rows):
        workspace = Workspace()
        workspace.register("live", lambda: table,
                           engine_config=EngineConfig(mode="exact"))
        workspace.engine("live")
        result = workspace.append("live", delta_rows)
        assert result.applied == "deferred"
        engine = workspace.engine("live")
        assert engine.store is None
        assert engine.table.n_rows == 300 + len(delta_rows)

    def test_rejected_batch_changes_nothing(self, workspace, delta_rows):
        workspace.engine("live")
        before = workspace.state("live")
        with pytest.raises(DeltaValidationError):
            workspace.append("live", [{"no_such_column": 1}])
        assert workspace.state("live") == before
        assert workspace.engine("live").table.n_rows == 300
        assert workspace.ingest_stats()["totals"]["appends"] == 0

    def test_unknown_dataset(self, workspace, delta_rows):
        with pytest.raises(UnknownDatasetError):
            workspace.append("nope", delta_rows)

    def test_reload_resets_journal_and_keeps_lifetime_totals(
        self, workspace, delta_rows
    ):
        workspace.engine("live")
        workspace.append("live", delta_rows)
        assert workspace.state("live") == (1, 1)
        version = workspace.reload("live")
        assert workspace.state("live") == (version, 0)
        assert workspace.engine("live").table.n_rows == 300  # loader re-ran
        totals = workspace.ingest_stats()["totals"]
        assert totals["rows_appended"] == len(delta_rows)  # monotone


class TestServingIntegration:
    def test_responses_carry_the_snapshot_identity(self, workspace,
                                                   delta_rows):
        response = workspace.handle(_request())
        assert (response.dataset_version, response.dataset_seq) == (1, 0)
        workspace.append("live", delta_rows)
        response = workspace.handle(_request())
        assert (response.dataset_version, response.dataset_seq) == (1, 1)

    def test_append_invalidates_only_that_dataset(self, workspace, table,
                                                  delta_rows):
        workspace.register("other", lambda: table)
        workspace.handle(_request())
        other_request = InsightRequest(dataset="other",
                                       insight_classes=("skew",), top_k=3)
        workspace.handle(other_request)
        workspace.append("live", delta_rows)
        # "other" still served from cache; "live" recomputes.
        assert workspace.handle(other_request).provenance["cache"] == "hit"
        fresh = workspace.handle(_request())
        assert fresh.provenance["cache"] == "miss"
        assert fresh.dataset_seq == 1
        # And the new snapshot caches normally.
        assert workspace.handle(_request()).provenance["cache"] == "hit"

    def test_append_deterministic_across_workspaces(self, table, delta_rows):
        def serve_after_append():
            workspace = Workspace()
            workspace.register("live", lambda: table)
            workspace.engine("live")
            workspace.append("live", delta_rows)
            return workspace.handle(_request())

        a, b = serve_after_append(), serve_after_append()
        assert a.to_dict()["carousels"] == b.to_dict()["carousels"]

    def test_concurrent_queries_see_consistent_snapshots(self, table,
                                                         delta_rows):
        """No torn reads: every racing response equals the reference
        response for the (version, seq) it claims."""
        reference = Workspace()
        reference.register("live", lambda: table)
        reference.engine("live")
        expected = {0: reference.handle(_request())}
        reference.append("live", delta_rows)
        expected[1] = reference.handle(_request())

        workspace = Workspace()
        workspace.register("live", lambda: table)
        workspace.engine("live")
        responses, errors = [], []
        stop = threading.Event()

        def query_loop():
            try:
                while not stop.is_set():
                    responses.append(workspace.handle(_request()))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=query_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        workspace.append("live", delta_rows)
        responses.append(workspace.handle(_request()))
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        seqs = {response.dataset_seq for response in responses}
        assert seqs <= {0, 1}
        assert 1 in seqs  # the post-append query saw the new snapshot
        for response in responses:
            want = expected[response.dataset_seq]
            assert response.to_dict()["carousels"] == (
                want.to_dict()["carousels"]
            )
            assert response.dataset_version == want.dataset_version
