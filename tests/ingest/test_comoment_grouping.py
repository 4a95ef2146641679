"""The co-moment sums do not depend on how a journal's records are grouped.

Float sums are state that a different grouping of the same rows would
change in the last bits, so the transition keeps three rules: one
partial per append record, never one per run; partials added in journal
order; and a rebuild's catch-up rows merged as the one delta of its
``swap`` record.  One journal is therefore applied three ways — live, one
append at a time; by a restart, which replays the appends since the last
snapshot as one run; and by a replica that syncs part of it as records
and the rest after the primary compacted — and all three must hold
bit-identical sums and give byte-identical answers, also when appends
land while a background rebuild sketches its table.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from repro.data import DataTable
from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig
from repro.service import InsightRequest, LocalFeedSource, ReplicaWorkspace, Workspace
from repro.service import workspace as workspace_module
from repro.stats.correlation import correlation_matrix


def _offset(rows: list[dict], start: int = 0) -> list[dict]:
    """One column a long way from zero (the sums' shift has work to do)
    and holes in another (the pair counts move)."""
    out = []
    for index, row in enumerate(rows, start):
        row = dict(row)
        row["attr_000"] = 1e7 + (row["attr_000"] or 0.0)
        if index % 7 == 0:
            row["attr_001"] = None
        out.append(row)
    return out


BASE = DataTable.from_records(_offset(make_mixed_table(
    n_rows=120, n_numeric=4, n_categorical=1, seed=21).to_records()), name="live")
STREAM = make_mixed_table(n_rows=90, n_numeric=4, n_categorical=1,
                          seed=22).to_records()


def _records(start: int, stop: int) -> list[dict]:
    return _offset(STREAM[start:stop], start)


def _open(data_dir) -> Workspace:
    return Workspace(data_dir=str(data_dir), ingest=IngestConfig(
        rebuild_fraction=float("inf"), fsync=False))


def _sums(workspace: Workspace) -> list[bytes]:
    sums = workspace.engine("live").store.comoments
    return [getattr(sums, field).tobytes()
            for field in ("shift", "count", "total", "square", "cross")]


def _answer(workspace: Workspace) -> str:
    body = workspace.handle(InsightRequest(
        dataset="live", insight_classes=("linear_relationship",), top_k=6,
    )).to_dict()
    body.pop("timing")
    overview = workspace.engine("live").overview("linear_relationship")
    return json.dumps([body, overview.data], sort_keys=True)


def _three_ways(tmp_path, during_rebuild: bool) -> None:
    live = _open(tmp_path)
    live.register("live", BASE)
    live.engine("live")
    for start in range(0, 30, 3):
        live.append("live", _records(start, start + 3))
    replica = ReplicaWorkspace(LocalFeedSource(str(tmp_path)))
    replica.sync()
    for start in range(30, 45, 5):
        live.append("live", _records(start, start + 5))
    replica.sync()  # incremental: the records since its cursor

    if during_rebuild:
        build = workspace_module.Foresight

        def racing_build(table, **kwargs):
            # The rebuild's off-lock build: appends land meanwhile and
            # reach the fresh engine as its swap's one catch-up delta.
            for start in range(45, 60, 5):
                live.append("live", _records(start, start + 5))
            return build(table, **kwargs)

        with mock.patch.object(workspace_module, "Foresight", racing_build):
            swapped = live.rebuild("live")
        assert swapped["merged_rows"] == 15
    else:
        live.rebuild("live")
    for start in range(60, 90, 2):
        live.append("live", _records(start, start + 2))

    restarted = _open(tmp_path)
    replica.sync()
    assert live.state("live") == restarted.state("live") == replica.state("live")
    expected = _sums(live)
    assert _sums(restarted) == expected
    assert _sums(replica) == expected
    answer = _answer(live)
    assert _answer(restarted) == answer
    assert _answer(replica) == answer
    for workspace in (live, restarted, replica):
        workspace.close()


@pytest.mark.parametrize("during_rebuild", [False, True])
def test_live_restart_and_replica_hold_the_same_sums(tmp_path, during_rebuild):
    _three_ways(tmp_path, during_rebuild)


def test_the_sums_cover_every_row(tmp_path):
    workspace = _open(tmp_path)
    workspace.register("live", BASE)
    workspace.engine("live")
    for start in range(0, 20, 4):
        workspace.append("live", _records(start, start + 4))
    table = workspace.table("live")
    matrix, names = workspace.engine("live").store.approx_correlation_matrix()
    dense = table.numeric_matrix(names)[0]
    assert int(workspace.engine("live").store.comoments.count[0, 0]) == table.n_rows
    np.testing.assert_allclose(matrix, correlation_matrix(dense), rtol=0, atol=1e-9)
    workspace.close()
