"""A feed batch that fails to apply part-way lands whole or not at all.

A replica applies an incremental batch through one
``ReplayMachine.apply(records)``: staged whole, committed whole.  Here a
record of the batch is made to fail once — at every index of the batch,
with an unknown ``applied`` value (``IngestError``) or a row the schema
refuses (``DeltaValidationError``).  The failed sync must leave the
replica exactly where its cursor says, report the lag it has, and a clean
retry must bring it level with the primary: same ``(version, seq)``, same
row count, and a probe answer byte-identical to the primary's.
"""

from __future__ import annotations

import json

import pytest

from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig
from repro.service import (
    InsightRequest,
    LocalFeedSource,
    ReplicaWorkspace,
    Workspace,
)

PROBE = InsightRequest(dataset="live", insight_classes=("skew", "outliers"),
                       top_k=3)
BATCH = 4


def _payload(workspace) -> str:
    body = workspace.handle(PROBE).to_dict()
    body.pop("timing")
    body["provenance"].pop("cache", None)
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class _FailOnce(LocalFeedSource):
    """A feed whose next non-empty batch carries one broken record."""

    def __init__(self, data_dir, index: int, how: str):
        super().__init__(data_dir)
        self.index, self.how, self.fired = index, how, False

    def poll(self, name, position=None, max_records=512):
        batch = super().poll(name, position, max_records)
        if batch is not None and batch.records and not self.fired:
            self.fired = True
            record = dict(batch.records[self.index])
            if self.how == "applied":
                record["applied"] = "bogus"
            else:
                record["rows"] = [*record["rows"], {"attr_000": "not a number"}]
            batch.records[self.index] = record
        return batch


@pytest.fixture()
def primary(tmp_path):
    workspace = Workspace(data_dir=str(tmp_path / "primary"),
                          ingest=IngestConfig(rebuild_fraction=float("inf"),
                                              fsync=False))
    workspace.register("live", make_mixed_table(
        n_rows=80, n_numeric=3, n_categorical=2, seed=11))
    workspace.handle(PROBE)  # the cold build: appends delta-merge
    yield workspace
    workspace.close()


STREAM = make_mixed_table(n_rows=40, n_numeric=3, n_categorical=2,
                          seed=12).to_records()


#: A replica that has not read yet holds the records as pending replay;
#: their rows are validated when it first reads, so only the ``applied``
#: break reaches a pending batch.
CASES = [(how, index, materialised)
         for index in range(BATCH)
         for how, materialised in (("applied", True), ("rows", True),
                                   ("applied", False))]


@pytest.mark.parametrize("how, index, materialised", CASES)
def test_a_failed_batch_leaves_the_replica_at_its_cursor(
        tmp_path, primary, how, index, materialised):
    for start in (0, 4):
        primary.append("live", STREAM[start:start + 4])
    replica = ReplicaWorkspace(_FailOnce(str(tmp_path / "primary"), index, how))
    try:
        replica._source.fired = True  # the bootstrap is clean
        replica.sync()
        if materialised:
            replica.handle(PROBE)
        before = replica.state("live")
        rows_before = replica.ingest_stats()["datasets"]["live"]["rows_appended"]
        for start in range(8, 8 + 4 * BATCH, 4):
            primary.append("live", STREAM[start:start + 4])

        replica._source.fired = False
        replica.sync()  # one record of the batch fails to apply
        assert replica.state("live") == before
        assert replica.ingest_stats()["datasets"]["live"]["rows_appended"] == (
            rows_before)
        assert replica.replica_lag() == {"live": BATCH}
        assert replica.ingest_stats()["replica"]["datasets"]["live"][
            "last_error"]

        replica.sync()  # the retry is clean
        assert replica.replica_lag() == {"live": 0}
        assert replica.state("live") == primary.state("live")
        assert replica.table("live").n_rows == primary.table("live").n_rows
        assert _payload(replica) == _payload(primary)
    finally:
        replica.close()
