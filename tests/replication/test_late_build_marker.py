"""A build marker written after a replica already holds its ``seq``.

The marker of a lazy cold build carries the ``seq`` of the append before
it and moves none, so ``(version, seq)`` alone cannot say whether a
cursor is past it.  ``FeedPosition.built`` makes the cursor exact: the
feed delivers such a marker once — not never (the replica's accuracy
budget would stay at ``base_rows`` 0) and not on every poll.  The
replica-level consequence (equal counters, failover with the right
budget) is pinned beside the generated state machine in
``tests/property/test_dataset_state_machine.py``.
"""

from __future__ import annotations

import pytest

from repro.data.datasets import make_mixed_table
from repro.ingest import IngestConfig
from repro.ingest.durable import RECORD_BUILD, FeedPosition, JournalFeed
from repro.service import InsightRequest, Workspace

BASE = make_mixed_table(n_rows=80, n_numeric=3, n_categorical=2, seed=11)
ROWS = make_mixed_table(n_rows=12, n_numeric=3, n_categorical=2,
                        seed=12).to_records()
READ = InsightRequest(dataset="live", insight_classes=("skew",), top_k=3)


@pytest.fixture
def primary(tmp_path):
    workspace = Workspace(data_dir=str(tmp_path),
                          ingest=IngestConfig(fsync=False))
    workspace.register("live", BASE)
    workspace.append("live", ROWS[:4])  # deferred: nothing built yet
    yield workspace
    workspace.close()


def test_feed_delivers_a_late_marker_exactly_once(primary, tmp_path):
    feed = JournalFeed(str(tmp_path))
    position = feed.poll("live").position
    assert position == FeedPosition(1, 1)
    primary.handle(READ)  # lazy build at seq 1: journals the marker
    batch = feed.poll("live", position)
    assert [r["type"] for r in batch.records] == [RECORD_BUILD]
    assert batch.position == FeedPosition(1, 1, built=True)
    again = feed.poll("live", batch.position)
    assert again.records == [] and again.position == batch.position
    # A late joiner's bootstrap already contains the marker.
    assert feed.poll("live").position == batch.position
    # The next append moves the cursor past the marker's seq.
    primary.append("live", ROWS[4:8])
    assert feed.poll("live", batch.position).position == FeedPosition(1, 2)


def test_built_position_token_round_trips():
    assert FeedPosition(3, 17, built=True).token() == "3:17b"
    assert FeedPosition.parse("3:17b") == FeedPosition(3, 17, built=True)
    assert FeedPosition.parse("3:17") == FeedPosition(3, 17)
    with pytest.raises(ValueError):
        FeedPosition.parse("3:b")

