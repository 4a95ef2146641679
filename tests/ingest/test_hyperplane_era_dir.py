"""A data dir written while correlation was a hyperplane signature restarts.

``fixtures/hyperplane-era/`` was written by the last build that sketched
correlation with random hyperplanes: dataset ``legacy`` registered with
a custom engine config whose persisted ``sketch`` payload still carries
``hyperplane_width`` (128), two appends, a background rebuild during
which a third append landed, whose ``swap`` record is in the journal but
whose compaction snapshot was refused (ENOSPC), and two appends after
it.  The knob is gone: :func:`engine_config_from_payload` must ignore it
and keep the rest of the config, and the restart must replay the swap
(fresh build plus one catch-up delta) and answer — with correlation
read from the co-moment sums over every row, as exact mode has it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.ingest.durable import (
    RECORD_SWAP,
    DatasetJournal,
    engine_config_from_payload,
)
from repro.service import InsightRequest, Workspace

FIXTURE = Path(__file__).parent / "fixtures" / "hyperplane-era"


@pytest.fixture()
def data_dir(tmp_path):
    shutil.copytree(FIXTURE, tmp_path / "data")
    return tmp_path / "data"


def test_the_fixture_holds_the_retired_knob_and_a_swap(data_dir):
    state = DatasetJournal(str(data_dir)).load("legacy")
    assert state.engine_config["sketch"]["hyperplane_width"] == 128
    assert [record["type"] for record in state.records].count(RECORD_SWAP) == 1
    config = engine_config_from_payload(state.engine_config)
    assert not hasattr(config.sketch, "hyperplane_width")
    assert (config.sketch.seed, config.sketch.sample_capacity) == (3, 50)


def test_it_restarts_and_answers(data_dir):
    workspace = Workspace(data_dir=str(data_dir))
    try:
        assert workspace.state("legacy") == (1, 6)
        engine = workspace.engine("legacy")
        assert (engine.config.sketch.seed, engine.config.sketch.sample_capacity) == (3, 50)
        n_rows = workspace.table("legacy").n_rows
        assert n_rows == 84
        assert int(engine.store.comoments.count.max()) == n_rows

        def scores(mode: str) -> dict:
            response = workspace.handle(InsightRequest(
                dataset="legacy", insight_classes=("linear_relationship",),
                top_k=3, mode=mode))
            (carousel,) = response.carousels
            return {tuple(item["attributes"]): item["score"]
                    for item in carousel["insights"]}

        sketched, exact = scores("approximate"), scores("exact")
        assert sketched.keys() == exact.keys() and len(exact) == 3
        for attributes, score in exact.items():
            assert sketched[attributes] == pytest.approx(score, abs=1e-9)
    finally:
        workspace.close()
