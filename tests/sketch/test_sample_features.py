"""The two once-only properties of the scoring kernels' inputs.

* The sample features are derived once per *store* — one published
  snapshot — however many cold reads score on it, and the store an append
  publishes derives its own: the memo is per snapshot, not per process.
* Importing the package and the server does not import ``scipy.stats``
  (half a second and 45 MiB of every process start).
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro import InsightRequest, Workspace, default_registry
from repro.core.insight import EvaluationContext
from repro.data.datasets import make_mixed_table
from repro.data.table import DataTable
from repro.obs.resources import CostRecorder, attach_recorder
from repro.sketch import features as features_module
from repro.sketch.store import SketchStore

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cold_reads_derive_the_sample_features_once_per_snapshot(monkeypatch):
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    workspace = Workspace()
    workspace.register("mixed", table)
    workspace.engine("mixed")
    takes = _count_calls(monkeypatch, DataTable, "take")
    ranked = _count_calls(monkeypatch, features_module, "average_ranks")

    def read(top_k: int) -> None:
        response = workspace.handle(InsightRequest(
            dataset="mixed", top_k=top_k, insight_classes=(
                "monotonic_relationship", "dependence", "segmentation",
                "normality", "multimodality", "outliers")))
        assert response.provenance["cache"] == "miss"

    read(2)
    assert len(takes) == 1  # the sample, taken by its first reader
    assert len(ranked) == 4  # one rank vector per numeric column
    read(3)  # a different key: a second cold read on the same store
    assert len(takes) == 1 and len(ranked) == 4

    store = workspace.engine("mixed").store
    workspace.append("mixed", table.to_records()[:5])
    assert workspace.engine("mixed").store is not store  # a new snapshot
    read(2)
    assert len(takes) == 2 and len(ranked) == 8


def test_feature_derivation_bills_the_sample_rows_once():
    table = make_mixed_table(n_rows=300, n_numeric=4, n_categorical=2, seed=4)
    store = SketchStore(table)
    context = EvaluationContext(table, store)
    monotonic = default_registry().get("monotonic_relationship")
    candidates = list(monotonic.candidates(table))
    first, second = CostRecorder(), CostRecorder()
    with attach_recorder(first):
        monotonic.score_all(candidates, context)
    with attach_recorder(second):
        monotonic.score_all(candidates[:2], context)
    assert first.rows_scanned == store.sample_table().n_rows
    assert second.rows_scanned == 0


def test_importing_the_server_does_not_import_scipy_stats():
    probe = ("import sys, repro, repro.server; "
             "sys.exit(1 if 'scipy.stats' in sys.modules else 0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(SRC), os.environ.get("PYTHONPATH")])))
    finished = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120)
    assert finished.returncode == 0
