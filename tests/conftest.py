"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import Foresight
from repro.data import DataTable
from repro.data.datasets import (
    load_imdb,
    load_oecd,
    load_parkinson,
    make_clustered_table,
    make_mixed_table,
    make_numeric_table,
)

# ``HYPOTHESIS_PROFILE=ci`` (set by ci.yml) derives every generated example
# from the test's own name instead of a random seed or a local
# ``.hypothesis/`` database, so the generated state machine and kernel
# properties run the same examples — and green means the same thing — on
# every runner.  Loaded here, before any test module builds its settings.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def _lock_order_tracking():
    """Runtime lock-order checking behind ``REPRO_DEBUG_LOCKS=1``.

    Every lock the package makes while the tracker listens is a proxy
    carrying its role (``repro.obs.lockhook``); the tracker checks each
    real acquisition against the roles' levels and fails the session at
    teardown if any thread ever inverted them or nested two equal-level
    roles both ways.
    """
    if os.environ.get("REPRO_DEBUG_LOCKS") != "1":
        yield
        return
    from repro.analysis.runtime import LockTracker

    tracker = LockTracker().install()
    try:
        yield
    finally:
        tracker.uninstall()
        tracker.assert_clean()


@pytest.fixture()
def no_lock_listeners():
    """The lock listeners already installed (the session's tracker, under
    ``REPRO_DEBUG_LOCKS=1``) step aside for one test: a defect the test
    seeds on purpose is then seen only by the listeners it installs."""
    from repro.obs import lockhook

    others = lockhook.listeners()
    for listener in others:
        lockhook.remove_listener(listener)
    try:
        yield
    finally:
        for listener in others:
            lockhook.add_listener(listener)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def oecd_table() -> DataTable:
    return load_oecd()


@pytest.fixture(scope="session")
def parkinson_table() -> DataTable:
    # A reduced row count keeps the suite fast while preserving structure.
    return load_parkinson(n_rows=600)


@pytest.fixture(scope="session")
def imdb_table() -> DataTable:
    return load_imdb(n_rows=1200)


@pytest.fixture(scope="session")
def small_mixed_table() -> DataTable:
    return make_mixed_table(n_rows=500, n_numeric=12, n_categorical=3, seed=3)


@pytest.fixture(scope="session")
def medium_numeric_table() -> DataTable:
    return make_numeric_table(n_rows=4000, n_columns=20, seed=5)


@pytest.fixture(scope="session")
def clustered_table() -> DataTable:
    return make_clustered_table(n_rows=900, n_clusters=3, seed=11)


@pytest.fixture(scope="session")
def simple_table() -> DataTable:
    """A tiny, fully deterministic table used by data-layer unit tests."""
    return DataTable.from_columns(
        {
            "height": [1.62, 1.75, 1.80, None, 1.68, 1.90],
            "weight": [55.0, 72.0, 80.5, 64.0, None, 95.0],
            "city": ["Oslo", "Paris", "Paris", "Lima", "Oslo", "Paris"],
            "smoker": [True, False, False, True, False, False],
            "children": [0, 2, 1, 3, 2, 1],
        },
        name="people",
    )


@pytest.fixture(scope="session")
def oecd_engine(oecd_table: DataTable) -> Foresight:
    return Foresight(oecd_table)
