"""Sketching substrate: single-pass, mergeable summaries for fast insight metrics."""

from repro.sketch.base import Sketch
from repro.sketch.comoments import CoMoments
from repro.sketch.countmin import CountMinSketch
from repro.sketch.entropy import EntropySketch
from repro.sketch.frequent import MisraGriesSketch, SpaceSavingSketch, exact_counts
from repro.sketch.moments import MomentSketch
from repro.sketch.quantile import QuantileSketch
from repro.sketch.reservoir import reservoir_row_indices
from repro.sketch.store import (
    ColumnSketches,
    PreprocessStats,
    SketchStore,
    SketchStoreConfig,
    merge_column_sketches,
    preprocess,
)

__all__ = [
    "CoMoments",
    "ColumnSketches",
    "CountMinSketch",
    "EntropySketch",
    "MisraGriesSketch",
    "MomentSketch",
    "PreprocessStats",
    "QuantileSketch",
    "Sketch",
    "SketchStore",
    "SketchStoreConfig",
    "SpaceSavingSketch",
    "exact_counts",
    "merge_column_sketches",
    "preprocess",
    "reservoir_row_indices",
]
