"""The sketch store: Foresight's preprocessing step.

"The dataset is preprocessed to compute sketches, samples, and indexes that
will support fast approximate insight querying" (paper, section 1).  The
:class:`SketchStore` is that preprocessing product: for a given
:class:`~repro.data.table.DataTable` it builds, per column,

* a :class:`~repro.sketch.moments.MomentSketch` (numeric columns),
* a :class:`~repro.sketch.quantile.QuantileSketch` (numeric columns),
* a :class:`~repro.sketch.frequent.MisraGriesSketch` (categorical and
  discrete numeric columns),

plus, over every numeric column at once, the
:class:`~repro.sketch.comoments.CoMoments` sums that Pearson correlation
is read from exactly, and a uniform row sample shared by all
visualizations.  Every part merges with the same part of an append's rows
(:mod:`repro.ingest.maintenance`).

The store exposes approximate versions of the insight metrics; the engine
decides per query whether to use them (``mode="approximate"``) or to fall
back to the exact statistics (``mode="exact"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from repro.errors import SketchNotAvailableError
from repro.obs.resources import record_sketch_probe
from repro.data.column import BooleanColumn, CategoricalColumn, Column
from repro.data.table import DataTable
from repro.sketch.comoments import CoMoments
from repro.sketch.features import TableFeatures
from repro.sketch.frequent import MisraGriesSketch
from repro.sketch.moments import MomentSketch
from repro.sketch.quantile import QuantileSketch
from repro.sketch.reservoir import reservoir_row_indices
from repro.stats.moments import block_moments


@dataclass
class SketchStoreConfig:
    """Tuning knobs for preprocessing."""

    quantile_epsilon: float = 0.01
    #: The Greenwald-Khanna update is per-item; above this many rows the
    #: quantile sketch is built over a uniform row sample instead (the
    #: resulting rank error is O(1/sqrt(cap)), far below what the Outlier
    #: insight needs).
    quantile_sample_cap: int = 20_000
    frequent_capacity: int = 128
    sample_capacity: int = 2000
    seed: int = 0


@dataclass
class ColumnSketches:
    """The bundle of sketches built for one column."""

    name: str
    moments: MomentSketch | None = None
    quantiles: QuantileSketch | None = None
    frequent: MisraGriesSketch | None = None

    #: The sketch attributes, each composing under row-partition merges.
    MERGEABLE: ClassVar[tuple[str, ...]] = ("moments", "quantiles", "frequent")

    def memory_bytes(self) -> int:
        total = 0
        for sketch in (self.moments, self.quantiles, self.frequent):
            if sketch is not None:
                total += sketch.memory_bytes()
        return total

    def merged(self, other: "ColumnSketches") -> "ColumnSketches":
        """A new bundle over the union of two disjoint row partitions.

        Copy-on-merge: a sketch both sides hold is combined into a new one
        (:meth:`Sketch.merged`), so neither input (each possibly a published
        snapshot) is mutated; one only one side holds is shared as is.
        """
        (bundle,) = merged_bundles([(self, other)])
        return bundle


def merged_bundles(
    pairs: Sequence[tuple[ColumnSketches, ColumnSketches]],
) -> list[ColumnSketches]:
    """:meth:`ColumnSketches.merged` of each pair, with the GK summaries of
    every pair merged in one pass (:meth:`QuantileSketch.merge_rows`)."""
    both = [index for index, (mine, theirs) in enumerate(pairs)
            if mine.quantiles is not None and theirs.quantiles is not None]
    quantiles = dict(zip(both, QuantileSketch.merge_rows(
        [pairs[index][0].quantiles for index in both],
        [pairs[index][1].quantiles for index in both],
    )))
    bundles = []
    for index, (mine, theirs) in enumerate(pairs):
        bundle = ColumnSketches(name=mine.name)
        for attribute in mine.MERGEABLE:
            left, right = getattr(mine, attribute), getattr(theirs, attribute)
            if attribute == "quantiles" and index in quantiles:
                left = quantiles[index]
            elif left is not None and right is not None:
                left = left.merged(right)
            setattr(bundle, attribute, right if left is None else left)
        bundles.append(bundle)
    return bundles


def column_value_counts(
    column: Column, rows: slice | None = None,
) -> tuple[list[object], list[int]]:
    """A column's distinct non-missing values and the number of rows
    holding each: categorical levels in code order, numeric values sorted.

    With ``rows``, of just those rows, in the order a parse of them alone
    would give (:meth:`CategoricalColumn.from_raw` numbers levels by
    first appearance; a boolean column's two levels are fixed).
    """
    if isinstance(column, CategoricalColumn):
        codes = column.codes if rows is None else column.codes[rows]
        codes = codes[codes >= 0]
        categories = column.categories
        if rows is None or isinstance(column, BooleanColumn):
            counts = np.bincount(codes, minlength=column.n_categories())
            present = np.flatnonzero(counts)
            return [categories[code] for code in present], counts[present].tolist()
        levels, first, counts = np.unique(codes, return_index=True,
                                          return_counts=True)
        order = first.argsort()
        return ([categories[code] for code in levels[order].tolist()],
                counts[order].tolist())
    values, mask = column.values, column.mask
    if rows is not None:
        values, mask = values[rows], mask[rows]
    values, counts = np.unique(values[~mask], return_counts=True)
    return values.tolist(), counts.tolist()


def value_count_sketches(column: Column, config: SketchStoreConfig,
                         rows: slice | None = None) -> dict[str, object]:
    """A column's frequent-items sketch (of ``rows``, when given; see
    :func:`column_value_counts`), at one weighted update per distinct
    value, not per row."""
    frequent = MisraGriesSketch(capacity=config.frequent_capacity)
    frequent.update_counts(*column_value_counts(column, rows))
    return {"frequent": frequent}


def numeric_sketches(block: np.ndarray, config: SketchStoreConfig,
                     rng_keys: Sequence[list[int]]) -> list[dict[str, object]]:
    """The moment and quantile sketches of each row of ``block``: a
    C-contiguous ``(d, n)`` array of valid (NaN-free) values — one
    column's, or every complete column of an append batch at once.  All
    moments come from one pass of axis-1 reductions and all GK summaries
    from one row-wise sort; above ``quantile_sample_cap`` values a row's
    summary is of a uniform sample drawn from the RNG stream its
    ``rng_keys`` entry names."""
    epsilon = config.quantile_epsilon
    if block.shape[1] == 0:
        return [{"moments": MomentSketch(), "quantiles": QuantileSketch(epsilon)}
                for _ in rng_keys]
    moments = block_moments(block)
    if block.shape[1] > config.quantile_sample_cap:
        block = np.array([
            np.random.default_rng(key).choice(
                row, size=config.quantile_sample_cap, replace=False)
            for key, row in zip(rng_keys, block)
        ])
    quantiles = QuantileSketch.of_sorted_rows(np.sort(block, axis=1), epsilon)
    return [
        {"moments": MomentSketch.from_moments(running), "quantiles": summary}
        for running, summary in zip(moments, quantiles)
    ]


@dataclass
class PreprocessStats:
    """Timings and sizes recorded while building the store (benchmarked)."""

    seconds: float = 0.0
    n_rows: int = 0
    n_numeric: int = 0
    n_categorical: int = 0
    total_sketch_bytes: int = 0
    per_stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Rows absorbed via incremental delta merges since the last full
    #: build (the ingest layer's accuracy-budget input).
    delta_rows: int = 0
    delta_batches: int = 0


class SketchStore:
    """Per-column sketches for a table, plus approximate metric queries.

    Each column derives its own RNG stream from ``(seed, column index)``,
    so the built store does not depend on the order columns are built in
    (and every stored sketch would change if the keys did).
    """

    #: The row sample as a table, and the kernel inputs derived from it:
    #: each taken on first use, once per store — a store is one published
    #: snapshot, and an append publishes a new one (``from_parts``) that
    #: derives its own unless it left the sample as it was.  Never
    #: journalled or snapshotted.
    _sample: DataTable | None = None
    _features: TableFeatures | None = None

    def __init__(
        self,
        table: DataTable,
        config: SketchStoreConfig | None = None,
    ):
        self._table = table
        self._config = config or SketchStoreConfig()
        self._columns: dict[str, ColumnSketches] = {}
        self._sample_indices: np.ndarray = np.empty(0, dtype=np.int64)
        self._stats = PreprocessStats()
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        start = time.perf_counter()
        config = self._config
        table = self._table
        numeric_names = table.numeric_names()
        categorical_names = table.categorical_names()

        stage_start = time.perf_counter()
        self._comoments = CoMoments.of_columns(table.numeric_columns())
        self._stats.per_stage_seconds["comoments"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        for index, name in enumerate(numeric_names):
            self._columns[name] = self._build_numeric_column(name, index)
        self._stats.per_stage_seconds["numeric"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        for name in categorical_names:
            self._columns[name] = self._build_categorical_column(name)
        self._stats.per_stage_seconds["categorical"] = time.perf_counter() - stage_start

        self._sample_indices = reservoir_row_indices(
            table.n_rows, config.sample_capacity, seed=config.seed
        )

        self._stats.seconds = time.perf_counter() - start
        self._stats.n_rows = table.n_rows
        self._stats.n_numeric = len(numeric_names)
        self._stats.n_categorical = len(categorical_names)
        self._stats.total_sketch_bytes = self._comoments.memory_bytes() + sum(
            bundle.memory_bytes() for bundle in self._columns.values()
        )

    def _build_numeric_column(self, name: str, index: int) -> ColumnSketches:
        """Build one numeric column's sketch bundle.

        The quantile sampling RNG is seeded from ``(seed, column index)``
        rather than drawn from one sequential stream, so the sampled rows
        — and therefore the built store — do not depend on the order in
        which columns are built.
        """
        config = self._config
        column = self._table.numeric_column(name)
        (sketches,) = numeric_sketches(
            column.valid_values()[np.newaxis, :], config, [[config.seed, index]]
        )
        return ColumnSketches(
            name=name,
            **sketches,
            **(value_count_sketches(column, config) if column.is_discrete() else {}),
        )

    def _build_categorical_column(self, name: str) -> ColumnSketches:
        """Build one categorical column's sketch bundle."""
        column = self._table.categorical_column(name)
        return ColumnSketches(name=name, **value_count_sketches(column, self._config))

    # ------------------------------------------------------------------
    # Alternative construction (live ingestion)
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        table: DataTable,
        config: SketchStoreConfig,
        columns: Mapping[str, ColumnSketches],
        comoments: CoMoments,
        sample_indices: np.ndarray,
        stats: PreprocessStats,
        sample_from: "SketchStore | None" = None,
    ) -> "SketchStore":
        """Assemble a store from already-built parts, skipping ``_build``.

        This is the constructor behind incremental maintenance: the
        ingest layer merges delta partials into *copies* of a live
        store's sketches and packages the result as a new store object,
        so in-flight readers of the old store never observe a mutation.

        ``sample_from`` names a store whose sample is of these same rows
        with these same category lists (the caller's claim): whatever it
        has already derived from them — the sample table, the kernel
        features — is shared instead of derived again.
        """
        store = cls.__new__(cls)
        store._table = table
        store._config = config
        store._columns = dict(columns)
        store._comoments = comoments
        store._sample_indices = np.asarray(sample_indices, dtype=np.int64)
        store._stats = stats
        if sample_from is not None:
            store._sample = sample_from._sample
            store._features = sample_from._features
        return store

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def table(self) -> DataTable:
        return self._table

    @property
    def comoments(self) -> CoMoments:
        """The co-moment sums of the numeric columns."""
        return self._comoments

    @property
    def sample_indices(self) -> np.ndarray:
        """Row indices of the uniform sample (read-only view for ingest)."""
        return self._sample_indices

    def column_map(self) -> dict[str, ColumnSketches]:
        """A shallow copy of the per-column bundle mapping."""
        return dict(self._columns)

    @property
    def config(self) -> SketchStoreConfig:
        return self._config

    @property
    def stats(self) -> PreprocessStats:
        return self._stats

    def column_sketches(self, name: str) -> ColumnSketches:
        if name not in self._columns:
            raise SketchNotAvailableError(
                f"no sketches were built for column {name!r}"
            )
        return self._columns[name]

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def sample_table(self) -> DataTable:
        """The uniform row sample used by visualizations (taken on first
        use: the table and the sampled rows are fixed at construction)."""
        if self._sample is None:
            self._sample = self._table.take(
                self._sample_indices, name=f"{self._table.name}-sample"
            )
        return self._sample

    def sample_features(self) -> TableFeatures:
        """The row sample as per-column arrays for the scoring kernels."""
        if self._features is None:
            self._features = TableFeatures(self.sample_table())
        return self._features

    def memory_bytes(self) -> int:
        return self._stats.total_sketch_bytes

    # ------------------------------------------------------------------
    # Approximate metric queries
    # ------------------------------------------------------------------
    def _require(self, name: str, attribute: str):
        bundle = self.column_sketches(name)
        sketch = getattr(bundle, attribute)
        if sketch is None:
            raise SketchNotAvailableError(
                f"column {name!r} has no {attribute} sketch"
            )
        # Every approx_* query funnels through here: one probe billed to
        # the ambient request's cost recorder (no-op outside a request).
        record_sketch_probe()
        return sketch

    def approx_mean(self, name: str) -> float:
        return self._require(name, "moments").mean()

    def approx_variance(self, name: str) -> float:
        return self._require(name, "moments").variance()

    def approx_std(self, name: str) -> float:
        return self._require(name, "moments").std()

    def approx_skewness(self, name: str) -> float:
        return self._require(name, "moments").skewness()

    def approx_kurtosis(self, name: str) -> float:
        return self._require(name, "moments").kurtosis()

    def approx_correlation_matrix(self, names: list[str] | None = None) -> tuple[np.ndarray, list[str]]:
        """All-pairs Pearson ρ over ``names`` (default: every numeric
        column) from the co-moment sums — pairwise-complete and exact up
        to rounding; NaN where fewer than two rows hold both columns
        (:meth:`~repro.sketch.comoments.CoMoments.correlation`)."""
        names = list(self._comoments.names if names is None else names)
        unknown = sorted(set(names) - set(self._comoments.names))
        if unknown:
            raise SketchNotAvailableError(
                f"no co-moment sums were built for {unknown!r}")
        record_sketch_probe()
        return self._comoments.correlation(names), names

    def approx_relative_frequency_topk(self, name: str, k: int) -> float:
        return self._require(name, "frequent").relative_frequency_topk(k)

    def approx_top_values(self, name: str, k: int) -> list[tuple[object, int]]:
        return self._require(name, "frequent").top_k(k)

    def approx_outlier_strength(self, name: str, whisker_k: float = 1.5) -> float:
        """Approximate the Outlier insight metric from sketches only.

        Outliers are taken to be points beyond the Tukey fences estimated
        from the quantile sketch; their average standardized distance is
        estimated from the row sample (sketch-backed, no full-data pass).
        """
        quantiles: QuantileSketch = self._require(name, "quantiles")
        moments: MomentSketch = self._require(name, "moments")
        q1 = quantiles.quantile(0.25)
        q3 = quantiles.quantile(0.75)
        iqr = q3 - q1
        std = moments.std()
        if std == 0.0 or np.isnan(std):
            return 0.0
        low, high = q1 - whisker_k * iqr, q3 + whisker_k * iqr
        sample = self.sample_features().valid_values(name)
        if sample.size == 0:
            return 0.0
        outliers = sample[(sample < low) | (sample > high)]
        if outliers.size == 0:
            return 0.0
        return float(np.mean(np.abs(outliers - moments.mean()) / std))


def preprocess(table: DataTable, config: SketchStoreConfig | None = None) -> SketchStore:
    """Convenience wrapper mirroring the paper's 'preprocess the dataset' step."""
    return SketchStore(table, config=config)


def merge_column_sketches(left: Mapping[str, ColumnSketches],
                          right: Mapping[str, ColumnSketches]) -> dict[str, ColumnSketches]:
    """Merge two per-column sketch bundles built over disjoint row partitions.

    The sketches of ``ColumnSketches.MERGEABLE`` (moments, quantiles,
    frequent) are combined.

    Both inputs are treated as published snapshots
    (:meth:`ColumnSketches.merged` copies before it merges), and the
    result dictionary is populated in sorted column order so the merged
    bundle is byte-identical regardless of set hash order.
    """
    names = sorted(set(left) | set(right))
    both = [name for name in names if name in left and name in right]
    merged = dict(zip(both, merged_bundles(
        [(left[name], right[name]) for name in both])))
    return {name: merged.get(name) or left.get(name) or right[name]
            for name in names}
