"""Workload inputs, generated from a seed and nothing else.

The program under test never sees the seed: it receives the table as a
file (``perf_table.save_table``), requests over sockets and batches as JSON rows.
Everything here is a pure function of ``(seed, sizes)`` so the same seed
reproduces the same byte streams, and a different seed different ones.

Streams are organised in *rounds* of fixed composition.  A run measures
whole rounds only, so the request mix is identical across runs and seeds
however many rounds a machine completes — that is what lets a median over
a heterogeneous mix repeat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import DataTable, InsightRequest, default_registry
from repro.data import CategoricalColumn, ColumnKind, Field
from repro.data.datasets.synthetic import make_mixed_table
from repro.service.cursor import encode_cursor

from perf_table import DATASET


@dataclass(frozen=True)
class Sizes:
    """Every size that shapes a workload (frozen per benchmark version)."""

    #: explore_cold / serve_cached table.
    rows: int
    numeric: int
    categorical: int
    #: ingest_live / recover base table.
    ingest_rows: int
    ingest_numeric: int
    ingest_categorical: int
    #: Append batch sizes, cycled; one cycle is one ingest round.
    batch_cycle: tuple[int, ...]
    #: Batches journalled before the SIGKILL in ``recover``.
    recover_batches: int
    #: serve_cached: pool size, requests per connection per round.
    pool: int
    cached_round: int
    #: Set-ups timed per end-to-end run (median reported).
    setups: int
    #: Exact-mode probes behind ``topk_recall``.
    exact_probes: int
    #: Replica catch-ups timed after ``recover``'s restarts.
    catchups: int


FULL = Sizes(
    rows=20_000, numeric=16, categorical=8,
    ingest_rows=4_000, ingest_numeric=20, ingest_categorical=4,
    batch_cycle=(1, 16, 64), recover_batches=150,
    pool=32, cached_round=100, setups=3, exact_probes=16, catchups=3,
)

#: Small enough that all four workloads run inside the tier-1 budget, big
#: enough that every layer still executes (a 256-row batch crosses the
#: rebuild threshold of a 400-row base at the first cycle).
SMOKE = Sizes(
    rows=400, numeric=6, categorical=2,
    ingest_rows=400, ingest_numeric=5, ingest_categorical=2,
    batch_cycle=(1, 16, 256), recover_batches=6,
    pool=32, cached_round=20, setups=1, exact_probes=4, catchups=1,
)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def explore_table(seed: int, sizes: Sizes) -> DataTable:
    """The mixed table, its last categorical a 4-level ``segment``.

    ``make_mixed_table``'s categoricals all have 20 levels, which the
    segmentation class refuses to group by (it wants 2-12): without one
    low-cardinality column the twelfth insight class would never score a
    candidate.  ``segment`` bins one numeric attribute into quartiles, so
    there is real structure to find.
    """
    table = make_mixed_table(n_rows=sizes.rows, n_numeric=sizes.numeric,
                             n_categorical=sizes.categorical - 1, seed=seed)
    driver = table.numeric_column(table.numeric_names()[-1]).values
    codes = np.digitize(driver, np.quantile(driver, [0.25, 0.5, 0.75]))
    return table.with_column(CategoricalColumn(
        Field("segment", ColumnKind.CATEGORICAL), codes,
        [f"q{level}" for level in range(1, 5)]))


def ingest_table(seed: int, sizes: Sizes) -> DataTable:
    return make_mixed_table(n_rows=sizes.ingest_rows,
                            n_numeric=sizes.ingest_numeric,
                            n_categorical=sizes.ingest_categorical, seed=seed)


# ---------------------------------------------------------------------------
# Read requests
# ---------------------------------------------------------------------------
#: The class sets of a round's "nearby" queries: a fixed attribute prunes
#: each pair domain to the pairs through that attribute.  Fixed sets, so
#: every round — whatever the seed — carries the same mix of work.
_NEARBY = (
    ("linear_relationship", "monotonic_relationship"),
    ("linear_relationship", "dependence", "outliers"),
    ("monotonic_relationship", "skew", "heavy_tails"),
    ("linear_relationship", "monotonic_relationship", "dependence", "outliers"),
    ("dependence", "skew"),
)
_FOLLOW_UPS_PER_ROUND = 3


class _RequestFactory:
    """Draws distinct-canonical-key requests of each template kind."""

    def __init__(self, seed: int, table: DataTable):
        self._rng = np.random.default_rng([seed, 1])
        self._numeric = table.numeric_names()
        self._attributes = table.column_names()
        self.classes = tuple(default_registry().names())
        self._seen: set[str] = set()

    def _distinct(self, build) -> InsightRequest:
        for _ in range(1000):
            request = build()
            key = request.canonical_key()
            if key not in self._seen:
                self._seen.add(key)
                return request
        raise RuntimeError("request templates exhausted their distinct keys")

    def _threshold(self) -> float:
        # Admits nearly every score; its job is a distinct key and a live
        # metric-range filter, not an empty carousel.
        return round(float(self._rng.uniform(0.0, 0.01)), 9)

    def carousel(self) -> InsightRequest:
        """The landing view: every class, one attribute excluded."""
        return self._distinct(lambda: InsightRequest(
            dataset=DATASET, insight_classes=self.classes,
            top_k=int(self._rng.integers(3, 11)),
            excluded=(str(self._rng.choice(self._attributes)),),
            metric_min=self._threshold(),
        ))

    def single(self, insight_class: str) -> InsightRequest:
        """One class under a metric range."""
        def build() -> InsightRequest:
            bounded_above = bool(self._rng.integers(0, 2))
            return InsightRequest(
                dataset=DATASET, insight_classes=(insight_class,),
                top_k=int(self._rng.integers(3, 11)),
                metric_min=self._threshold(),
                metric_max=(float(10**6 + self._rng.integers(0, 10**6))
                            if bounded_above else None),
            )
        return self._distinct(build)

    def nearby(self, classes: tuple[str, ...]) -> InsightRequest:
        """A few classes around one fixed attribute."""
        return self._distinct(lambda: InsightRequest(
            dataset=DATASET, insight_classes=classes,
            top_k=int(self._rng.integers(3, 11)),
            fixed=(str(self._rng.choice(self._numeric)),),
            metric_min=self._threshold(),
        ))

    def follow_up(self, request: InsightRequest) -> InsightRequest:
        """The next page of an earlier request."""
        page = request.next_page(encode_cursor(request.top_k))
        self._seen.add(page.canonical_key())
        return page


def explore_rounds(seed: int, table: DataTable) -> Iterator[list[InsightRequest]]:
    """Endless rounds of one exploration step each, no key ever repeated.

    A round is the paper's loop: open the all-class carousel, look
    around a focused attribute, filter each class by a metric range,
    page on.  Its composition is fixed; only attributes, page sizes and
    thresholds come from the seed.
    """
    factory = _RequestFactory(seed, table)
    while True:
        nearby = [factory.nearby(classes) for classes in _NEARBY]
        yield (
            [factory.carousel()]
            + nearby
            + [factory.single(name) for name in factory.classes]
            + [factory.follow_up(request)
               for request in nearby[:_FOLLOW_UPS_PER_ROUND]]
        )


def exact_probes(seed: int, table: DataTable, count: int) -> list[InsightRequest]:
    """Single-class top-10 probes, asked once per mode for ``topk_recall``.

    ``dependence`` is left out: its exact mode alone costs seconds on the
    full table and would crowd the measured reads out of a short run.
    """
    rng = np.random.default_rng([seed, 2])
    classes = [name for name in default_registry().names()
               if name != "dependence"]
    numeric = table.numeric_names()
    probes = []
    for index in range(count):
        probes.append(InsightRequest(
            dataset=DATASET,
            insight_classes=(classes[index % len(classes)],),
            top_k=10,
            excluded=(str(rng.choice(numeric)),),
        ))
    return probes


def cached_pool(seed: int, table: DataTable, size: int) -> list[InsightRequest]:
    """The serve_cached working set, most popular first.

    Rank 1 is the landing carousel — the page every user opens — then
    one query per class, then nearby queries.
    """
    factory = _RequestFactory(seed, table)
    pool = [factory.carousel()]
    pool += [factory.single(name) for name in factory.classes]
    for classes in itertools.cycle(_NEARBY):
        if len(pool) >= size:
            break
        pool.append(factory.nearby(classes))
    return pool[:size]


def zipf_rounds(seed: int, connection: int, pool_size: int,
                per_round: int, exponent: float = 1.2) -> Iterator[np.ndarray]:
    """Endless rounds of pool indices drawn Zipf(``exponent``) by rank."""
    rng = np.random.default_rng([seed, 3, connection])
    weights = np.arange(1, pool_size + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    while True:
        yield rng.choice(pool_size, size=per_round, p=weights)


def reader_requests(table: DataTable) -> list[InsightRequest]:
    """The four carousels the ingest_live reader loops.

    ``recover`` takes its probes from here too; the first one — cheap,
    and answered from the hyperplane sketches a replay must reproduce
    bit for bit — is the "first correct answer" a restart is timed to.
    """
    classes = tuple(default_registry().names())
    return [
        InsightRequest(dataset=DATASET, top_k=5, insight_classes=(
            "linear_relationship", "monotonic_relationship"),
            fixed=(table.numeric_names()[0],)),
        InsightRequest(dataset=DATASET, insight_classes=classes, top_k=5),
        InsightRequest(dataset=DATASET, top_k=5, insight_classes=(
            "outliers", "heavy_tails", "dispersion", "skew", "normality")),
        InsightRequest(dataset=DATASET, top_k=5, insight_classes=(
            "heterogeneous_frequencies", "missing_values", "multimodality")),
    ]


# ---------------------------------------------------------------------------
# Append batches
# ---------------------------------------------------------------------------
def batch_rounds(seed: int, sizes: Sizes) -> Iterator[list[list[dict]]]:
    """Endless rounds of append batches, one batch per ``batch_cycle`` size.

    Rows come from a second table of the base's shape and distribution,
    walked cyclically.
    """
    pool_rows = max(4096, 2 * sum(sizes.batch_cycle))
    records = make_mixed_table(
        n_rows=pool_rows, n_numeric=sizes.ingest_numeric,
        n_categorical=sizes.ingest_categorical, seed=seed + 7,
    ).to_records()
    cursor = 0
    while True:
        round_batches = []
        for size in sizes.batch_cycle:
            picked = [records[(cursor + i) % pool_rows] for i in range(size)]
            cursor = (cursor + size) % pool_rows
            round_batches.append(picked)
        yield round_batches


def take_batches(seed: int, sizes: Sizes, count: int) -> list[list[dict]]:
    """The first ``count`` batches of the ingest stream (recover's history)."""
    batches: list[list[dict]] = []
    for round_batches in batch_rounds(seed, sizes):
        batches.extend(round_batches)
        if len(batches) >= count:
            return batches[:count]
    raise AssertionError("unreachable: batch_rounds is endless")
