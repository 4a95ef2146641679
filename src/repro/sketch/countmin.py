"""Count-Min sketch.

An alternative heavy-hitter / point-frequency backend (the paper's sketch
toolbox is extensible; Count-Min is the standard choice when the domain is
too large for counter-based sketches).  Estimated counts overestimate the
truth by at most ``ε·n`` with probability ``1 − δ`` where ``ε = e/width``
and ``δ = exp(-depth)``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Hashable

import numpy as np

from repro.errors import SketchError
from repro.sketch.base import Sketch


def _stable_hash(value: Hashable, salt: int) -> int:
    """Deterministic 64-bit hash of (value, salt), stable across processes."""
    return _hash_text(f"{salt}:{value!r}")


@functools.lru_cache(maxsize=4096)
def _hash_text(text: str) -> int:
    # Memoised on the text that is hashed, never on the value: 1, 1.0 and
    # True are one dict key but three reprs.  An append re-hashes only the
    # labels this process has not seen (bounded: the table is per process).
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class CountMinSketch(Sketch):
    """Count-Min sketch with conservative point-query estimates."""

    def __init__(self, width: int = 256, depth: int = 4, seed: int = 0):
        if width < 1 or depth < 1:
            raise SketchError("width and depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._count = 0

    @classmethod
    def from_error_bounds(cls, epsilon: float = 0.01, delta: float = 0.01,
                          seed: int = 0) -> "CountMinSketch":
        """Size the sketch from target error ε and failure probability δ."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise SketchError("epsilon and delta must be in (0, 1)")
        width = int(math.ceil(math.e / epsilon))
        depth = int(math.ceil(math.log(1.0 / delta)))
        return cls(width=width, depth=depth, seed=seed)

    @property
    def count(self) -> int:
        return self._count

    # -- construction ------------------------------------------------------------
    def _indices(self, value: Hashable) -> list[int]:
        return [
            _stable_hash(value, self.seed * 1000 + row) % self.width
            for row in range(self.depth)
        ]

    def update(self, value, weight: int = 1) -> None:
        if value is None:
            return
        for row, col in enumerate(self._indices(value)):
            self._table[row, col] += weight
        self._count += weight

    def merge(self, other: "Sketch") -> None:
        self._require_same_type(other)
        assert isinstance(other, CountMinSketch)
        self._require(
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed,
            "cannot merge Count-Min sketches with different parameters",
        )
        self._table += other._table
        self._count += other._count

    def copy(self) -> "CountMinSketch":
        return self._clone(_table=self._table.copy())

    # -- queries -----------------------------------------------------------------
    def estimate(self, value) -> int:
        """Point estimate of the count of ``value`` (an overestimate)."""
        if value is None:
            return 0
        return int(
            min(self._table[row, col] for row, col in enumerate(self._indices(value)))
        )

    def relative_frequency(self, value) -> float:
        if self._count == 0:
            return 0.0
        return self.estimate(value) / self._count

    def error_bound(self) -> float:
        """With high probability, estimates exceed truth by at most this."""
        return math.e * self._count / self.width

    def memory_bytes(self) -> int:
        return int(self._table.nbytes)
