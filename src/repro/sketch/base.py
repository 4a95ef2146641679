"""Common protocol for all sketches.

Section 3 of the paper stresses two properties of its sketches: they are
built in a **single pass** over the data, and they **compose** — sketches of
data partitions can be merged into a sketch of the union, so preprocessing
parallelises and incremental data can be absorbed.  Every sketch in
:mod:`repro.sketch` therefore implements the :class:`Sketch` interface:

* ``update(value)`` / ``update_array(values)`` — single-pass construction;
* ``update_counts(values, counts)`` — the same from per-distinct-value
  counts, for the sketches whose ``update`` takes a weight;
* ``merge(other)`` — composition, raising :class:`SketchMergeError` when the
  two sketches were built with incompatible parameters;
* ``copy()`` — an independent sketch with the same state (copy-on-merge),
  and ``merged(other)`` — the merge as a new sketch, neither input touched;
* ``memory_bytes()`` — the size accounting used by the complexity benchmark.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from repro.errors import SketchMergeError


class Sketch(abc.ABC):
    """Abstract base class for single-pass, mergeable data summaries."""

    @abc.abstractmethod
    def update(self, value) -> None:
        """Absorb a single value."""

    def update_many(self, values: Iterable) -> None:
        """Absorb an iterable of values (default: loop over :meth:`update`)."""
        for value in values:
            self.update(value)

    def update_array(self, values: np.ndarray) -> None:
        """Absorb a NumPy array (default: loop; subclasses vectorise)."""
        self.update_many(np.asarray(values).tolist())

    def update_counts(self, values: Iterable, counts: Iterable[int]) -> None:
        """Absorb ``values[i]`` ``counts[i]`` times: ``update`` over the rows
        with equal values grouped together, one weighted call per value."""
        for value, count in zip(values, counts):
            self.update(value, count)

    @abc.abstractmethod
    def merge(self, other: "Sketch") -> None:
        """Merge another sketch of the same type and parameters into this one."""

    def copy(self) -> "Sketch":
        """An independent sketch with the same parameters and state."""
        raise NotImplementedError(f"{type(self).__name__} does not support copy()")

    def merged(self, other: "Sketch") -> "Sketch":
        """A new sketch over both inputs' data; neither is mutated (default:
        ``merge`` into a ``copy()``; subclasses may combine directly)."""
        combined = self.copy()
        combined.merge(other)
        return combined

    def _clone(self, **fresh) -> "Sketch":
        """This sketch's attributes on a new object, ``fresh`` replacing the
        mutable ones: what ``copy()`` returns, given a copy of each."""
        clone = object.__new__(type(self))
        clone.__dict__.update(vars(self), **fresh)
        return clone

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate memory footprint of the sketch state in bytes."""

    # -- helpers for subclasses ------------------------------------------------
    def _require_same_type(self, other: "Sketch") -> None:
        if type(self) is not type(other):
            raise SketchMergeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise SketchMergeError(message)
