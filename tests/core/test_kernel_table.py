"""docs/API.md's kernel table is the registry's kernel-scored classes.

The table under "The shape of an insight class" maps each class that
scores a whole request with array kernels to the ``repro.stats``
functions it calls.  A class that gains or loses ``score_complete``, or a
kernel that is renamed, must show up in the table in the same change.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro import default_registry
from repro.core.insight import KernelScoredInsightClass

API_MD = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def _rows() -> dict[str, list[str]]:
    """``{class: [module.function, ...]}`` from the table's first two
    columns."""
    section = API_MD.read_text(encoding="utf-8").split(
        "### The shape of an insight class", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\s*\| `([a-z_]+)` \| ((?:`[a-z_.]+`(?:, )?)+) \|",
                      section, flags=re.MULTILINE)
    assert len(rows) == len(dict(rows)), "a class is listed twice"
    return {name: re.findall(r"`([a-z_.]+)`", kernels) for name, kernels in rows}


def test_the_class_column_is_the_kernel_scored_classes():
    registry = default_registry()
    expected = {name for name in registry.names()
                if isinstance(registry.get(name), KernelScoredInsightClass)}
    assert set(_rows()) == expected


def test_every_kernel_named_is_a_public_stats_function():
    for name, kernels in _rows().items():
        assert kernels, name
        for kernel in kernels:
            module, function = kernel.rsplit(".", 1)
            assert not function.startswith("_"), kernel
            assert callable(getattr(
                importlib.import_module(f"repro.stats.{module}"), function)), kernel
