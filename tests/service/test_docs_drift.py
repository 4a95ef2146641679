"""The documents and the readers of ``/metrics`` say what the code does.

* The provenance docs/API.md's first example prints for a plain miss is
  the provenance a :class:`Workspace` response carries — no more keys,
  no fewer.
* ``/metrics`` ``workspace.pipeline`` carries every counter the
  benchmark harness (``benchmarks/perf/perf_loadgen.py``) and
  ``examples/server_demo.py`` read from it.
* docs/OBSERVABILITY.md's table of Prometheus families is the renderer's
  declaration, row for row.
* docs/ANALYSIS.md's table of lock roles is ``lockhook.ROLES``, row for
  row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.data.datasets import load_oecd
from repro.obs.lockhook import ROLES
from repro.server import ReproClient, ServerConfig, serving
from repro.server.metrics import PROMETHEUS_FAMILIES
from repro.service import InsightRequest, Workspace

ROOT = Path(__file__).resolve().parents[2]


def _documented_miss_provenance() -> dict:
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    match = re.search(r"print\(response\.provenance\)\s*#\s*(\{.*?\})", text,
                      flags=re.DOTALL)
    assert match, "API.md no longer prints a response's provenance"
    return ast.literal_eval(re.sub(r"\n\s*#", "", match.group(1)))


def _pipeline_counters_read() -> set[str]:
    """The ``workspace.pipeline`` keys the harness and the demo read."""
    harness = (ROOT / "benchmarks" / "perf" / "perf_loadgen.py").read_text(
        encoding="utf-8")
    demo = (ROOT / "examples" / "server_demo.py").read_text(encoding="utf-8")
    read = set(re.findall(r"workspace\.pipeline\.(\w+)", harness))
    read |= set(re.findall(r"\['pipeline'\]\['(\w+)'\]", demo))
    return read


def test_api_md_documents_a_plain_miss_provenance():
    workspace = Workspace()
    workspace.register("oecd", load_oecd)
    response = workspace.handle(InsightRequest(
        dataset="oecd",
        insight_classes=("linear_relationship", "skew", "outliers"),
        top_k=3,
    ))
    documented = _documented_miss_provenance()
    assert set(documented) == set(response.provenance)
    assert documented == response.provenance


def test_metrics_carry_the_pipeline_counters_their_readers_read():
    read = _pipeline_counters_read()
    assert read >= {"n_queries", "enumerations", "shared_queries",
                    "score_evaluations"}
    workspace = Workspace()
    workspace.register("oecd", load_oecd)
    with serving(workspace, ServerConfig(port=0)) as handle:
        with ReproClient(*handle.address) as client:
            client.insights(InsightRequest(dataset="oecd",
                                           insight_classes=("skew",)))
            pipeline = client.metrics()["workspace"]["pipeline"]
    assert read <= set(pipeline)
    assert "index_hits" in pipeline


def _declared_family_rows() -> list[tuple[str, str, str, str]]:
    rows = []
    for family in PROMETHEUS_FAMILIES:
        labels = [f'{key}="{value}"' for key, value in family.labels]
        labels += [key for key in re.findall(r"\{(\w+)\}", family.path)
                   if f"{{{key}}}" not in family.name]
        rows.append((f"`{family.name}`", family.kind,
                     ", ".join(f"`{label}`" for label in labels) or "—",
                     f"`{family.path}`"))
    return rows


def _documented_family_rows() -> list[tuple[str, ...]]:
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    section = text.split("### Prometheus families", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    return [tuple(cell.strip() for cell in line.strip("|").split(" | "))
            for line in lines]


def test_observability_md_lists_every_prometheus_family():
    assert _documented_family_rows() == _declared_family_rows()


def _documented_lock_roles() -> list[tuple[str, int]]:
    text = (ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    section = text.split("### `lock-order`", 1)[1].split("\n#", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    return [(role.strip().strip("`"), int(level)) for role, level, *_ in rows]


def test_analysis_md_lists_every_lock_role():
    assert _documented_lock_roles() == list(ROLES.items())
