"""The one benchmark command.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --baseline LEDGER.json...

Prints every metric by name with its unit, checks every answer, exits
non-zero on a wrong answer (or a hole in span coverage) without
printing a result.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last)
workload run: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
``--compare`` judges two ledgers pair by pair under the bounds of
``BASELINE.json`` beside this file; ``--baseline`` prints a new one
from ledgers.  See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # Only the benchmark's own files are here: there is no program to run.
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import perf_inprocess  # noqa: E402
import perf_loadgen  # noqa: E402
import perf_tracing  # noqa: E402
import perf_workloads as wl  # noqa: E402
from perf_metrics import (  # noqa: E402
    SPAN_KEYS, compare_runs, metric, pair_bounds,
)

WORKROOT = ROOT / ".bench_work"
BASELINE = HERE / "BASELINE.json"

#: How a traced run divides ``--seconds``: the untraced server (for the
#: counters only it can give), the traced replay, the bare replay.
_TRACE_SPLIT = (0.4, 0.4, 0.2)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: wl.Sizes, workroot: Path = WORKROOT) -> dict:
    """Run one workload; the run record (metrics by name, spans if traced)."""
    with perf_loadgen.scratch_dir(workroot, workload) as workdir:
        if not trace:
            live = perf_loadgen.RUNNERS[workload](seed, sizes, seconds, workdir)
            metrics, spans = live.metrics, None
        else:
            live, metrics, spans = _traced(workload, seed, seconds, sizes,
                                           workdir)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": True,
        "attempted": live.attempted, "failed": live.failed,
        "metrics": metrics, "spans": spans,
    }
    if trace:
        # What the shortened server phase of a traced run saw: one
        # set-up, a fraction of the window — context for the per-layer
        # numbers, not comparable with an end-to-end run's figures.
        record["server_phase"] = live.metrics
    return record


def _traced(workload: str, seed: int, seconds: float, sizes: wl.Sizes,
            workdir: Path):
    """Server phase, traced replay, bare replay -> per-layer metrics."""
    live_share, traced_share, bare_share = _TRACE_SPLIT
    # The server phase is here for its counters and its traffic mix, not
    # for its end-to-end figures: one set-up, one probe, one catch-up.
    live = perf_loadgen.RUNNERS[workload](
        seed, dataclasses.replace(sizes, setups=1, exact_probes=1, catchups=1),
        seconds * live_share, workdir)

    with perf_tracing.install() as tracing:
        traced = perf_inprocess.REPLAYS[workload](
            seed, sizes, seconds * traced_share, workdir, live)
        tracing.check_coverage(workload)
        all_spans = tracing.recorder.spans
        spans = tracing.recorder.window(*traced.window)
    bare = perf_inprocess.REPLAYS[workload](
        seed, sizes, seconds * bare_share, workdir, live)

    # The same inputs must give the same answers in and out of process.
    for replay in (traced, bare):
        shared = min(len(live.answers), len(replay.answers))
        if live.answers[:shared] != replay.answers[:shared]:
            raise perf_loadgen.WrongAnswer(
                f"{workload}: in-process answers differ from the server's")

    metrics = dict(live.counters)
    metrics.update(perf_inprocess.layer_metrics(spans, all_spans, traced))
    metrics["server.transport_ms"] = perf_inprocess.transport_ms(
        live.latencies, bare)
    metrics["bench.trace_overhead_share"] = metric(
        (bare.ops_per_s - traced.ops_per_s) / bare.ops_per_s, "share")
    metrics["bench.accounted_share"] = metric(
        perf_inprocess.accounted_share(metrics, traced), "share")
    return live, metrics, all_spans


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def result_line(record: dict, spec: dict) -> str:
    """The contract's last line: exactly the section's metrics, all of them.

    A per-layer metric with nothing to measure on the workload — a
    ratio whose base is empty, a counter of a server the workload does
    not keep — has no value in the record, and the table and ``--out``
    leave it out.  The line must carry a number under every name on
    every run, so there, and only there, it reads 0.
    """
    section = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in section:
        measured = record["metrics"].get(entry["name"])
        if measured is None and not record["trace"]:
            raise KeyError(f"end-to-end metric {entry['name']} was not measured")
        metrics[entry["name"]] = measured or metric(0.0, entry["unit"])
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def print_table(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"{record['seconds']:g}s  {kind}  "
          f"attempted={record['attempted']} failed={record['failed']}")
    width = max(len(name) for name in record["metrics"])
    for name in sorted(record["metrics"]):
        measured = record["metrics"][name]
        print(f"  {name:<{width}}  {measured['value']:>14.6g} {measured['unit']}")


def fingerprint() -> dict:
    """Where and on what these numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def append_out(path: Path, records: list[dict]) -> None:
    """Add the runs to the ledger at ``path`` (created if absent).

    Spans of a traced run go beside it, in ``<path>.spans.json``.
    """
    ledger = (json.loads(path.read_text()) if path.exists()
              else {"runs": []})
    for record in records:
        spans = record.pop("spans")
        if spans is not None:
            Path(f"{path}.spans.json").write_text(json.dumps(
                {"workload": record["workload"], "seed": record["seed"],
                 "keys": SPAN_KEYS, "spans": spans}))
        ledger["runs"].append({**fingerprint(), **record})
    path.write_text(json.dumps(ledger, indent=1))


def _ledger_runs(paths: list[str]) -> list[dict]:
    return [run for path in paths
            for run in json.loads(Path(path).read_text())["runs"]]


def compare(base_path: str, change_path: str) -> int:
    """Print one block per workload; 1 if any pair regressed."""
    bounds = json.loads(BASELINE.read_text())["end_to_end"]
    rows, regressed = compare_runs(
        _ledger_runs([base_path]), _ledger_runs([change_path]), bounds)
    for row in rows:
        print(row["workload"])
        for name, cell in row["cells"].items():
            bound = ("no bound" if cell["bound"] is None
                     else f"bound {cell['bound']:.1%}")
            print(f"  {name:<24}{cell['worse_by']:>+9.1%}  {bound:<12} "
                  f"{cell['verdict']}")
    print("(signed so that + is worse; unresolved = under 5 runs a side, or "
          "run-to-run spread beyond the bound; diagnostic = no bound)")
    return 1 if regressed else 0


def baseline(paths: list[str]) -> dict:
    """What ``BASELINE.json`` holds, from the runs of these ledgers."""
    runs = _ledger_runs(paths)
    layers: dict[str, dict[str, list]] = {}
    for run in runs:
        if run.get("trace"):
            for name, measured in run["metrics"].items():
                layers.setdefault(run["workload"], {}).setdefault(
                    name, []).append(measured)
    first = runs[0]
    return {
        "measured_on": {
            **{key: first[key] for key in ("git_commit", "nproc", "cpu_model",
                                           "python", "numpy", "scipy")},
            "seconds": first["seconds"],
            "seeds": sorted({run["seed"] for run in runs})},
        "end_to_end": pair_bounds(runs),
        "per_layer": {
            workload: {name: metric(statistics.median(m["value"] for m in found),
                                    found[0]["unit"])
                       for name, found in sorted(per_metric.items())}
            for workload, per_metric in layers.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, measures nothing")
    parser.add_argument("--out", type=Path,
                        help="append the run records to this JSON ledger")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledgers under BASELINE.json's bounds")
    parser.add_argument("--baseline", nargs="+", metavar="LEDGER.json",
                        help="print a new BASELINE.json from these ledgers")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.baseline:
        print(json.dumps(baseline(args.baseline), indent=1))
        return 0

    sizes = wl.SMOKE if args.smoke else wl.FULL
    records = []
    for workload in args.workload or workloads:
        record = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), sizes)
        print_table(record)
        records.append(record)
    line = result_line(records[-1], spec)
    if args.out:
        append_out(args.out, records)
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
