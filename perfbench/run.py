"""phylokit benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_n7 --seed 1 --seconds 25 --trace 0

Set-up (import phylokit, build the inputs) is repeated at least
SETUP_REPEATS times, and on until SETUP_SECONDS have passed or
SETUP_MAX_REPEATS are done; its median is ``setup_s``.  Then whole
passes over the workload's items run back to back, at least one, until
the timed passes reach ``--seconds`` less half a median pass, so the
timed total ends within half a pass of ``--seconds``; the collector
runs, untimed, before each.  Every pass is checked against
``reference.json``; a wrong value or an invalid witness makes the run
incorrect, prints ``"correct": false`` without metrics and exits 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and reports the per-layer metrics of
``tracing.py``; it also fails the run when a layer predicted idle on the
workload was called.  The last stdout line is the result; the line
before it records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25

END_TO_END = [
    {"name": "setup_s", "unit": "s"},
    {"name": "wall_s", "unit": "s"},
    {"name": "ok_per_s", "unit": "1/s"},
    {"name": "latency_p50_ms", "unit": "ms"},
    {"name": "latency_p90_ms", "unit": "ms"},
    {"name": "ok_ratio", "unit": "ratio"},
    {"name": "peak_rss_mb", "unit": "MB"},
]


def _import_phylokit():
    """A fresh import of the package and the submodules the workloads use."""
    for name in [m for m in sys.modules if m.split(".")[0] == "phylokit"]:
        del sys.modules[name]
    pk = importlib.import_module("phylokit")
    importlib.import_module("phylokit.generate")
    importlib.import_module("phylokit.sweep")
    return pk


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def _item_latencies(checks: list) -> list[float]:
    """Each validated item's median latency over the passes that validated it.

    A pass's single slow moment then moves no percentile; what is left is
    the spread of the items themselves.
    """
    per_item: dict[object, list[float]] = {}
    for c in checks:
        for item, latency in c.ok_latencies.items():
            per_item.setdefault(item, []).append(latency)
    return [statistics.median(values) for values in per_item.values()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phylokit" / "__init__.py").is_file():
        print(f"error: no phylokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not reference.REFERENCE_PATH.is_file():
        print(f"error: missing {reference.REFERENCE_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        started = time.perf_counter()
        pk = _import_phylokit()
        inputs = workload.setup(pk, args.seed)
        setup_times.append(time.perf_counter() - started)
    expected = workload.prepare(pk, inputs, reference.load(), args.seed)
    gc.collect()
    gc.freeze()  # keep the benchmark's own tables out of the collector's way

    def run_passes() -> tuple[list[float], list]:
        """Whole passes, each checked at once, until about ``--seconds`` are timed."""
        walls, checks = [], []
        while not walls or sum(walls) + statistics.median(walls) / 2 < args.seconds:
            gc.collect()  # every pass starts from the same heap
            wall, items = workload.run_pass(pk, inputs)
            walls.append(wall)
            checks.append(workload.check(items, inputs, expected, pk))
        return walls, checks

    wrong = []
    if args.trace:
        untraced_wall, items = workload.run_pass(pk, inputs)
        wrong += workload.check(items, inputs, expected, pk).wrong
        del items
        tracer = tracing.Tracer()
        tracer.install()
        try:
            walls, checks = run_passes()
        finally:
            tracer.uninstall()
        wrong += tracer.separation_violations(args.workload)
    else:
        walls, checks = run_passes()

    attempted = sum(c.attempted for c in checks)
    ok = sum(c.ok for c in checks)
    wrong += [msg for c in checks for msg in c.wrong]
    errors: dict[str, int] = {}
    for c in checks:
        for cls, count in c.failed.items():
            errors[cls] = errors.get(cls, 0) + count
    latencies = _item_latencies(checks)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PHYLOKIT_THREADS": os.environ.get("PHYLOKIT_THREADS"),
        "passes": len(walls),
        "items_per_pass": attempted // len(walls),
        "latency_items": len(latencies),
        "failed_by_class": errors,
        "setup_runs_s": setup_times,
        "pass_wall_s": walls,
    }))

    if wrong:
        for msg in wrong[:20]:
            print(f"wrong: {msg}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted - ok, "metrics": {}}))
        return 1

    if args.trace:
        values = tracer.metrics(len(walls), attempted)
        for cls in tracing.ERROR_CLASSES:
            values[f"errors.{cls}"] = errors.get(cls, 0) / len(walls)
        values["trace.outside_s"] = (sum(walls) - tracer.self_time_total()) / len(walls)
        values["trace.overhead_s"] = statistics.median(walls) - untraced_wall
        specs = tracing.per_layer_metric_specs()
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "ok_per_s": statistics.median(c.ok_results / wall for c, wall in zip(checks, walls)),
            "latency_p50_ms": 1000 * _percentile(latencies, 50) if latencies else 0.0,
            "latency_p90_ms": 1000 * _percentile(latencies, 90) if latencies else 0.0,
            "ok_ratio": ok / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = END_TO_END
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": attempted - ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
