"""Record benchmark runs of a change, and optionally of its parent, in BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench.py --pr 12 --seed 1 --seconds 25
    python3 tools/bench.py --pr 12 --seed 1 --seconds 25 --parent ../parent --pairs 3
    python3 tools/bench.py --pr 12 --seed 7 --seconds 25 --workload enumerate_n8 --pairs 5 --parent ../parent

Each run is one ``python3 perfbench/run.py`` process on one workload;
its result line (the last stdout line) and the info line before it are
stored verbatim.  The workloads default to every workload named in
``BENCHMARK.json``.  ``--parent`` names a second checkout, usually of
the parent commit; each pair then runs both checkouts back to back,
parent first in the first pair, change first in the second and so on,
so a drift of the host does not favour either side.  Every run gets a
fresh, empty ``PYTHONPYCACHEPREFIX``, so ``setup_s`` (which re-imports
phylokit) compares code, not whichever bytecode caches a checkout
happens to hold.  Runs are appended
to the file, so several invocations (other seeds, other workloads)
build up one record.  ``summary`` holds, per workload and side, the median of every
end-to-end metric over that side's runs.  When both sides ran a workload it
also holds ``change_vs_parent``: per metric, the change's median relative to
the parent's (``relative``, 0.05 meaning 5 % higher) and whether it moved
past its ``BENCHMARK.json`` bound in the metric's worse direction
(``past_bound``).  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_of(checkout: Path) -> str | None:
    """The checkout's HEAD, with ``+dirty`` when its tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout).returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench process: its exit code and its two last stdout lines, parsed.

    A run that finds a wrong value exits 1 with ``"correct": false``; it
    is recorded like any other, and its side gets no metrics from it.
    The run compiles phylokit into an empty bytecode cache of its own.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ],
            cwd=checkout,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPYCACHEPREFIX": cache},
        )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(
            f"perfbench failed in {checkout} on {workload} (exit {proc.returncode}):\n{proc.stderr}"
        )
    return {"exit": proc.returncode, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def compare(change: dict, parent: dict) -> dict:
    """Per metric, the change's median relative to the parent's, and whether it is past its bound."""
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        if name not in change or name not in parent or parent[name] == 0:
            continue
        relative = change[name] / parent[name] - 1
        worse = relative if metric["better"] == "lower" else -relative
        out[name] = {"relative": relative, "past_bound": worse > metric["bound"]}
    return out


def summarise(runs: list[dict]) -> dict:
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    values: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        side = values.setdefault(run["workload"], {}).setdefault(run["side"], {})
        for name in metrics:
            metric = run["result"]["metrics"].get(name)
            if metric is not None:
                side.setdefault(name, []).append(metric["value"])
    summary = {}
    for workload, by_side in values.items():
        medians = {
            side: {name: statistics.median(samples) for name, samples in by_metric.items()}
            for side, by_metric in by_side.items()
        }
        if "change" in medians and "parent" in medians:
            medians["change_vs_parent"] = compare(medians["change"], medians["parent"])
        summary[workload] = medians
    return summary


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json at the repository root")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=1, help="runs per side and workload")
    parser.add_argument("--parent", type=Path, help="a second checkout to run against")
    parser.add_argument("--workload", action="append", choices=names, help="default: all of BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {args.parent}")
        sides["parent"] = args.parent.resolve()
    out_path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out_path.read_text()) if out_path.exists() else {"pr": args.pr, "runs": []}
    commits = {side: commit_of(path) for side, path in sides.items()}

    for workload in args.workload or names:
        for pair in range(args.pairs):
            order = list(sides)
            if pair % 2 == 0:
                order.reverse()
            for side in order:
                run = run_once(sides[side], workload, args.seed, args.seconds, args.trace)
                record["runs"].append({
                    "side": side,
                    "commit": commits[side],
                    "workload": workload,
                    "pair": pair,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    **run,
                })
                wall = run["result"]["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: exit {run['exit']}, wall_s {wall}", file=sys.stderr)
                record["summary"] = summarise(record["runs"])
                out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
