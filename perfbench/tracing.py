"""Outside-in tracing: wrap phylokit's public functions from the benchmark.

Every function named in ``LAYERS`` is replaced, in every phylokit module
that binds it, by a wrapper that counts calls and measures inclusive
and self time.  Self time is a call's duration minus the time spent in
wrapped calls it made.  Inclusive (``busy_s``) time counts only the
outermost active call of a function, so recursion is not counted twice.
Nothing inside phylokit changes; ``uninstall`` restores every binding.

A few layers also get a ratio measured from their inputs and outputs
(see ``Tracer._observe``).  No wait times are recorded: a closed loop
with one caller never waits on a layer.
"""

from __future__ import annotations

import sys
import time

# module.function -> workloads whose timed phase must not call it at all.
LAYERS = {
    "exact.phylogeny_number_exact": ("competition_n7", "enumerate_n8"),
    "exact.competition_number_exact": ("sweep_n7", "compute_mix", "enumerate_n8"),
    "generate.connected_graphs": ("compute_mix", "competition_n7"),
    "generate.canonical_graph": ("compute_mix", "competition_n7"),
    "generate.canonical_graph6": ("compute_mix", "competition_n7"),
    "structure.census": ("enumerate_n8",),
    "structure.edge_clique_cover_number": ("enumerate_n8",),
    "structure.maximal_cliques": ("enumerate_n8",),
    "formulas.reduce_graph": ("competition_n7", "enumerate_n8"),
    "formulas.formula_dispatch": ("competition_n7", "enumerate_n8"),
    "formulas.bounds_k4free": ("competition_n7", "enumerate_n8"),
    "formulas.lift_reductions": ("competition_n7", "enumerate_n8"),
    "formulas.phylogeny_number_auto": ("competition_n7", "enumerate_n8"),
    "witness.construct_triangle_free": ("competition_n7", "enumerate_n8"),
    "witness.construct_gminus_caring": ("competition_n7", "enumerate_n8"),
    "witness.construct_k4free_upper": ("competition_n7", "enumerate_n8"),
    "derived.validate_phylogeny_digraph": ("enumerate_n8",),
    "derived.check_nontriangle_edge_arcs": ("enumerate_n8",),
    "sweep.sweep_one": ("compute_mix", "competition_n7", "enumerate_n8"),
}

# Failed items by exception class; "other" is any class not listed.
ERROR_CLASSES = (
    "NotAcyclic",
    "ArcIntoBase",
    "NotInduced",
    "TooLarge",
    "AssertionError",
    "other",
)

# Derived per-layer metrics: name -> (unit, better).
RATIOS = {
    "exact.phylogeny_number_exact.budgets": ("count", "lower"),
    "generate.dedup_ratio": ("ratio", "higher"),
    "structure.census.calls_per_graph": ("ratio", "lower"),
    "formulas.reduce_graph.kernel_vertex_ratio": ("ratio", "lower"),
    "formulas.formula_dispatch.hit_ratio": ("ratio", "higher"),
    "formulas.bounds_k4free.exact_ratio": ("ratio", "higher"),
}


def per_layer_metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in BENCHMARK.json form."""
    specs = []
    for name in LAYERS:
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.busy_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in RATIOS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    for cls in ERROR_CLASSES:
        specs.append({"name": f"errors.{cls}", "unit": "count", "better": "lower"})
    specs.append({"name": "trace.outside_s", "unit": "s", "better": "lower"})
    specs.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return specs


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in LAYERS}
        self.counters = {
            "budgets": 0,
            "kept": 0,
            "candidates": 0,
            "kernel_vertices": 0,
            "input_vertices": 0,
            "formula_exact": 0,
            "bounds_exact": 0,
        }
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "phylokit"]
        for name in LAYERS:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"phylokit.{module_name}"], func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, original):
        stat = self.stats[name]
        children = self._children
        observe = self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.depth += 1
            children.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                inner = children.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - inner
                if stat.depth == 0:
                    stat.busy += elapsed
                if children:
                    children[-1] += elapsed
            observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "exact.phylogeny_number_exact":
            c["budgets"] += result.value + 1  # deepening passes: budgets 0..value
        elif name == "generate.connected_graphs":
            c["kept"] += len(result)
        elif name == "generate.canonical_graph":
            if self.stats["generate.connected_graphs"].depth:
                c["candidates"] += 1
        elif name == "formulas.reduce_graph":
            c["input_vertices"] += args[0].n
            c["kernel_vertices"] += sum(k.n for k in result[0])
        elif name == "formulas.formula_dispatch":
            c["formula_exact"] += result.kind == "exact"
        elif name == "formulas.bounds_k4free":
            c["bounds_exact"] += result.kind == "exact"

    def metrics(self, passes: int, items: int) -> dict[str, float]:
        """Per-pass figures for every wrapped function, plus the ratios.

        ``items`` is the number of input graphs over all traced passes.
        """
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls / passes
            out[f"{name}.busy_s"] = stat.busy / passes
            out[f"{name}.self_s"] = stat.self_time / passes
        c = self.counters
        calls = {name: stat.calls for name, stat in self.stats.items()}
        out["exact.phylogeny_number_exact.budgets"] = c["budgets"] / passes
        out["generate.dedup_ratio"] = _ratio(c["kept"], c["candidates"])
        out["structure.census.calls_per_graph"] = _ratio(calls["structure.census"], items)
        out["formulas.reduce_graph.kernel_vertex_ratio"] = _ratio(c["kernel_vertices"], c["input_vertices"])
        out["formulas.formula_dispatch.hit_ratio"] = _ratio(c["formula_exact"], calls["formulas.formula_dispatch"])
        out["formulas.bounds_k4free.exact_ratio"] = _ratio(c["bounds_exact"], calls["formulas.bounds_k4free"])
        return out

    def self_time_total(self) -> float:
        return sum(stat.self_time for stat in self.stats.values())

    def separation_violations(self, workload: str) -> list[str]:
        """Layers predicted idle on this workload that were called anyway."""
        return [
            f"{name} called {self.stats[name].calls} times on {workload}, predicted idle"
            for name, idle_on in LAYERS.items()
            if workload in idle_on and self.stats[name].calls
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
