"""Exhaustive small-graph verification: every claim checked on every graph.

For each graph the sweep computes the exact value, every applicable
formula and bound, optionally the brute-force oracle, and the witness
constructions, then records one boolean per claimed relationship.  A
single failed boolean is a bug somewhere, and the CLI turns it into a
nonzero exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .derived import check_nontriangle_edge_arcs, validate_phylogeny_digraph
from .errors import ArcRuleViolated, CertificateError, HypothesisViolated, Infeasible
from .exact import SOLVER_CAP_DEFAULT, oracle_phylogeny_number, phylogeny_number_exact
from .formulas import bounds_k4free, clique_cover_bound, formula_dispatch
from .generate import canonical_graph6, connected_graphs_upto, graph6_decode
from .graphs import Graph
from .structure import census, edge_clique_cover_number
from .witness import construct_gminus_caring, construct_k4free_upper

__all__ = ["SweepRecord", "SweepOptions", "run_sweep", "sweep_graphs"]

ORACLE_SWEEP_VERTEX_CAP = 6
ORACLE_SWEEP_BUDGET = 3


@dataclass(frozen=True)
class SweepOptions:
    only_k4free_diamond_scope: bool = False
    with_oracle: bool = False
    solver_cap: int = SOLVER_CAP_DEFAULT


@dataclass
class SweepRecord:
    """One graph's numbers plus the agreement booleans for each claim.

    ``numbers`` holds the JSON record from "id" to "oracle_infeasible",
    in its order; ``bounds`` the sandwich's ends, for graphs in its scope.
    """

    numbers: dict
    checks: dict[str, bool] = field(default_factory=dict)
    bounds: dict | None = None
    elapsed_ms: int = 0

    @property
    def graph_id(self) -> str:
        return self.numbers["id"]

    @property
    def n(self) -> int:
        return self.numbers["n"]

    @property
    def exact(self) -> int:
        return self.numbers["exact"]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        payload = {
            **self.numbers,
            "checks": dict(self.checks),
            "ok": self.ok,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.bounds is not None:
            payload["bounds"] = dict(self.bounds)
        return payload


def in_k4free_diamond_scope(graph: Graph) -> bool:
    report = census(graph)
    return not report.has_k4 and report.diamonds_edge_disjoint


def sweep_one(graph: Graph, options: SweepOptions = SweepOptions()) -> SweepRecord:
    started = time.perf_counter()
    report = census(graph)
    checks: dict[str, bool] = {}

    # the solver checks its cap before labelling the graph, and the id
    # right after it reuses that labelling
    solved = phylogeny_number_exact(graph, cap=options.solver_cap)
    graph_id = canonical_graph6(graph)
    exact = solved.value
    witness = solved.witness
    try:
        validate_phylogeny_digraph(witness.digraph, witness.base, graph)
        checks["witness_valid"] = witness.extra_count == exact
    except CertificateError:
        checks["witness_valid"] = False
    try:
        check_nontriangle_edge_arcs(graph, witness.digraph, witness.base)
        checks["nontriangle_arc_rules"] = True
    except ArcRuleViolated:
        checks["nontriangle_arc_rules"] = False

    formula = formula_dispatch(graph)
    formula_value = formula.value if formula.kind == "exact" else None
    if formula_value is not None:
        checks["formula_agrees"] = formula_value == exact

    theta = edge_clique_cover_number(graph, cap=options.solver_cap)
    clique_bound = clique_cover_bound(graph.n, theta)
    checks["clique_cover_bound_holds"] = clique_bound <= exact

    bounds = None
    try:
        outcome = bounds_k4free(graph)
    except HypothesisViolated:
        outcome = None
    if outcome is not None:
        if outcome.kind == "exact":
            bounds = {"lower": outcome.value, "upper": outcome.value, "exact": outcome.value}
        else:
            bounds = {"lower": outcome.lower, "upper": outcome.upper, "exact": None}
        checks["sandwich_holds"] = bounds["lower"] <= exact <= bounds["upper"]
        checks["theta_identity"] = theta == graph.m - 2 * report.t + report.d
        caring, caring_optimal = construct_gminus_caring(graph)
        comp_count = len(report.g_minus_components)
        expected_caring = (
            graph.m - graph.n - 2 * report.t + report.d + comp_count
        )
        ok = caring.extra_count == expected_caring
        if caring_optimal:
            ok = ok and caring.extra_count == exact
        checks["caring_construction"] = ok
        trace = construct_k4free_upper(graph)
        upper_budget = graph.m - graph.n - report.t + 1
        ok = trace.certificate.extra_count <= upper_budget
        if comp_count == 2 * report.t - report.d + 1:
            ok = ok and trace.certificate.extra_count == exact
        checks["upper_construction"] = ok

    oracle_value = None
    oracle_infeasible = False
    if options.with_oracle and graph.n <= ORACLE_SWEEP_VERTEX_CAP:
        try:
            oracle_value = oracle_phylogeny_number(graph, ORACLE_SWEEP_BUDGET)
            checks["oracle_agrees"] = oracle_value == exact
        except Infeasible:
            oracle_infeasible = True
            checks["oracle_agrees"] = exact > ORACLE_SWEEP_BUDGET

    numbers = {
        "id": graph_id,
        "n": graph.n,
        "m": graph.m,
        "t": report.t,
        "d": report.d,
        "has_k4": report.has_k4,
        "diamonds_edge_disjoint": report.diamonds_edge_disjoint,
        "exact": exact,
        "formula": formula_value,
        "clique_cover_bound": clique_bound,
        "oracle": oracle_value,
        "oracle_infeasible": oracle_infeasible,
    }
    return SweepRecord(numbers, checks, bounds, int((time.perf_counter() - started) * 1000))


def sweep_graphs(
    max_n: int,
    graph6_lines: Iterable[str] | None = None,
) -> Iterator[Graph]:
    """The input stream: parsed graph6 lines, or the native generator."""
    if graph6_lines is not None:
        for line in graph6_lines:
            line = line.strip()
            if line:
                yield graph6_decode(line)
    else:
        yield from connected_graphs_upto(max_n)


def _worker(args: tuple[str, SweepOptions]) -> SweepRecord:
    line, options = args
    return sweep_one(graph6_decode(line), options)


def run_sweep(
    graphs: Iterable[Graph],
    options: SweepOptions = SweepOptions(),
    threads: int = 1,
) -> Iterator[SweepRecord]:
    """Sweep records in input order, optionally fanned out over processes.

    ``threads`` above 1 runs that many worker processes.  Output order
    never depends on scheduling.
    """
    graphs = list(graphs)
    if options.only_k4free_diamond_scope:
        graphs = [g for g in graphs if in_k4free_diamond_scope(g)]
    if threads <= 1:
        for g in graphs:
            yield sweep_one(g, options)
        return
    from multiprocessing import Pool

    from .generate import graph6_encode

    payload = [(graph6_encode(g), options) for g in graphs]
    with Pool(processes=threads) as pool:
        yield from pool.imap(_worker, payload, chunksize=8)
