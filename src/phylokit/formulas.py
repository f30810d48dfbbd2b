"""Closed forms, bounds, reductions and decompositions for phylogeny numbers.

The closed forms cover connected graphs with at most two triangles,
keyed on how many components survive deleting all triangle edges.  For
connected K4-free graphs with pairwise edge-disjoint diamonds the number
is sandwiched between m - n - 2t + d + 1 and m - n - t + 1, with each
end exact under a component-count condition on the triangle-deleted
graph.  Reductions peel pendant vertices and complete leaf blocks, and
two decomposition rules turn part values into bounds or exact values.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .derived import Assembly, PhyloCertificate
from .errors import (
    ConditionViolated,
    CrossCheckFailed,
    HypothesisViolated,
    NotTriangleFree,
    TooLarge,
)
from .exact import (
    SOLVER_CAP_DEFAULT,
    competition_number_exact,
    phylogeny_number_exact,
)
from .graphs import (
    Graph,
    complete_graph,
    connected_components,
    cut_vertices_and_blocks,
    grid_2xk,
)
from .results import PhyloResult
from .structure import (
    StructureReport,
    census,
    clique_leaf_blocks,
    component_of_gminus,
    edge_clique_cover_number,
    is_vertex_transitive,
    pendant_vertices,
    sandwich_census,
)
from .witness import (
    Subgraph,
    check_subgraph_clique_conditions,
    construct_gminus_caring,
    construct_k4free_upper,
)

__all__ = [
    "formula_dispatch",
    "bounds_k4free",
    "lower_bound_clique_cover",
    "lower_bound_decomposition",
    "lower_bound_triangle_free_subgraph",
    "reduce_graph",
    "lift_reductions",
    "decompose_equal",
    "phylogeny_number_auto",
    "difference_family",
    "clique_cover_bound",
    "FAMILY_CAP",
]

FAMILY_CAP = 16


# ---------------------------------------------------------------------------
# Closed forms for connected graphs with at most two triangles.


def _two_disjoint_triangles_special(report: StructureReport) -> bool:
    """The middle case for two edge-disjoint triangles and three components.

    Fires when either (a) each component of the triangle-deleted graph
    carries exactly two triangle-vertex slots, where a vertex shared by
    both triangles fills two slots, or (b) some component contains all
    three vertices of one triangle.
    """
    comps = report.g_minus_components
    t1, t2 = report.triangle_list
    comp_id = report._component_index
    for triangle in (t1, t2):
        if len({comp_id[v] for v in triangle}) == 1:
            return True
    slots = [0] * len(comps)
    for triangle in (t1, t2):
        for v in triangle:
            slots[comp_id[v]] += 1
    return all(s == 2 for s in slots if s)


def _formula_connected(graph: Graph) -> tuple[int, str] | None:
    report = census(graph)
    n, m = graph.n, graph.m
    cc = len(report.g_minus_components)
    if report.t == 0:
        return max(0, m - n + 1), "formula:triangle-free"
    if report.t == 1:
        value = m - n if cc == 3 else m - n - 1
        return max(0, value), "formula:one-triangle"
    if report.t == 2 and report.d == 1:
        quad, shared = report.diamond_list[0]
        x, y = sorted(set(quad) - set(shared))
        same_side = component_of_gminus(report, x) == component_of_gminus(report, y)
        if cc == 4 or (cc == 3 and same_side):
            value = m - n - 1
        else:
            value = m - n - 2
        return max(0, value), "formula:two-triangles-sharing-edge"
    if report.t == 2 and report.d == 0:
        if cc == 5:
            value = m - n - 1
        elif cc == 4:
            value = m - n - 2
        elif cc == 3 and _two_disjoint_triangles_special(report):
            value = m - n - 2
        else:
            value = m - n - 3
        return max(0, value), "formula:two-triangles-edge-disjoint"
    return None


def formula_dispatch(graph: Graph) -> PhyloResult:
    """Closed-form value when every component has at most two triangles.

    Disconnected input is summed over components.  When some component
    has three or more triangles no formula applies and the result kind
    is "none".
    """
    total = 0
    tags: list[str] = []
    comps = connected_components(graph)
    for comp in comps:
        sub = graph if len(comps) == 1 else graph.induced_subgraph(comp)[0]
        outcome = _formula_connected(sub)
        if outcome is None:
            return PhyloResult(kind="none", method="none")
        value, tag = outcome
        total += value
        tags.append(tag)
    if len(tags) == 1:
        method = tags[0]
    else:
        method = "components(" + "+".join(tags) + ")"
    return PhyloResult(kind="exact", method=method, value=total)


# ---------------------------------------------------------------------------
# The sandwich for connected K4-free graphs with edge-disjoint diamonds.


def bounds_k4free(graph: Graph) -> PhyloResult:
    """Interval m-n-2t+d+1 .. m-n-t+1, upgraded to exact when possible.

    The lower end is exact when the triangle-deleted graph is connected;
    the upper end when it has exactly 2t-d+1 components.  The method tag
    records which equality clause fired.  Both fire only when t = 0, since
    edge-disjoint diamonds give d <= t/2, and then the two ends coincide.
    """
    report = sandwich_census(graph)
    n, m, t, d = graph.n, graph.m, report.t, report.d
    lower = max(0, m - n - 2 * t + d + 1)
    upper = max(0, m - n - t + 1)
    cc = len(report.g_minus_components)
    lower_eq = cc == 1
    upper_eq = cc == 2 * t - d + 1
    if lower_eq and upper_eq:
        return PhyloResult(kind="exact", method="k4free-bounds:both-equalities", value=lower)
    if lower_eq:
        return PhyloResult(kind="exact", method="k4free-bounds:lower-equality", value=lower)
    if upper_eq:
        return PhyloResult(kind="exact", method="k4free-bounds:upper-equality", value=upper)
    return PhyloResult(kind="interval", method="k4free-bounds", lower=lower, upper=upper)


def clique_cover_bound(n: int, theta: int) -> int:
    """theta_e - n + 1 clamped at zero; the bound needs a vertex, so 0 for n = 0."""
    return max(0, theta - n + 1) if n else 0


def lower_bound_clique_cover(graph: Graph, cap: int = SOLVER_CAP_DEFAULT) -> PhyloResult:
    """The clique-cover lower bound theta_e - n + 1, clamped at zero."""
    return PhyloResult(
        kind="lower_bound",
        method="clique-cover-bound",
        value=clique_cover_bound(graph.n, edge_clique_cover_number(graph, cap=cap)),
    )


# ---------------------------------------------------------------------------
# Decomposition machinery.


def _part_value(part: Subgraph) -> int:
    part_graph, _ = part.to_graph()
    return phylogeny_number_auto(part_graph).value


def lower_bound_decomposition(graph: Graph, parts: Sequence[Subgraph]) -> PhyloResult:
    """Sum of part values as a lower bound, for well-separated parts.

    The parts must (i) be pairwise edge-disjoint, (ii) have each of their
    maximal cliques maximal in the host, and (iii) have every maximal
    host clique inside them meet every maximal host clique outside them
    in at most one vertex.  Parts may be disconnected; nothing in the
    argument needs connectivity.
    """
    for idx, part in enumerate(parts):
        part.check_within(graph)
        for jdx in range(idx + 1, len(parts)):
            overlap = part.edges & parts[jdx].edges
            if overlap:
                raise ConditionViolated(
                    "i",
                    f"parts {idx} and {jdx} share edges {sorted(overlap)}",
                    detail=sorted(overlap),
                )
    for idx, part in enumerate(parts):
        try:
            check_subgraph_clique_conditions(graph, part)
        except ConditionViolated as exc:
            renamed = {"i": "ii", "ii": "iii"}[exc.condition]
            raise ConditionViolated(renamed, f"part {idx}: {exc}", detail=exc.detail) from None
    total = sum(_part_value(part) for part in parts)
    return PhyloResult(kind="lower_bound", method="subgraph-decomposition-bound", value=total)


def lower_bound_triangle_free_subgraph(graph: Graph, sub: Subgraph) -> PhyloResult:
    """One-part convenience: p(host) >= p(sub) for a triangle-free sub.

    Only requires the subgraph's maximal cliques to be maximal in the
    host; the separation condition then holds automatically because the
    subgraph's cliques have at most two vertices.
    """
    part_graph, _ = sub.to_graph()
    if census(part_graph).t:
        raise NotTriangleFree("the subgraph must be triangle-free")
    result = lower_bound_decomposition(graph, [sub])
    return PhyloResult(
        kind="lower_bound",
        method="triangle-free-subgraph-bound",
        value=result.value,
    )


# ---------------------------------------------------------------------------
# Value-preserving reductions.


def reduce_graph(graph: Graph) -> tuple[list[Graph], list[dict]]:
    """Peel pendant vertices and complete leaf blocks, split components.

    Returns (kernels, replayable log).  Both peels preserve the phylogeny
    number and component values add up, so the graph's number is the
    sum over kernels.  Complete components are dropped outright since
    their value is zero.
    """
    log: list[dict] = []
    kernels: list[Graph] = []
    comps = connected_components(graph)
    if len(comps) != 1:
        log.append({"op": "split-components", "components": [list(c) for c in comps]})
    for comp in comps:
        alive = list(comp)
        while True:
            sub, to_orig = graph.induced_subgraph(alive)
            # cliques first: both ends of a K2 are pendants, and peeling them
            # together would give each one the other as parent
            if sub.is_clique(sub.vertex_mask()):
                log.append({"op": "drop-clique-component", "vertices": [to_orig[v] for v in range(sub.n)]})
                alive = []
                break
            pendants = sorted(pendant_vertices(sub))
            if pendants:
                pairs = [
                    [to_orig[v], to_orig[sub.neighbors(v)[0]]]
                    for v in pendants
                ]
                log.append({"op": "delete-pendants", "pairs": pairs})
                dropped = {to_orig[v] for v in pendants}
                alive = [v for v in alive if v not in dropped]
                continue
            leaf_blocks = clique_leaf_blocks(sub)
            if leaf_blocks:
                block, cut = leaf_blocks[0]
                block_vertices = sorted({v for e in block for v in e})
                removed = [v for v in block_vertices if v != cut]
                log.append(
                    {
                        "op": "delete-clique-leaf-block",
                        "vertices": [to_orig[v] for v in removed],
                        "cut_vertex": to_orig[cut],
                        "block": [to_orig[v] for v in block_vertices],
                    }
                )
                dropped = {to_orig[v] for v in removed}
                alive = [v for v in alive if v not in dropped]
                continue
            break
        if alive:
            sub, to_orig = graph.induced_subgraph(alive)
            log.append({"op": "kernel", "index": len(kernels), "vertices": list(to_orig)})
            kernels.append(sub)
    return kernels, log


def lift_reductions(
    graph: Graph,
    log: Sequence[dict],
    kernel_certificates: Sequence[PhyloCertificate],
) -> PhyloCertificate:
    """Turn kernel certificates into one certificate for the whole graph.

    Kernels keep their digraphs (ids mapped through the log, arcs leaving
    an extra dropped); peeled pendants come back as arcs parent-to-pendant,
    peeled clique blocks as transitive tournaments rooted at the cut vertex.
    No extra vertices are added, so the lifted count is the sum of the
    kernel counts.
    """
    kernel_entries = [entry for entry in log if entry["op"] == "kernel"]
    if len(kernel_entries) != len(kernel_certificates):
        raise ValueError("one certificate per kernel is required")
    asm = Assembly(graph.n)
    for entry, cert in zip(kernel_entries, kernel_certificates):
        asm.absorb(cert, entry["vertices"])
    in_set = asm.in_set
    for entry in reversed(log):
        if entry["op"] == "delete-pendants":
            for v, neighbor in entry["pairs"]:
                in_set[v] |= 1 << neighbor
        elif entry["op"] in ("drop-clique-component", "delete-clique-leaf-block"):
            if entry["op"] == "drop-clique-component":
                ordered = sorted(entry["vertices"])
            else:
                rest = [v for v in entry["block"] if v != entry["cut_vertex"]]
                ordered = [entry["cut_vertex"]] + sorted(rest)
            for j in range(1, len(ordered)):
                for i in range(j):
                    in_set[ordered[j]] |= 1 << ordered[i]
    return asm.certificate(graph)


# ---------------------------------------------------------------------------
# Exact value by decomposition into vertex-transitive parts.


def decompose_equal(graph: Graph, parts: Sequence[Subgraph]) -> PhyloResult:
    """Exact sum over parts that partition the edges and isolate cycles.

    Verifies (i) the parts are connected and their edge sets partition
    the host's, (ii) every cycle of the host stays inside one part
    (equivalently: every block with a cycle has all its edges in one
    part), (iii) all parts but at most one are vertex transitive.
    Transitivity is confirmed lazily, smallest parts first, so one large
    non-transitive part never needs checking.
    """
    if not parts:
        raise ConditionViolated("i", "at least one part is required")
    seen_edges: set = set()
    for idx, part in enumerate(parts):
        part.check_within(graph)
        part_graph, _ = part.to_graph()
        if len(connected_components(part_graph)) != 1:
            raise ConditionViolated("i", f"part {idx} is not connected")
        overlap = seen_edges & part.edges
        if overlap:
            raise ConditionViolated("i", f"part {idx} reuses edges {sorted(overlap)}")
        seen_edges |= part.edges
    if seen_edges != graph.edges:
        missing = sorted(graph.edges - seen_edges)
        raise ConditionViolated("i", f"edges {missing} belong to no part", detail=missing)

    _, blocks = cut_vertices_and_blocks(graph)
    for block in blocks:
        if len(block) < 2:
            continue  # a bridge carries no cycle
        owners = {idx for idx, part in enumerate(parts) if block & part.edges}
        if len(owners) > 1:
            raise ConditionViolated(
                "ii",
                f"a cyclic block spans parts {sorted(owners)}",
                detail=sorted(block),
            )

    order = sorted(range(len(parts)), key=lambda i: len(parts[i].vertices))
    confirmed = 0
    pending = len(parts)
    for idx in order:
        if confirmed >= len(parts) - 1:
            break
        part_graph, _ = parts[idx].to_graph()
        if is_vertex_transitive(part_graph):
            confirmed += 1
        pending -= 1
        if confirmed + pending < len(parts) - 1:
            raise ConditionViolated(
                "iii",
                f"fewer than {len(parts) - 1} parts are vertex transitive",
            )
    total = sum(_part_value(part) for part in parts)
    return PhyloResult(kind="exact", method="vertex-transitive-decomposition", value=total)


# ---------------------------------------------------------------------------
# The end-to-end pipeline: reductions, then formulas/bounds, then search.


def _kernel_result(
    kernel: Graph,
    cap: int,
    want_witness: bool,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    solve = partial(phylogeny_number_exact, kernel, cap=cap, max_extras=max_extras, deadline=deadline)
    formula = formula_dispatch(kernel)
    try:
        bounded = bounds_k4free(kernel)
    except HypothesisViolated:
        bounded = None
    if formula.kind == "exact":
        result = formula
    elif bounded is not None and bounded.kind == "exact":
        result = bounded
    else:
        result = solve(want_witness=want_witness)
    if bounded is not None:
        if bounded.kind == "exact":
            agrees = result.value == bounded.value
        else:
            agrees = bounded.lower <= result.value <= bounded.upper
        if not agrees:
            raise CrossCheckFailed(
                f"{result.method} gives {result.value} but {bounded.method} "
                f"gives {bounded.to_json()['value']}"
            )
    if not want_witness or result.witness is not None:
        return result
    clause = bounded.method if bounded is not None else None
    if clause in ("k4free-bounds:lower-equality", "k4free-bounds:both-equalities"):
        cert, _ = construct_gminus_caring(kernel)
    elif clause == "k4free-bounds:upper-equality":
        cert = construct_k4free_upper(kernel).certificate
    else:
        cert = solve().witness
    return PhyloResult(kind="exact", method=result.method, value=result.value, witness=cert)


def phylogeny_number_auto(
    graph: Graph,
    cap: int = SOLVER_CAP_DEFAULT,
    want_witness: bool = False,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    """Reduce, then per kernel: closed form, sandwich equality, or search.

    Raises :class:`TooLarge` only when some kernel defeats every formula
    and still exceeds the solver cap, the extra-count cap, or the time
    budget.
    """
    kernels, log = reduce_graph(graph)
    results = [
        _kernel_result(k, cap, want_witness, max_extras, deadline) for k in kernels
    ]
    total = sum(r.value for r in results)
    tags = [r.method for r in results]
    reduced = len(kernels) != 1 or (kernels and kernels[0].n != graph.n) or not kernels
    if not tags:
        method = "reduce"
    elif len(tags) == 1:
        method = f"reduce+{tags[0]}" if reduced else tags[0]
    else:
        method = "reduce+(" + "+".join(tags) + ")"
    witness = None
    if want_witness:
        witness = lift_reductions(graph, log, [r.witness for r in results])
    return PhyloResult(kind="exact", method=method, value=total, witness=witness)


# ---------------------------------------------------------------------------
# The family with phylogeny number minus competition number plus one = l.


def difference_family(l: int, verify_k: bool = False) -> tuple[Graph, PhyloResult, int]:
    """Graph with p - k + 1 = l: a complete graph glued to a ladder corner.

    For l = 0 the graph is a single edge.  Otherwise a complete graph on
    l+2 vertices shares one vertex with a 2-by-(l+1) grid; the grid
    contributes l to the phylogeny number through the vertex-transitive
    decomposition, and on the competition side a single added vertex fed
    by the grid realization's prey slots absorbs the whole clique, so the
    competition number is 1.  ``verify_k`` recomputes it with the exact
    search, which requires the graph to fit the solver cap.
    """
    if not 0 <= l <= FAMILY_CAP:
        raise TooLarge(f"family parameter must lie in 0..{FAMILY_CAP}")
    if l == 0:
        graph = complete_graph(2)
        p_result = phylogeny_number_auto(graph)
        k = competition_number_exact(graph)
    else:
        grid = grid_2xk(l + 1)
        grid_n = grid.n
        clique_members = [0] + list(range(grid_n, grid_n + l + 1))
        edges = list(grid.edges)
        for i, u in enumerate(clique_members):
            for v in clique_members[i + 1:]:
                edges.append((u, v))
        graph = Graph(grid_n + l + 1, edges)
        clique_part = Subgraph.from_edges(
            (u, v) for i, u in enumerate(clique_members) for v in clique_members[i + 1:]
        )
        grid_part = Subgraph.from_edges(grid.edges)
        p_result = decompose_equal(graph, [clique_part, grid_part])
        k = 1
        if verify_k:
            exact_k = competition_number_exact(graph)
            if exact_k != k:
                raise CrossCheckFailed(f"expected competition number 1, solver found {exact_k}")
    if p_result.value - k + 1 != l:
        raise CrossCheckFailed(
            f"difference identity failed for l={l}: p = {p_result.value}, k = {k}"
        )
    return graph, p_result, k
