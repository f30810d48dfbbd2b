"""Closed forms, bounds, reductions and decompositions for phylogeny numbers.

The closed forms cover connected graphs with at most two triangles,
keyed on how many components survive deleting all triangle edges.  For
connected K4-free graphs with pairwise edge-disjoint diamonds the number
is sandwiched between m - n - 2t + d + 1 and m - n - t + 1, with each
end exact under a component-count condition on the triangle-deleted
graph.  Reductions peel complete leaf blocks off the graph's block
masks, and two decomposition rules turn part values into bounds or
exact values.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Sequence

from .derived import Assembly, PhyloCertificate
from .errors import (
    BudgetExhausted,
    ConditionViolated,
    CrossCheckFailed,
    HypothesisViolated,
    NotTriangleFree,
    TooLarge,
)
from .exact import (
    SEARCH_NODE_BUDGET,
    competition_number_exact,
    phylogeny_number_exact,
)
from .graphs import (
    Edge,
    Graph,
    bits,
    blocks,
    blocks_by_component,
    complete_graph,
    connected_components,
    grid_2xk,
)
from .results import PhyloResult
from .structure import (
    THETA_CAP_DEFAULT,
    StructureReport,
    census,
    edge_clique_cover_number,
    is_vertex_transitive,
    maximal_cliques,
    sandwich_census,
)
from .witness import (
    Subgraph,
    _check_clique_clauses,
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
    comp_id = report.g_minus_component_of
    for triangle in report.triangle_list:
        if len({comp_id[v] for v in triangle}) == 1:
            return True
    slots = [0] * len(report.g_minus_components)
    for triangle in report.triangle_list:
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
        same_side = report.g_minus_component_of[x] == report.g_minus_component_of[y]
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


def lower_bound_clique_cover(graph: Graph, cap: int = THETA_CAP_DEFAULT) -> PhyloResult:
    """The clique-cover lower bound theta_e - n + 1, clamped at zero."""
    return PhyloResult(
        kind="lower_bound",
        method="clique-cover-bound",
        value=clique_cover_bound(graph.n, edge_clique_cover_number(graph, cap=cap)),
    )


# ---------------------------------------------------------------------------
# Decomposition machinery.


def _check_parts(graph: Graph, parts: Sequence[Subgraph]) -> set[Edge]:
    """Check that every part lies in the host and no two share an edge.

    Returns the union of the parts' edges.  Raises
    :class:`ConditionViolated` with code "i", naming the first part that
    shares an edge with an earlier one and holding the shared edges as
    ``detail``.
    """
    union: set[Edge] = set()
    for idx, part in enumerate(parts):
        part.check_within(graph)
        shared = sorted(union & part.edges)
        if shared:
            raise ConditionViolated("i", f"part {idx} shares edges {shared} with an earlier part", detail=shared)
        union |= part.edges
    return union


def lower_bound_decomposition(graph: Graph, parts: Sequence[Subgraph]) -> PhyloResult:
    """Sum of part values as a lower bound, for well-separated parts.

    The parts must (i) be pairwise edge-disjoint, (ii) have each of their
    maximal cliques maximal in the host, and (iii) have every maximal
    host clique inside them meet every maximal host clique outside them
    in at most one vertex.  Parts may be disconnected; nothing in the
    argument needs connectivity.
    """
    _check_parts(graph, parts)
    host_cliques = maximal_cliques(graph)
    for idx, part in enumerate(parts):
        _check_clique_clauses(host_cliques, part, ("ii", "iii"), f"part {idx}: ")
    total = sum(phylogeny_number_auto(part.to_graph()[0]).value for part in parts)
    return PhyloResult(kind="lower_bound", method="subgraph-decomposition-bound", value=total)


def lower_bound_triangle_free_subgraph(graph: Graph, sub: Subgraph) -> PhyloResult:
    """One-part convenience: p(host) >= p(sub) for a triangle-free sub.

    Only requires the subgraph's maximal cliques to be maximal in the
    host; the separation condition then holds automatically because the
    subgraph's cliques have at most two vertices.
    """
    if census(sub.to_graph()[0]).t:
        raise NotTriangleFree("the subgraph must be triangle-free")
    return PhyloResult(
        kind="lower_bound",
        method="triangle-free-subgraph-bound",
        value=lower_bound_decomposition(graph, [sub]).value,
    )


# ---------------------------------------------------------------------------
# Value-preserving reductions.


def reduce_graph(graph: Graph) -> tuple[list[Graph], list[dict]]:
    """Peel complete leaf blocks off each component's list of blocks.

    The blocks are found once, as vertex masks.  A leaf block has one
    vertex, its cut vertex, that also lies in another remaining block;
    deleting a complete leaf block's other vertices preserves the
    phylogeny number.  Each round peels every K2 leaf block at once, or
    else the complete leaf block with the smallest edge.  A component left
    as one complete block or one vertex is dropped, since its value is
    zero; component values add up, so the graph's number is the sum over
    kernels.  Each shared vertex counts its remaining blocks, so a peel
    looks only at the block it leaves alone there, in linear time overall.

    Returns (kernels, replayable log).
    """
    log: list[dict] = []
    kernels: list[Graph] = []
    components = blocks_by_component(graph)
    if len(components) != 1:
        log.append({"op": "split-components", "components": [list(bits(c)) for c, _ in components]})
    holders = [0] * graph.n  # remaining blocks holding each shared vertex
    index_sum = [0] * graph.n  # their indices' sum: the last one's index once one is left
    for alive, masks in components:  # masks sorted by smallest edge
        seen = shared = 0  # shared: vertices in two or more remaining blocks
        for mask in masks:
            shared |= seen & mask
            seen |= mask
        leaves: list[tuple[bool, int, int]] = []  # complete leaves: (not K2, index, cut), a heap
        for b, mask in enumerate(masks):
            cut = mask & shared
            if cut and cut & (cut - 1) == 0 and graph.is_clique(mask):
                heappush(leaves, (mask.bit_count() > 2, b, cut))
            for v in bits(cut):
                holders[v] += 1
                index_sum[v] += b
        left = len(masks)
        while left > 1 and leaves:
            peel = [heappop(leaves)]  # every K2 leaf, or else the first larger one
            while not peel[0][0] and leaves and not leaves[0][0]:
                peel.append(heappop(leaves))
            for _, b, cut in peel:
                mask, v = masks[b], cut.bit_length() - 1
                log.append({"op": "delete-clique-leaf-block", "vertices": list(bits(mask ^ cut)),
                            "cut_vertex": v, "block": list(bits(mask))})
                alive ^= mask ^ cut
                left -= 1
                holders[v] -= 1
                index_sum[v] -= b
                if holders[v] == 1:  # the last block at v may have become a leaf
                    shared ^= cut
                    rest = index_sum[v]
                    rest_cut = masks[rest] & shared
                    if rest_cut and rest_cut & (rest_cut - 1) == 0 and graph.is_clique(masks[rest]):
                        heappush(leaves, (masks[rest].bit_count() > 2, rest, rest_cut))
        if graph.is_clique(alive):
            log.append({"op": "drop-clique-component", "vertices": list(bits(alive))})
        else:
            sub, to_orig = graph.induced_subgraph(bits(alive))
            log.append({"op": "kernel", "index": len(kernels), "vertices": to_orig})
            kernels.append(sub)
    return kernels, log


def lift_reductions(
    graph: Graph,
    log: Sequence[dict],
    kernel_certificates: Sequence[PhyloCertificate],
) -> PhyloCertificate:
    """Turn kernel certificates into one certificate for the whole graph.

    Kernels keep their digraphs (ids mapped through the log, arcs leaving
    an extra dropped); every peeled or dropped clique comes back as a
    transitive tournament in its listed order, cut vertex first.  No extra
    vertices are added, so the lifted count is the sum of the kernel
    counts.
    """
    kernel_entries = [entry for entry in log if entry["op"] == "kernel"]
    if len(kernel_entries) != len(kernel_certificates):
        raise ValueError("one certificate per kernel is required")
    asm = Assembly(graph.n)
    for entry, cert in zip(kernel_entries, kernel_certificates):
        asm.absorb(cert, entry["vertices"])
    in_set = asm.in_set
    for entry in log:
        if entry["op"] == "delete-clique-leaf-block":
            ordered = [entry["cut_vertex"], *entry["vertices"]]
        elif entry["op"] == "drop-clique-component":
            ordered = entry["vertices"]
        else:
            continue
        earlier = 0
        for v in ordered:
            in_set[v] |= earlier
            earlier |= 1 << v
    return asm.certificate(graph)


# ---------------------------------------------------------------------------
# Exact value by decomposition into vertex-transitive parts.


def decompose_equal(graph: Graph, parts: Sequence[Subgraph]) -> PhyloResult:
    """Exact sum over parts that partition the edges and isolate cycles.

    Verifies (i) the parts are connected and their edge sets partition
    the host's, (ii) every cycle of the host stays inside one part
    (equivalently: every block with three or more vertices has all its
    edges in one part), (iii) all parts but at most one are vertex
    transitive.  Transitivity is confirmed lazily, smallest parts first,
    so one large non-transitive part never needs checking.
    """
    if not parts:
        raise ConditionViolated("i", "at least one part is required")
    covered = _check_parts(graph, parts)
    part_graphs = [part.to_graph()[0] for part in parts]
    for idx, part_graph in enumerate(part_graphs):
        if len(connected_components(part_graph)) != 1:
            raise ConditionViolated("i", f"part {idx} is not connected")
    missing = [e for e in graph.sorted_edges() if e not in covered]
    if missing:
        raise ConditionViolated("i", f"edges {missing} belong to no part", detail=missing)

    for mask in blocks(graph):
        if mask.bit_count() < 3:
            continue  # a bridge carries no cycle
        inside = [(u, v) for u, v in graph.sorted_edges() if mask >> u & mask >> v & 1]
        owners = [idx for idx, part in enumerate(parts) if part.edges.intersection(inside)]
        if len(owners) > 1:
            raise ConditionViolated("ii", f"a cyclic block spans parts {owners}", detail=inside)

    order = sorted(range(len(parts)), key=lambda i: len(parts[i].vertices))
    confirmed = 0
    pending = len(parts)
    for idx in order:
        if confirmed >= len(parts) - 1:
            break
        if is_vertex_transitive(part_graphs[idx]):
            confirmed += 1
        pending -= 1
        if confirmed + pending < len(parts) - 1:
            raise ConditionViolated(
                "iii",
                f"fewer than {len(parts) - 1} parts are vertex transitive",
            )
    total = sum(phylogeny_number_auto(part_graph).value for part_graph in part_graphs)
    return PhyloResult(kind="exact", method="vertex-transitive-decomposition", value=total)


# ---------------------------------------------------------------------------
# The end-to-end pipeline: reductions, then formulas/bounds, then search.


def _kernel_result(
    kernel: Graph,
    max_nodes: int,
    want_witness: bool,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    """One kernel's value, and its witness when asked, within the sandwich.

    The interval is the sandwich's [lower, upper], or [0, inf) outside
    its hypotheses.  The value comes from the closed form, else from the
    sandwich's equality clause, else from the search; the witness from
    the construction that meets the clause, else from the search.  The
    search runs at most once, deepening from 0, and the value must lie
    in the interval and equal the search's when both ran.
    """
    lower, upper, value, method, witness = 0, inf, None, None, None
    try:
        bounded = bounds_k4free(kernel)
    except HypothesisViolated:
        pass
    else:
        if bounded.kind == "exact":
            lower = upper = value = bounded.value
            method = bounded.method
            if want_witness and method == "k4free-bounds:upper-equality":
                witness = construct_k4free_upper(kernel).certificate
            elif want_witness:
                witness = construct_gminus_caring(kernel)[0]
        else:
            lower, upper = bounded.lower, bounded.upper
    formula = formula_dispatch(kernel)
    if formula.kind == "exact":
        value, method = formula.value, formula.method
    searched = None
    if value is None or (want_witness and witness is None):
        solved = phylogeny_number_exact(kernel, max_nodes=max_nodes, max_extras=max_extras, deadline=deadline)
        searched = solved.value
        if value is None:
            value, method = searched, solved.method
        if want_witness:
            witness = solved.witness
    if not lower <= value <= upper or searched not in (None, value):
        raise CrossCheckFailed(
            f"{method} gives {value}, the search {searched}, the sandwich [{lower}, {upper}]"
        )
    return PhyloResult(kind="exact", method=method, value=value, witness=witness)


def phylogeny_number_auto(
    graph: Graph,
    max_nodes: int = SEARCH_NODE_BUDGET,
    want_witness: bool = False,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    """Reduce, then per kernel: closed form, sandwich equality, or search.

    Raises :class:`BudgetExhausted` when a kernel that needs the search
    spends ``max_nodes`` search nodes or runs past ``deadline``: one that
    defeats every formula, or, when a witness is asked, one valued by a
    closed form that no sandwich construction meets.  Each kernel's
    search has its own ``max_nodes``.  Also raises it when the value
    exceeds ``max_extras``, whichever route found it; each kernel's
    search stops early past it.
    """
    kernels, log = reduce_graph(graph)
    results = [
        _kernel_result(k, max_nodes, want_witness, max_extras, deadline) for k in kernels
    ]
    total = sum(r.value for r in results)
    if max_extras is not None and total > max_extras:
        raise BudgetExhausted(f"no certificate within {max_extras} extra vertices")
    tags = [r.method for r in results]
    reduced = len(kernels) != 1 or kernels[0].n != graph.n
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
    search, which requires the graph to fit the competition solver's cap.
    """
    if l < 0:
        raise ValueError(f"family parameter must be non-negative (got {l})")
    if l > FAMILY_CAP:
        raise TooLarge(f"family parameter must lie in 0..{FAMILY_CAP}")
    if l == 0:
        graph = complete_graph(2)
        p_result = phylogeny_number_auto(graph)
        k = competition_number_exact(graph)
    else:
        grid = grid_2xk(l + 1)
        grid_n = grid.n
        clique_members = [0] + list(range(grid_n, grid_n + l + 1))
        grid_edges = grid.sorted_edges()
        clique_edges = [(u, v) for i, u in enumerate(clique_members) for v in clique_members[i + 1:]]
        graph = Graph(grid_n + l + 1, grid_edges + clique_edges)
        clique_part = Subgraph.from_edges(clique_edges)
        grid_part = Subgraph.from_edges(grid_edges)
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
