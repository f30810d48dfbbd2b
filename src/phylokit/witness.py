"""Explicit phylogeny-digraph constructions that certify the bounds.

Everything here emits a digraph that *proves* an inequality: the
spanning-tree construction for triangle-free graphs, the caring-vertex
construction meeting the lower bound when the triangle-edge-deleted
graph is connected, the inductive construction meeting the upper bound
for K4-free graphs with edge-disjoint diamonds, and the restriction of
an arbitrary certificate to a well-separated subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .derived import Assembly, PhyloCertificate, validate_phylogeny_digraph
from .errors import (
    ConditionViolated,
    CrossCheckFailed,
    Disconnected,
    NotTriangleFree,
    UnknownName,
)
from .exact import phylogeny_number_exact
from .graphs import (
    Digraph,
    Edge,
    Graph,
    acyclic_labeling,
    bits,
    connected_components,
)
from .structure import maximal_cliques, sandwich_census, triangle_edges

__all__ = [
    "Subgraph",
    "ConstructionTrace",
    "construct_triangle_free",
    "construct_gminus_caring",
    "construct_k4free_upper",
    "replay_trace",
    "restriction_digraph",
    "check_subgraph_clique_conditions",
    "figure_catalog",
    "FIGURE_NAMES",
]

UPPER_CONSTRUCTION_SOLVER_CAP = 16


@dataclass(frozen=True)
class Subgraph:
    """A subgraph given by explicit vertex and edge sets over host ids."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError("subgraph edge is a self-loop")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) has an endpoint outside the subgraph")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], extra_vertices: Iterable[int] = ()) -> "Subgraph":
        norm = {tuple(sorted(e)) for e in edges}
        verts = set(extra_vertices)
        for u, v in norm:
            verts.add(u)
            verts.add(v)
        return cls(frozenset(verts), frozenset(norm))

    def check_within(self, host: Graph) -> None:
        for v in self.vertices:
            if not 0 <= v < host.n:
                raise ValueError(f"subgraph vertex {v} outside the host graph")
        for e in self.edges:
            if e not in host.edges:
                raise ValueError(f"subgraph edge {e} is not a host edge")

    def to_graph(self) -> tuple[Graph, list[int]]:
        order = sorted(self.vertices)
        index = {v: i for i, v in enumerate(order)}
        return Graph(len(order), [(index[u], index[v]) for u, v in self.edges]), order

    def has_edge(self, u: int, v: int) -> bool:
        return tuple(sorted((u, v))) in self.edges


def _maximal_cliques_of_subgraph(sub: Subgraph) -> list[tuple[int, ...]]:
    g, order = sub.to_graph()
    return [tuple(order[v] for v in clique) for clique in maximal_cliques(g)]


def _clique_belongs(clique: Sequence[int], sub: Subgraph) -> bool:
    if any(v not in sub.vertices for v in clique):
        return False
    return all(
        sub.has_edge(clique[i], clique[j])
        for i in range(len(clique))
        for j in range(i + 1, len(clique))
    )


def check_subgraph_clique_conditions(host: Graph, sub: Subgraph) -> None:
    """Verify the two clique conditions a well-separated subgraph must meet.

    (i) every maximal clique of the subgraph is a maximal clique of the
    host; (ii) any maximal host clique lying inside the subgraph meets
    any maximal host clique not lying inside it in at most one vertex.
    """
    sub.check_within(host)
    host_cliques = maximal_cliques(host)
    host_clique_set = {tuple(c) for c in host_cliques}
    for clique in _maximal_cliques_of_subgraph(sub):
        if tuple(sorted(clique)) not in host_clique_set:
            raise ConditionViolated(
                "i",
                f"maximal clique {sorted(clique)} of the subgraph is not maximal in the host",
                detail=sorted(clique),
            )
    inside = [c for c in host_cliques if _clique_belongs(c, sub)]
    outside = [c for c in host_cliques if not _clique_belongs(c, sub)]
    for a in inside:
        sa = set(a)
        for b in outside:
            if len(sa & set(b)) > 1:
                raise ConditionViolated(
                    "ii",
                    f"cliques {list(a)} (inside) and {list(b)} (outside) share "
                    f"{sorted(sa & set(b))}",
                    detail=(a, b),
                )


# ---------------------------------------------------------------------------
# Triangle-free optimal construction.


def construct_triangle_free(graph: Graph) -> PhyloCertificate:
    """An optimal certificate for a connected triangle-free graph.

    Root a breadth-first spanning tree at vertex 0 and orient every tree
    edge from parent to child, so each vertex keeps at most one base
    in-neighbor and no two vertices marry.  Every non-tree edge then gets
    a dedicated extra caring vertex, giving exactly m - n + 1 extras.
    """
    if len(connected_components(graph)) != 1:
        raise Disconnected("the triangle-free construction needs a connected graph")
    if triangle_edges(graph):
        raise NotTriangleFree("graph contains a triangle")
    n = graph.n
    parent = [-1] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    tree: set[Edge] = set()
    while queue:
        v = queue.pop(0)
        for w in graph.neighbors(v):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                tree.add(tuple(sorted((v, w))))
                queue.append(w)
    arcs = [(parent[v], v) for v in range(n) if parent[v] >= 0]
    extra = n
    for u, v in sorted(graph.edges - tree):
        arcs.append((u, extra))
        arcs.append((v, extra))
        extra += 1
    return validate_phylogeny_digraph(Digraph(extra, arcs), range(n), graph)


# ---------------------------------------------------------------------------
# Caring-vertex construction: optimal per component of the triangle-edge-
# deleted graph, plus one caring vertex per triangle.


def construct_gminus_caring(graph: Graph) -> tuple[PhyloCertificate, bool]:
    """Certificate from caring vertices over the triangle-deleted skeleton.

    Builds an optimal digraph for every component of the graph without
    its triangle edges, then adds one extra vertex per triangle whose
    in-neighborhood is exactly that triangle.  Returns the certificate
    and whether it is known optimal, which holds exactly when the
    triangle-deleted graph is connected.
    """
    report = sandwich_census(graph)
    asm = Assembly(graph.n)
    for comp in report.g_minus_components:
        sub, order = report.g_minus.induced_subgraph(comp)
        asm.absorb(construct_triangle_free(sub), order)
    for triangle in report.triangle_list:
        asm.new_extra(sum(1 << v for v in triangle))
    optimal = len(report.g_minus_components) == 1
    return asm.certificate(graph), optimal


# ---------------------------------------------------------------------------
# Inductive upper-bound construction for connected K4-free graphs with
# pairwise edge-disjoint diamonds: extra count at most m - n - t + 1.


@dataclass(frozen=True)
class ConstructionTrace:
    """The ordered proof steps applied plus the certificate they built.

    Replaying the steps with :func:`replay_trace` reproduces the final
    digraph arc for arc.
    """

    steps: tuple[dict, ...]
    certificate: PhyloCertificate


def _apply_step(asm: Assembly, step: dict) -> None:
    """Apply one recorded step to the assembly.

    The only code that changes the upper construction's assembly, so the
    build and :func:`replay_trace` cannot drift apart.  Raises
    :class:`ValueError` on an unknown op or an extra id out of creation
    order.
    """
    op = step["op"]
    if op in ("remove-diamond-center-edges", "remove-triangle-edge"):
        return
    if op == "add-arc":
        asm.in_set[step["head"]] |= 1 << step["tail"]
        return
    if op == "caring-vertex-absorbs":
        if not 0 <= step["extra"] < len(asm.extras):
            raise ValueError(f"trace step absorbs into unknown extra {step['extra']}")
        asm.extras[step["extra"]] |= 1 << step["vertex"]
        return
    if op == "solved-base":
        for t, h in step["in_arcs"]:
            asm.in_set[h] |= 1 << t
        fresh = step["extras"]
    elif op == "new-extra":
        fresh = [(step["extra"], step["members"])]
    elif op == "reroute-in-arcs":
        asm.in_set[step["vertex"]] = 0
        fresh = [(step["extra"], step["members"])]
    else:
        raise ValueError(f"unknown trace op {op!r}")
    for extra, members in fresh:
        if extra != len(asm.extras):
            raise ValueError(f"trace step {op!r} creates extra {extra} out of order")
        asm.new_extra(sum(1 << v for v in members))


def _record(asm: Assembly, steps: list[dict], **step) -> None:
    _apply_step(asm, step)
    steps.append(step)


def _check(condition: bool, message: str) -> None:
    """Raise :class:`CrossCheckFailed` when a proof invariant fails to hold."""
    if not condition:
        raise CrossCheckFailed(f"upper construction: {message}")


def _has_arc(asm: Assembly, a: int, b: int) -> bool:
    return bool(asm.in_set[b] >> a & 1)


def _check_sole_arc(asm: Assembly, tail: int, head: int) -> None:
    _check(asm.in_set[head] == 1 << tail, "an edge on no triangle must be its head's only in-arc")


def _extra_carers(asm: Assembly, a: int, b: int) -> list[int]:
    need = (1 << a) | (1 << b)
    return [j for j, m in enumerate(asm.extras) if m & need == need]


def _base_carers(asm: Assembly, a: int, b: int) -> list[int]:
    need = (1 << a) | (1 << b)
    return [h for h in range(asm.n) if h != a and h != b and asm.in_set[h] & need == need]


def _is_cared(asm: Assembly, a: int, b: int) -> bool:
    if _has_arc(asm, a, b) or _has_arc(asm, b, a):
        return False
    return bool(_extra_carers(asm, a, b) or _base_carers(asm, a, b))


def _cared_extra(asm: Assembly, a: int, b: int) -> int:
    """The extra caring for the cared edge ab, which lies on no triangle."""
    carers = _extra_carers(asm, a, b)
    _check(
        bool(carers) and not _base_carers(asm, a, b),
        "an edge on no triangle must be cared for by an extra vertex",
    )
    j = carers[0]
    _check(
        asm.extras[j] == (1 << a) | (1 << b),
        "an extra caring for an edge on no triangle has only its ends",
    )
    return j


def _edge_on_triangle(graph: Graph, u: int, v: int) -> bool:
    return bool(graph.adj[u] & graph.adj[v])


def _build_upper(graph: Graph, order: Sequence[int], asm: Assembly, steps: list[dict], solver_cap: int) -> None:
    """Recursive proof-following construction; ids in ``asm`` are original."""
    report = sandwich_census(graph)

    if report.t <= 2:
        part = Assembly(asm.n)
        part.absorb(phylogeny_number_exact(graph, cap=solver_cap).witness, order)
        first = len(asm.extras)
        _record(
            asm, steps, op="solved-base", vertices=list(order),
            in_arcs=sorted((t, h) for h in range(part.n) for t in bits(part.in_set[h])),
            extras=[(first + j, sorted(bits(members))) for j, members in enumerate(part.extras)],
        )
        return

    if report.d >= 1:
        quad, shared = report.diamond_list[0]
        x, z = shared
        y, w = sorted(set(quad) - {x, z})
        deleted = [tuple(sorted((x, z))), tuple(sorted((y, z))), tuple(sorted((w, z)))]
        g_star = graph.without_edges(deleted)
        _check(
            not _edge_on_triangle(g_star, x, y) and not _edge_on_triangle(g_star, x, w),
            "a rim edge at x still lies on a triangle",
        )
        ox, oy, oz, ow = order[x], order[y], order[z], order[w]
        _record(
            asm, steps, op="remove-diamond-center-edges", diamond=[order[q] for q in quad],
            shared_edge=[ox, oz], deleted=[[order[a], order[b]] for a, b in deleted],
        )
        comps = connected_components(g_star)
        if len(comps) == 2:
            comp_x = next(c for c in comps if x in c)
            comp_z = next(c for c in comps if z in c)
            _check(
                comp_x is not comp_z and y in comp_x and w in comp_x,
                "the rim must stay on x's side when the diamond splits the graph",
            )
            for comp in (comp_x, comp_z):
                sub, sub_order = g_star.induced_subgraph(comp)
                _build_upper(sub, [order[v] for v in sub_order], asm, steps, solver_cap)
            _repair_diamond(asm, steps, ox, oy, oz, ow, new_vertex_allowed=False)
        else:
            _check(len(comps) == 1, "deleting the center edges left over two components")
            _build_upper(g_star, order, asm, steps, solver_cap)
            _repair_diamond(asm, steps, ox, oy, oz, ow, new_vertex_allowed=True)
        return

    # no diamond, at least three triangles: delete the smallest triangle edge
    for u, v in graph.sorted_edges():
        common = graph.adj[u] & graph.adj[v]
        if common:
            third = list(bits(common))
            _check(len(third) == 1, "edge on two triangles in a diamond-free graph")
            w = third[0]
            break
    g_one = graph.without_edges([(u, v)])
    ou, ov, ow = order[u], order[v], order[w]
    _record(asm, steps, op="remove-triangle-edge", edge=[ou, ov], triangle=sorted((ou, ov, ow)))
    _build_upper(g_one, order, asm, steps, solver_cap)
    _repair_triangle(asm, steps, ou, ov, ow)


def _repair_triangle(asm: Assembly, steps: list[dict], u: int, v: int, w: int) -> None:
    """Re-realize the deleted edge uv using the surviving edges uw, vw."""
    for p, q in ((u, v), (v, u)):
        if _is_cared(asm, p, w):
            _record(
                asm, steps, op="caring-vertex-absorbs", subcase="triangle-cared",
                extra=_cared_extra(asm, p, w), vertex=q,
            )
            return
    # both uw and vw are realized by arcs; direct the new arc at the
    # lowest-labelled endpoint of the deleted edge
    labeling = acyclic_labeling(asm.to_digraph())
    lu, lv, lw = labeling[u], labeling[v], labeling[w]
    _check(lw > min(lu, lv), "the apex cannot carry the least label")
    p, q = (u, v) if lu < lv else (v, u)
    _check_sole_arc(asm, w, p)
    _record(asm, steps, op="add-arc", subcase="triangle-arcs", tail=q, head=p)


def _repair_diamond(asm: Assembly, steps: list[dict], x: int, y: int, z: int, w: int, new_vertex_allowed: bool) -> None:
    """Re-realize the three deleted edges xz, yz, wz of a diamond.

    ``new_vertex_allowed`` distinguishes the connected case (one fresh
    vertex is within budget) from the disconnected case (none is).
    """
    xy_cared = _is_cared(asm, x, y)
    xw_cared = _is_cared(asm, x, w)

    def absorb_z(extra: int, subcase: str) -> None:
        _record(asm, steps, op="caring-vertex-absorbs", subcase=subcase, extra=extra, vertex=z)

    def arc_from_z(head: int, subcase: str) -> None:
        _record(asm, steps, op="add-arc", subcase=subcase, tail=z, head=head)

    if not new_vertex_allowed:
        if xy_cared and xw_cared:
            a = _cared_extra(asm, x, y)
            b = _cared_extra(asm, x, w)
            _check(a != b, "the two rim edges must have distinct caring vertices")
            absorb_z(a, "split-both-cared")
            absorb_z(b, "split-both-cared")
            return
        if xy_cared or xw_cared:
            p, q = (y, w) if xy_cared else (w, y)
            absorb_z(_cared_extra(asm, x, p), "split-one-cared")
            tail, head = (x, q) if _has_arc(asm, x, q) else (q, x)
            _check_sole_arc(asm, tail, head)
            arc_from_z(head, "split-one-cared")
            return
        for h in _diamond_arc_heads(asm, x, y, w):
            arc_from_z(h, "split-no-cared")
        return

    if xy_cared or xw_cared:
        p, q = (y, w) if xy_cared else (w, y)
        absorb_z(_cared_extra(asm, x, p), "joined-one-cared")
        _record(
            asm, steps, op="new-extra", subcase="joined-one-cared",
            extra=len(asm.extras), members=sorted((x, q, z)),
        )
        return

    # neither cared: give z's old in-arcs to a fresh caring vertex so z has
    # indegree zero, then point z at the arc heads among the diamond rim
    _record(
        asm, steps, op="reroute-in-arcs", subcase="joined-no-cared", vertex=z,
        extra=len(asm.extras), members=sorted(bits(asm.in_set[z] | (1 << z))),
    )
    _check(asm.in_set[z] == 0, "z must have no in-arcs after the reroute")
    for h in _diamond_arc_heads(asm, x, y, w):
        arc_from_z(h, "joined-no-cared")


def _diamond_arc_heads(asm: Assembly, x: int, y: int, w: int) -> tuple[int, int]:
    """Heads of the arcs realizing xy and xw (z will point at them).

    The rim vertices y and w are nonadjacent, so the two arcs cannot both
    enter x; pointing z at each arc's head marries z to the tail through
    the head's in-neighborhood and realizes the missing rim edges.
    """
    if _has_arc(asm, y, x):
        _check_sole_arc(asm, y, x)
        _check_sole_arc(asm, x, w)
        return (x, w)
    _check_sole_arc(asm, x, y)
    if _has_arc(asm, w, x):
        _check_sole_arc(asm, w, x)
        return (y, x)
    _check_sole_arc(asm, x, w)
    return (y, w)


def construct_k4free_upper(graph: Graph, solver_cap: int = UPPER_CONSTRUCTION_SOLVER_CAP) -> ConstructionTrace:
    """Certificate with at most m - n - t + 1 extras, built inductively.

    Follows the proof shape: while more than two triangles remain, delete
    either a diamond's three center edges or a lone triangle edge, build
    a certificate for the smaller graph, and repair the deleted edges
    without spending more than the allotted budget.  The recursion
    bottoms out in the exact solver once at most two triangles remain.
    """
    report = sandwich_census(graph)
    asm = Assembly(graph.n)
    steps: list[dict] = []
    _build_upper(graph, list(range(graph.n)), asm, steps, solver_cap)
    cert = asm.certificate(graph)
    bound = graph.m - graph.n - report.t + 1
    _check(
        cert.extra_count <= bound,
        f"construction used {cert.extra_count} extras, budget is {bound}",
    )
    return ConstructionTrace(tuple(steps), cert)


def replay_trace(graph: Graph, steps: Iterable[dict]) -> Digraph:
    """Mechanically re-apply recorded steps; used to audit determinism.

    Raises :class:`ValueError` on an unknown op or an extra id out of
    creation order.
    """
    asm = Assembly(graph.n)
    for step in steps:
        _apply_step(asm, step)
    return asm.to_digraph()


# ---------------------------------------------------------------------------
# Restriction of a certificate to a well-separated subgraph.


def restriction_digraph(
    digraph: Digraph,
    base: Iterable[int],
    target: Graph,
    sub: Subgraph,
) -> PhyloCertificate:
    """Restrict a valid certificate for the target to a subgraph of it.

    The subgraph must satisfy the two clique conditions checked by
    :func:`check_subgraph_clique_conditions`.  Keeps the subgraph's
    vertices and all extras, and for every vertex whose closed in-
    neighborhood meets the subgraph in a clique of size at least two,
    keeps the arcs from that intersection into it.  The result is
    guaranteed to induce the subgraph in its phylogeny graph; the result
    is validated, so any failure of that postcondition raises
    :class:`NotInduced`.

    Returns the certificate of the restricted digraph, relabelled
    densely, for the subgraph as :meth:`Subgraph.to_graph` numbers it.
    """
    cert = validate_phylogeny_digraph(digraph, base, target)
    check_subgraph_clique_conditions(target, sub)

    to_digraph = cert.base  # target vertex i -> digraph vertex
    h_sorted = sorted(sub.vertices)
    h_dids = [to_digraph[v] for v in h_sorted]
    h_mask = 0
    for d in h_dids:
        h_mask |= 1 << d
    extras = [v for v in range(digraph.n) if v not in set(cert.base)]
    keep = sorted(h_dids) + extras
    new_id = {old: new for new, old in enumerate(keep)}
    d_to_target = {d: v for v, d in zip(h_sorted, h_dids)}

    def meets_in_clique(vertex: int) -> bool:
        closed = digraph.inn[vertex] | (1 << vertex)
        inter = closed & h_mask
        if inter.bit_count() < 2:
            return False
        members = [d_to_target[d] for d in bits(inter)]
        return all(
            sub.has_edge(members[i], members[j])
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )

    arcs = []
    for xv in keep:
        if not meets_in_clique(xv):
            continue
        for tail in bits(digraph.inn[xv] & h_mask):
            arcs.append((new_id[tail], new_id[xv]))
    restricted = Digraph(len(keep), arcs)

    new_base = tuple(new_id[d] for d in h_dids)
    return validate_phylogeny_digraph(restricted, new_base, sub.to_graph()[0], order=new_base)


# ---------------------------------------------------------------------------
# Catalog of the worked examples used across the test suite and the CLI.


_FIG1_G_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5), (4, 5)]

_CATALOG_GRAPHS: dict[str, tuple[int, list[Edge]]] = {
    # square with a pendant triangle: four-cycle 0-1-3-2 plus triangle 2-4-5
    "fig1_G": (6, _FIG1_G_EDGES),
    # two-by-three grid, triangle-free with two independent cycles
    "fig2_G": (6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]),
    # hub over a chain of a triangle and a diamond: meets the lower bound
    "fig3_G1": (
        15,
        [
            (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
            (7, 8), (7, 9), (7, 10), (7, 11), (7, 12), (7, 13), (7, 14),
            (0, 8), (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14),
        ],
    ),
    # triangle joined by a path edge to a diamond: meets the upper bound
    "fig3_G2": (7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]),
    # triangle glued to a square at one vertex (same graph as fig1_G)
    "fig4_G1": (6, _FIG1_G_EDGES),
    # complete graph on four vertices glued to a two-by-three grid
    "fig4_G2": (
        9,
        [
            (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5),
            (2, 6), (2, 7), (2, 8), (6, 7), (6, 8), (7, 8),
        ],
    ),
}

_FIG1_D_ARCS = [(0, 1), (0, 2), (2, 3), (1, 6), (3, 6), (5, 4), (2, 4)]

FIGURE_NAMES = tuple(sorted(_CATALOG_GRAPHS) + ["fig1_D"])


def figure_catalog(name: str) -> Graph | tuple[Digraph, tuple[int, ...]]:
    """The worked-example graphs and digraph by name, ids in reading order."""
    if name == "fig1_D":
        return Digraph(7, _FIG1_D_ARCS), tuple(range(6))
    if name in _CATALOG_GRAPHS:
        n, edges = _CATALOG_GRAPHS[name]
        return Graph(n, edges)
    raise UnknownName(f"unknown catalog name {name!r}; choose from {', '.join(FIGURE_NAMES)}")
