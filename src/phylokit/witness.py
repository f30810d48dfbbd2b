"""Explicit phylogeny-digraph constructions that certify the bounds.

Everything here emits a digraph that *proves* an inequality, without
search: the spanning-tree construction for triangle-free graphs, the
caring-vertex construction meeting the lower bound when the
triangle-edge-deleted graph is connected, the inductive construction
meeting the upper bound for K4-free graphs with edge-disjoint diamonds,
and the restriction of an arbitrary certificate to a well-separated subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable, Sequence

from .derived import Assembly, PhyloCertificate, validate_phylogeny_digraph
from .errors import (
    ConditionViolated,
    CrossCheckFailed,
    Disconnected,
    NotTriangleFree,
    UnknownName,
)
from .graphs import (
    Digraph,
    Edge,
    Graph,
    acyclic_labeling,
    bits,
    component_masks,
    connected_components,
)
from .structure import StructureReport, maximal_cliques, sandwich_census, triangle_edges

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
        return cls(frozenset(set(extra_vertices).union(*norm)), frozenset(norm))

    def check_within(self, host: Graph) -> None:
        for v in self.vertices:
            if not 0 <= v < host.n:
                raise ValueError(f"subgraph vertex {v} outside the host graph")
        for u, v in self.edges:
            if not (u < v and host.has_edge(u, v)):
                raise ValueError(f"subgraph edge {(u, v)} is not a host edge")

    def to_graph(self) -> tuple[Graph, list[int]]:
        order = sorted(self.vertices)
        index = {v: i for i, v in enumerate(order)}
        return Graph(len(order), [(index[u], index[v]) for u, v in self.edges]), order

    def has_edge(self, u: int, v: int) -> bool:
        return tuple(sorted((u, v))) in self.edges


def _clique_belongs(clique: Sequence[int], sub: Subgraph) -> bool:
    """Whether every vertex of ``clique`` lies in ``sub`` and every pair is an edge of ``sub``."""
    return all(v in sub.vertices for v in clique) and all(
        sub.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]
    )


def _check_clique_clauses(
    host_cliques: Sequence[tuple[int, ...]],
    sub: Subgraph,
    codes: tuple[str, str],
    where: str = "",
) -> None:
    """Check a subgraph's two clique clauses against the host's maximal cliques.

    The first clause: every maximal clique of ``sub`` is maximal in the
    host, that is, one of the host cliques lying in ``sub`` (such a clique
    is maximal in ``sub`` as well).  The second: every host clique lying
    in ``sub`` meets every other host clique in at most one vertex.
    ``codes`` names the two clauses as the caller's theorem numbers them,
    and ``where`` starts each message.  The caller checks that ``sub``
    lies in the host and finds ``host_cliques`` once.
    """
    inside = [c for c in host_cliques if _clique_belongs(c, sub)]
    known = set(inside)
    g, order = sub.to_graph()
    for clique in maximal_cliques(g):
        members = [order[v] for v in clique]  # sorted, as ``order`` is
        if tuple(members) not in known:
            raise ConditionViolated(
                codes[0],
                f"{where}maximal clique {members} of the subgraph is not maximal in the host",
                detail=members,
            )
    outside = [c for c in host_cliques if c not in known]
    for a, b in product(inside, outside):
        shared = sorted(set(a) & set(b))
        if len(shared) > 1:
            raise ConditionViolated(
                codes[1],
                f"{where}cliques {list(a)} (inside) and {list(b)} (outside) share {shared}",
                detail=(a, b),
            )


def check_subgraph_clique_conditions(host: Graph, sub: Subgraph) -> None:
    """Verify the two clique conditions a well-separated subgraph must meet.

    (i) every maximal clique of the subgraph is a maximal clique of the
    host; (ii) any maximal host clique lying inside the subgraph meets
    any maximal host clique not lying inside it in at most one vertex.
    """
    sub.check_within(host)
    _check_clique_clauses(maximal_cliques(host), sub, ("i", "ii"))


# ---------------------------------------------------------------------------
# Triangle-free optimal construction.


def _spanning_forest(asm: Assembly, graph: Graph, within: int) -> None:
    """Write the spanning-tree construction for each component of ``graph`` on ``within``.

    The graph on the vertex mask ``within`` must be triangle-free.  Per
    component, lowest vertex first: a breadth-first spanning tree rooted
    at the component's lowest vertex, neighbours taken in ascending
    order, each tree edge an arc from parent to child; then one caring
    extra per non-tree edge, in sorted edge order.  Ids are ``graph``'s,
    and ``asm`` must hold no arcs on ``within`` yet, so the tree edges are
    the arcs written here.
    """
    adj = graph.adj
    in_set = asm.in_set
    for comp in component_masks(adj, within):
        seen = comp & -comp
        queue = [seen.bit_length() - 1]
        for v in queue:
            for w in bits(adj[v] & comp & ~seen):
                seen |= 1 << w
                in_set[w] |= 1 << v
                queue.append(w)
        for u in bits(comp):
            for v in bits(adj[u] & comp & ~((2 << u) - 1)):
                if not (in_set[v] >> u & 1 or in_set[u] >> v & 1):
                    asm.new_extra((1 << u) | (1 << v))


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
    asm = Assembly(graph.n)
    _spanning_forest(asm, graph, graph.vertex_mask())
    return asm.certificate(graph)


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
    _spanning_forest(asm, report.g_minus, graph.vertex_mask())
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
    if op == "triangle-free-base":
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


def _carers(asm: Assembly, a: int, b: int) -> list[int]:
    """The vertices whose in-sets hold a and b: base ids, then extra j as n + j.

    No in-set holds its own vertex, so neither a nor b is among them.
    """
    need = (1 << a) | (1 << b)
    return [i for i, m in enumerate((*asm.in_set, *asm.extras)) if m & need == need]


def _is_cared(asm: Assembly, a: int, b: int) -> bool:
    if _has_arc(asm, a, b) or _has_arc(asm, b, a):
        return False
    return bool(_carers(asm, a, b))


def _cared_extra(asm: Assembly, a: int, b: int) -> int:
    """The extra caring for the cared edge ab, which lies on no triangle."""
    carers = _carers(asm, a, b)
    _check(
        bool(carers) and carers[0] >= asm.n,
        "an edge on no triangle must be cared for by an extra vertex",
    )
    j = carers[0] - asm.n
    _check(
        asm.extras[j] == (1 << a) | (1 << b),
        "an extra caring for an edge on no triangle has only its ends",
    )
    return j


def _intact(adj: tuple[int, ...], within: int, vertices: Sequence[int], edges: int) -> bool:
    """Whether ``vertices`` lie in ``within`` and still span ``edges`` edges."""
    mask = sum(1 << v for v in vertices)
    return not mask & ~within and sum((adj[v] & mask).bit_count() for v in vertices) == 2 * edges


def _build_upper(graph: Graph, report: StructureReport, asm: Assembly, steps: list[dict]) -> None:
    """Proof-following construction, one component level at a time.

    ``report`` is the input's census.  Each level is a component
    ``within`` of ``graph``, the input less the edges deleted so far.  The
    input is K4-free with edge-disjoint diamonds, so deleting edges
    creates no triangle or diamond: those left are the census's that lie
    in ``within`` with all their edges.  A level that deletes edges puts
    its repair on the work stack, then the smaller levels above it, so
    the steps come out in the order of a recursion without one, however
    many triangles there are.
    """
    work: list = [(graph, graph.vertex_mask())]
    while work:
        item = work.pop()
        if isinstance(item, partial):
            item()
            continue
        graph, within = item
        adj = graph.adj
        diamond = next((dm for dm in report.diamond_list if _intact(adj, within, dm[0], 5)), None)
        if diamond is not None:
            quad, (x, z) = diamond
            y, w = sorted(set(quad) - {x, z})
            deleted = [(x, z), tuple(sorted((y, z))), tuple(sorted((w, z)))]
            g_star = graph.without_edges(deleted)
            _check(
                not g_star.adj[x] & (g_star.adj[y] | g_star.adj[w]),
                "a rim edge at x still lies on a triangle",
            )
            _record(
                asm, steps, op="remove-diamond-center-edges", diamond=list(quad),
                shared_edge=[x, z], deleted=[list(e) for e in deleted],
            )
            comps = component_masks(g_star.adj, within)
            _check(len(comps) <= 2, "deleting the center edges left over two components")
            if len(comps) == 2:
                comp_x, comp_z = comps if comps[0] >> x & 1 else reversed(comps)
                _check(
                    comp_z >> z & comp_x >> y & comp_x >> w & 1,
                    "the rim must stay on x's side when the diamond splits the graph",
                )
                comps = [comp_x, comp_z]
            work.append(partial(_repair_diamond, asm, steps, x, y, z, w, new_vertex_allowed=len(comps) == 1))
            work += [(g_star, comp) for comp in reversed(comps)]  # comp_x on top
            continue

        triangle = next((tr for tr in report.triangle_list if _intact(adj, within, tr, 3)), None)
        if triangle is None:
            part = Assembly(asm.n)
            _spanning_forest(part, graph, within)
            first = len(asm.extras)
            _record(
                asm, steps, op="triangle-free-base", vertices=list(bits(within)),
                in_arcs=sorted((t, h) for h in bits(within) for t in bits(part.in_set[h])),
                extras=[(first + j, list(bits(members))) for j, members in enumerate(part.extras)],
            )
            continue

        # no diamond, at least one triangle: delete the smallest triangle
        # edge, the first two vertices of the first triangle
        u, v, w = triangle
        _check(adj[u] & adj[v] == 1 << w, "edge on two triangles in a diamond-free graph")
        _record(asm, steps, op="remove-triangle-edge", edge=[u, v], triangle=list(triangle))
        work.append(partial(_repair_triangle, asm, steps, u, v, w))
        work.append((graph.without_edges([(u, v)]), within))


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


def construct_k4free_upper(graph: Graph) -> ConstructionTrace:
    """Certificate with at most m - n - t + 1 extras, built inductively.

    Follows the proof shape: while a triangle remains, delete either a
    diamond's three center edges or a lone triangle edge, build a
    certificate for the smaller graph, and repair the deleted edges
    within the allotted budget.  Once no triangle remains a level ends
    in the spanning-tree construction, so nothing here searches.
    Every level works in the input's ids on the input's one census.
    """
    report = sandwich_census(graph)
    asm = Assembly(graph.n)
    steps: list[dict] = []
    _build_upper(graph, report, asm, steps)
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
    densely, for the subgraph as :meth:`Subgraph.to_graph` numbers it:
    the subgraph's vertices in that order, then every extra of the input
    in ascending id.
    """
    cert = validate_phylogeny_digraph(digraph, base, target)
    check_subgraph_clique_conditions(target, sub)
    h_vertices = sorted(sub.vertices)
    rank = {cert.base[v]: i for i, v in enumerate(h_vertices)}  # digraph id -> new base id
    h_mask = sum(1 << d for d in rank)

    def kept(vertex: int) -> int:
        """The in-arcs from H kept at ``vertex``, as a mask over the new base ids."""
        meet = list(bits((digraph.inn[vertex] | 1 << vertex) & h_mask))
        if len(meet) < 2 or not _clique_belongs([h_vertices[rank[d]] for d in meet], sub):
            return 0
        return sum(1 << rank[d] for d in meet if d != vertex)

    asm = Assembly(len(h_vertices))
    asm.in_set = [kept(cert.base[v]) for v in h_vertices]
    asm.extras = [kept(x) for x in cert.extras]
    return asm.certificate(sub.to_graph()[0])


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
