"""Structural census of a graph: triangles, diamonds, K4s, and friends.

Everything the closed-form engine dispatches on lives here: the triangle
and diamond lists, the triangle-edge-deleted graph (written G- below),
maximal cliques and the per-edge clique table the exact searches branch
on, the exact edge clique cover number and vertex transitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import HypothesisViolated, TooLarge
from .generate import _labelling, _orbit
from .graphs import Edge, Graph, bits, component_masks

__all__ = [
    "StructureReport",
    "census",
    "sandwich_census",
    "triangle_edges",
    "maximal_cliques",
    "EdgeCliqueTable",
    "edge_clique_table",
    "edge_clique_cover_number",
    "is_vertex_transitive",
    "census_json",
]

# the vertex cap of theta_e here and of the exact solvers (exact.SOLVER_CAP_DEFAULT)
THETA_CAP_DEFAULT = 12
TRANSITIVITY_CAP = 10


@dataclass(frozen=True)
class StructureReport:
    """Census record for one graph.

    ``connected`` holds iff the input has exactly one component, so the
    empty graph is not connected.  ``g_minus`` is the input with every
    edge lying on a triangle deleted (same vertex set);
    ``g_minus_components`` partitions all vertices, singletons included,
    and v's component there is ``g_minus_component_of[v]``.  A diamond is
    a 4-set inducing exactly five edges, recorded together with the edge
    its two triangles share.  Diamond counting is of induced diamonds;
    under K4-freeness (where the bound machinery applies) induced and
    subgraph counts coincide, and ``has_k4`` flags when they might not.
    """

    t: int
    triangle_list: tuple[tuple[int, int, int], ...]
    d: int
    diamond_list: tuple[tuple[tuple[int, int, int, int], Edge], ...]
    has_k4: bool
    diamonds_edge_disjoint: bool
    connected: bool
    g_minus: Graph
    g_minus_components: tuple[tuple[int, ...], ...]
    g_minus_component_of: tuple[int, ...]


def triangle_edges(graph: Graph) -> set[Edge]:
    """Edges lying on at least one triangle."""
    adj = graph.adj
    return {(u, v) for u, v in graph.sorted_edges() if adj[u] & adj[v]}


@lru_cache(maxsize=1)
def census(graph: Graph) -> StructureReport:
    """Triangles, diamonds, K4 flag and the triangle-edge-deleted graph.

    Memoised for the last graph only: each pipeline asks for one graph
    several times in a row, while a memo per graph would keep a report
    alive for every graph a caller holds, as the sweep does.

    One pass over the sorted edges finds triangles, diamonds and K4s in
    each edge's common neighbours; a triangle at its smallest edge, so the
    list comes out sorted.
    """
    adj = graph.adj
    triangles = []
    diamonds = []
    has_k4 = False
    for u, v in graph.sorted_edges():
        shared = list(bits(adj[u] & adj[v]))
        for i, x in enumerate(shared):
            if x > v:
                triangles.append((u, v, x))
            for y in shared[i + 1:]:
                if adj[x] >> y & 1:
                    has_k4 = True
                else:
                    diamonds.append((tuple(sorted((u, v, x, y))), (u, v)))
    diamonds.sort()

    # a diamond's quad induces exactly its five edges
    diamond_edges = [
        (a, b) for quad, _ in diamonds for a, b in combinations(quad, 2) if adj[a] >> b & 1
    ]
    disjoint = len(set(diamond_edges)) == len(diamond_edges)

    g_minus = graph.without_edges(triangle_edges(graph))
    comps = tuple(tuple(bits(c)) for c in component_masks(g_minus.adj, g_minus.vertex_mask()))
    component_of = {v: k for k, comp in enumerate(comps) for v in comp}
    return StructureReport(
        t=len(triangles),
        triangle_list=tuple(triangles),
        d=len(diamonds),
        diamond_list=tuple(diamonds),
        has_k4=has_k4,
        diamonds_edge_disjoint=disjoint,
        connected=len(component_masks(adj, graph.vertex_mask())) == 1,
        g_minus=g_minus,
        g_minus_components=comps,
        g_minus_component_of=tuple(component_of[v] for v in range(graph.n)),
    )


def sandwich_census(graph: Graph) -> StructureReport:
    """The census of a graph meeting the hypotheses of the K4-free sandwich.

    Raises :class:`HypothesisViolated` unless the graph is connected and
    K4-free with pairwise edge-disjoint diamonds.
    """
    report = census(graph)
    if not report.connected:
        raise HypothesisViolated("graph must be connected")
    if report.has_k4:
        raise HypothesisViolated("graph contains a K4")
    if not report.diamonds_edge_disjoint:
        raise HypothesisViolated("two diamonds share an edge")
    return report


def maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each sorted, list sorted lexicographically.

    Bron-Kerbosch with pivoting over bitmask vertex sets.  Isolated
    vertices come out as singleton cliques.
    """
    out: list[int] = []
    adj = graph.adj

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_pool = p | x
        pivot = max(bits(pivot_pool), key=lambda v: (adj[v] & p).bit_count())
        for v in bits(p & ~adj[pivot]):
            vb = 1 << v
            expand(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    if graph.n:
        expand(0, graph.vertex_mask(), 0)
    cliques = [tuple(bits(mask)) for mask in out]
    cliques.sort()
    return cliques


class EdgeCliqueTable:
    """The maximal cliques on each edge of a graph, indexed by sorted edge.

    ``edges`` is the sorted edge list, ``index`` maps an edge to its
    position and ``full`` is the mask of every edge index.  For edge
    ``i``, ``cliques_on[i]`` lists the maximal cliques containing it as
    (vertex mask, edge mask) pairs, larger clique first, then smaller
    vertex mask.  The edge clique cover search and the head-assignment
    search both branch on these lists.  ``co_clique[i]`` is the edge mask
    of every edge in a common clique with edge ``i``, itself included:
    the union of the edge masks in ``cliques_on[i]``.  Both searches bound
    with :meth:`incompatible_count`: the cover search on every uncovered
    edge, the head search's sink bound on a vertex's uncovered edges.
    """

    def __init__(self, graph: Graph):
        self.edges = graph.sorted_edges()
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.full = (1 << len(self.edges)) - 1
        self._pairs: dict[int, int] = {}
        self.cliques_on: list[list[tuple[int, int]]] = [[] for _ in self.edges]
        self.co_clique = [0] * len(self.edges)
        for clique in maximal_cliques(graph):
            if len(clique) < 2:
                continue
            ids = [self.index[pair] for pair in combinations(clique, 2)]
            option = (sum(1 << v for v in clique), sum(1 << i for i in ids))
            for i in ids:
                self.cliques_on[i].append(option)
                self.co_clique[i] |= option[1]
        for options in self.cliques_on:
            options.sort(key=lambda option: (-option[0].bit_count(), option[0]))

    def pairs_mask(self, vertex_mask: int) -> int:
        """Edge-index mask of all edges inside a vertex mask (memoised)."""
        cached = self._pairs.get(vertex_mask)
        if cached is not None:
            return cached
        acc = 0
        for a, b in combinations(bits(vertex_mask), 2):
            idx = self.index.get((a, b))
            if idx is not None:
                acc |= 1 << idx
        self._pairs[vertex_mask] = acc
        return acc

    def incompatible_count(self, edge_mask: int) -> int:
        """Greedy count of edges in the mask pairwise sharing no clique.

        A lower bound on the cliques needed to cover those edges: in
        ascending order, an edge joins the count when it lies in no
        common clique with any edge already counted, so each counted
        edge drops its ``co_clique`` mask from the edges left.
        """
        count = 0
        rest = edge_mask
        co_clique = self.co_clique
        while rest:
            rest &= ~co_clique[(rest & -rest).bit_length() - 1]
            count += 1
        return count

    def cover_number(self) -> int:
        """The edge clique cover number of the graph, by branch and bound.

        Branches on the smallest uncovered edge over the maximal cliques
        on it, bounding below with :meth:`incompatible_count`.
        """
        best = len(self.edges)  # one clique per edge always works

        def search(uncovered: int, used: int) -> None:
            nonlocal best
            if uncovered == 0:
                best = min(best, used)
                return
            if used + self.incompatible_count(uncovered) >= best:
                return
            first = (uncovered & -uncovered).bit_length() - 1
            for _, edge_mask in self.cliques_on[first]:
                search(uncovered & ~edge_mask, used + 1)

        search(self.full, 0)
        return best


@lru_cache(maxsize=1)
def edge_clique_table(graph: Graph) -> EdgeCliqueTable:
    """The graph's :class:`EdgeCliqueTable`, memoised for the last graph.

    The sweep tables each graph for the phylogeny search and then for
    theta_e; one memo serves both, as :func:`census` does.
    """
    return EdgeCliqueTable(graph)


def edge_clique_cover_number(graph: Graph, cap: int = THETA_CAP_DEFAULT) -> int:
    """Exact minimum number of cliques covering every edge.

    The branch and bound of :meth:`EdgeCliqueTable.cover_number` on the
    graph's clique table.
    """
    if graph.n > cap:
        raise TooLarge(f"edge clique cover solver capped at {cap} vertices (got {graph.n})")
    if graph.m == 0:
        return 0
    return edge_clique_table(graph).cover_number()


def is_vertex_transitive(graph: Graph) -> bool:
    """Whether the automorphism group acts transitively on the vertices.

    Complete and edgeless graphs are answered outright: every vertex
    permutation is an automorphism.  Otherwise one canonical search from
    the unit partition returns generators of the automorphism group, and
    the graph is transitive iff vertex 0's orbit under them is every
    vertex.  Only regular graphs reach that search, which is exponential
    in the worst case, hence the cap; this is only ever applied to small
    decomposition parts.
    """
    if graph.m in (0, graph.n * (graph.n - 1) // 2):
        return True
    if len({graph.degree(v) for v in range(graph.n)}) > 1:
        return False
    if graph.n > TRANSITIVITY_CAP:
        raise TooLarge(f"vertex transitivity check capped at {TRANSITIVITY_CAP} vertices (got {graph.n})")
    return len(_orbit(0, _labelling(graph)[1])) == graph.n


def census_json(graph: Graph, theta_cap: int = THETA_CAP_DEFAULT) -> dict:
    """The census as a JSON-ready dict (the CLI's ``census`` payload)."""
    report = census(graph)
    payload = {
        "n": graph.n,
        "m": graph.m,
        "t": report.t,
        "d": report.d,
        "has_k4": report.has_k4,
        "diamonds_edge_disjoint": report.diamonds_edge_disjoint,
        "gminus_components": [list(c) for c in report.g_minus_components],
    }
    try:
        payload["theta_e"] = edge_clique_cover_number(graph, cap=theta_cap)
    except TooLarge:
        payload["theta_e"] = None
    return payload
