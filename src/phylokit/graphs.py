"""Core graph and digraph value types plus the traversal utilities.

Vertices are dense integer ids ``0..n-1`` so adjacency can be kept in
per-vertex bitmasks (plain Python ints), which is what the exact solver
needs; :func:`component_masks` and :func:`blocks` return vertex masks
too.  Both :class:`Graph` and :class:`Digraph` are immutable after
construction; every "mutation" builds a new value.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import CyclicDigraph, ParseError, UnknownVertex

__all__ = [
    "Graph",
    "Digraph",
    "bits",
    "is_acyclic",
    "acyclic_labeling",
    "component_masks",
    "connected_components",
    "blocks",
    "blocks_by_component",
    "parse_graph",
    "parse_digraph",
    "format_graph",
    "format_digraph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "empty_graph",
    "grid_2xk",
    "disjoint_union",
]

Edge = tuple[int, int]
Arc = tuple[int, int]
T = TypeVar("T")


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    A graph is ``n`` and ``adj``, where ``adj[v]`` is the neighbourhood of
    ``v`` as a bitmask; equality, hashing, ``m``, ``has_edge``,
    ``sorted_edges`` and the derived graphs all read the masks.  ``edges``
    is the frozenset of ``(u, v)`` pairs with ``u < v``, built on each
    read by inserting the pairs in ascending order, so it iterates the
    same way for equal graphs whatever built them.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if adj[u] >> v & 1:
                a, b = _norm_edge(u, v)
                raise ValueError(f"duplicate edge ({a},{b})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def _from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        """The graph with these adjacency masks, which must be symmetric and loop-free."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", len(adj))
        object.__setattr__(graph, "adj", adj)
        return graph

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges())

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) >> 1

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def sorted_edges(self) -> list[Edge]:
        edges = []
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                low = row & -row
                edges.append((u, u + low.bit_length()))
                row ^= low
        return edges

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def is_clique(self, vertex_mask: int) -> bool:
        """True iff the vertices in ``vertex_mask`` are pairwise adjacent."""
        rest = vertex_mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if rest & ~self.adj[v]:
                return False
        return True

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """The subgraph induced on ``vertices``, relabelled densely.

        Returns the new graph and the list mapping new ids to old ids.
        """
        keep = sorted(set(vertices))
        for v in keep:
            if not 0 <= v < self.n:
                raise UnknownVertex(f"vertex {v} not in 0..{self.n - 1}")
        index = {old: new for new, old in enumerate(keep)}
        inside = sum(1 << v for v in keep)
        rows = []
        for old in keep:
            row = 0
            for w in bits(self.adj[old] & inside):
                row |= 1 << index[w]
            rows.append(row)
        return Graph._from_adj(tuple(rows)), keep

    def without_edges(self, drop: Iterable[Edge]) -> "Graph":
        """Same vertex set with the given edges removed; pairs that are no edge are ignored."""
        adj = list(self.adj)
        for u, v in drop:
            if self.has_edge(u, v):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
        return Graph._from_adj(tuple(adj))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """A finite simple directed graph on vertices ``0..n-1``.

    A digraph is ``n``, ``out`` and ``inn``, where ``out[v]`` and
    ``inn[v]`` are the out- and in-neighbourhoods of ``v`` as bitmasks;
    equality, hashing, ``m``, ``has_arc`` and ``sorted_arcs`` read the
    masks.  ``arcs`` is the frozenset of ``(tail, head)`` pairs, built on
    each read.  Acyclicity is a checked property (see :func:`is_acyclic`),
    never a construction invariant: certificate validation and
    :func:`~phylokit.derived.phylogeny_graph` read digraphs that may be
    cyclic, and reject them.
    """

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        out = [0] * n
        inn = [0] * n
        for t, h in arcs:
            if t == h:
                raise ValueError(f"self-loop at vertex {t}")
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc ({t},{h}) has an endpoint outside 0..{n - 1}")
            if out[t] >> h & 1:
                raise ValueError(f"duplicate arc ({t},{h})")
            out[t] |= 1 << h
            inn[h] |= 1 << t
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", tuple(out))
        object.__setattr__(self, "inn", tuple(inn))

    @classmethod
    def _from_inn(cls, inn: tuple[int, ...]) -> "Digraph":
        """The digraph with these in-neighbourhood masks, which must be loop-free."""
        out = [0] * len(inn)
        for h, tails in enumerate(inn):
            for t in bits(tails):
                out[t] |= 1 << h
        digraph = object.__new__(cls)
        object.__setattr__(digraph, "n", len(inn))
        object.__setattr__(digraph, "out", tuple(out))
        object.__setattr__(digraph, "inn", inn)
        return digraph

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    @property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.sorted_arcs())

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.out)

    def has_arc(self, t: int, h: int) -> bool:
        return 0 <= t < self.n and 0 <= h < self.n and bool(self.out[t] >> h & 1)

    def sorted_arcs(self) -> list[Arc]:
        return [(t, h) for t, row in enumerate(self.out) for h in bits(row)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.out == other.out

    def __hash__(self) -> int:
        return hash(self.out)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.m})"


def _reverse_kahn_labels(digraph: Digraph) -> list[int]:
    """Kahn's algorithm on the reversed arcs, smallest-id ready vertex first.

    Step k gives value k to the smallest-id vertex whose out-neighbors all
    have values; a vertex on or behind a cycle keeps 0.
    """
    waiting = [out.bit_count() for out in digraph.out]
    ready = [v for v in range(digraph.n) if waiting[v] == 0]  # sorted, so a heap
    values = [0] * digraph.n
    for value in range(1, digraph.n + 1):
        if not ready:
            break
        v = heappop(ready)
        values[v] = value
        for u in bits(digraph.inn[v]):
            waiting[u] -= 1
            if waiting[u] == 0:
                heappush(ready, u)
    return values


def is_acyclic(digraph: Digraph) -> bool:
    """True iff the digraph has no directed cycle."""
    return all(_reverse_kahn_labels(digraph))


def acyclic_labeling(digraph: Digraph) -> tuple[int, ...]:
    """A labeling with every arc's tail numbered above its head.

    Entry ``v`` of the returned tuple is the value of vertex ``v``.
    Values ``1..n`` are assigned in increasing order, each time to the
    smallest-id vertex all of whose out-neighbors are already numbered.
    That tie-break makes the result unique, hence reproducible.
    """
    values = _reverse_kahn_labels(digraph)
    if not all(values):
        raise CyclicDigraph("digraph has a directed cycle")
    return tuple(values)


def component_masks(adj: tuple[int, ...], within: int) -> list[int]:
    """The connected components of the subgraph induced on ``within``.

    ``adj`` holds adjacency masks; the components come back as vertex
    masks, ordered by their lowest vertex.
    """
    components = []
    while within:
        comp = frontier = within & -within
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & within & ~comp
            comp |= frontier
        components.append(comp)
        within &= ~comp
    return components


def connected_components(graph: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, ordered by their minimum member."""
    return [list(bits(comp)) for comp in component_masks(graph.adj, graph.vertex_mask())]


def blocks_by_component(graph: Graph) -> list[tuple[int, list[int]]]:
    """Each component's vertex mask with its blocks, as vertex masks.

    A block is a bridge or a maximal 2-connected subgraph; every edge lies
    in exactly one block, and an isolated vertex lies in none.  A cut
    vertex is a vertex in two or more masks.  One iterative Tarjan pass
    with a vertex stack, so deep paths do not hit the recursion limit;
    its roots start the components, in order of their lowest vertex.  A
    component's blocks are sorted by their smallest edge: the mask's
    lowest vertex u, then u's lowest neighbour inside the mask.
    """
    adj = graph.adj
    unscanned = list(adj)
    discovery = [0] * graph.n  # 0: not visited yet
    low = [0] * graph.n
    components = []
    timer = 0

    def smallest_edge(mask: int) -> tuple[int, int]:
        # (1 << u, 1 << v) orders blocks as (u, v) would
        u_bit = mask & -mask
        inside = adj[u_bit.bit_length() - 1] & mask
        return u_bit, inside & -inside

    for root in range(graph.n):
        if discovery[root]:
            continue
        discovery[root] = low[root] = timer = timer + 1
        comp = 1 << root
        found = []
        path = [root]
        open_vertices = [root]  # visited, block not closed yet
        while path:
            v = path[-1]
            rest = unscanned[v]
            if rest:
                w_bit = rest & -rest
                unscanned[v] = rest ^ w_bit
                w = w_bit.bit_length() - 1
                if not discovery[w]:
                    discovery[w] = low[w] = timer = timer + 1
                    comp |= w_bit
                    path.append(w)
                    open_vertices.append(w)
                elif discovery[w] < low[v]:  # a back edge, or the tree edge up to v's parent
                    low[v] = discovery[w]
                continue
            path.pop()
            if not path:
                break
            parent = path[-1]
            if low[v] >= discovery[parent]:
                # v closes a block at parent: pop vertices down to v
                mask = 1 << parent
                while not mask >> v & 1:
                    mask |= 1 << open_vertices.pop()
                found.append(mask)
            elif low[v] < low[parent]:
                low[parent] = low[v]
        components.append((comp, sorted(found, key=smallest_edge)))
    return components


def blocks(graph: Graph) -> list[int]:
    """Every block of :func:`blocks_by_component`, sorted by smallest edge."""
    # blocks sharing their lowest vertex lie in one component, already in order
    found = [mask for _, masks in blocks_by_component(graph) for mask in masks]
    return sorted(found, key=lambda mask: mask & -mask)


# ---------------------------------------------------------------------------
# Edge-list text format, shared by every module and the CLI.
#
# First non-comment line: "n m"; then m lines "u v" with 0-based ids.
# A '#' at the start of a (stripped) line begins a comment line.  For a
# digraph each "u v" line is the arc u->v.


def _parse_edge_list(text: str, build: Callable[[int, list[tuple[int, int]]], T]) -> T:
    """``build(n, pairs)`` on the header's ``n`` and the ``u v`` pairs.

    Only the header and the line shapes are checked here; ``build`` checks
    the pairs, and its ``ValueError`` becomes a :class:`ParseError`.
    """
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if not lines:
        raise ParseError("empty input: expected a leading 'n m' line")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' on the first line, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} pair lines, found {len(body)}")
    pairs: list[tuple[int, int]] = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-integer pair {line!r}") from exc
    try:
        return build(n, pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    return _parse_edge_list(text, Graph)


def parse_digraph(text: str) -> Digraph:
    return _parse_edge_list(text, Digraph)


def format_graph(graph: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append(f"{graph.n} {graph.m}")
    lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"


def format_digraph(digraph: Digraph, comment: str | None = None, trailing: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {part}" for part in comment.splitlines())
    lines.append(f"{digraph.n} {digraph.m}")
    lines.extend(f"{t} {h}" for t, h in digraph.sorted_arcs())
    if trailing:
        lines.append(f"# {trailing}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Small builders used throughout the tests, demos and the family generator.


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def grid_2xk(k: int) -> Graph:
    """The 2-by-k grid (ladder): vertices ``(row, col) -> 2*col + row``."""
    if k < 1:
        raise ValueError("the grid needs at least one column")
    edges = []
    for col in range(k):
        edges.append((2 * col, 2 * col + 1))
        if col + 1 < k:
            edges.append((2 * col, 2 * col + 2))
            edges.append((2 * col + 1, 2 * col + 3))
    return Graph(2 * k, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.sorted_edges())
        offset += g.n
    return Graph(offset, edges)
