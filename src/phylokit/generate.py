"""Exhaustive small-graph enumeration, canonical forms and graph6 I/O.

The sweep commands consume either the native generator below or an
externally produced graph6 stream, so results can be reproduced against
standard tooling without depending on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import ParseError, TooLarge
from .graphs import Graph, bits, component_masks

__all__ = [
    "graph6_encode",
    "graph6_decode",
    "canonical_labeling",
    "canonical_graph",
    "canonical_graph6",
    "connected_graphs",
    "connected_graphs_upto",
]

GENERATOR_CAP = 8


def graph6_encode(graph: Graph) -> str:
    """Standard graph6 line (no header) for up to 62 vertices."""
    n = graph.n
    if n > 62:
        raise TooLarge("graph6 writer limited to 62 vertices")
    chars = [chr(n + 63)]
    bitstring = []
    for j in range(1, n):
        row = graph.adj[j]
        for i in range(j):
            bitstring.append(row >> i & 1)
    while len(bitstring) % 6:
        bitstring.append(0)
    for k in range(0, len(bitstring), 6):
        value = 0
        for b in bitstring[k:k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def graph6_decode(line: str) -> Graph:
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ParseError("empty graph6 line")
    n = ord(text[0]) - 63
    if not 0 <= n < 64:
        raise ParseError(f"invalid graph6 character {text[0]!r}")
    if n == 63:  # '~' opens the header of a graph on 63 or more vertices
        raise ParseError("only graph6 lines with at most 62 vertices are supported")
    need = (n * (n - 1) // 2 + 5) // 6
    data = text[1:]
    if len(data) != need:
        raise ParseError(f"graph6 line for n={n} needs {need} data characters, got {len(data)}")
    bitstring = []
    for ch in data:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ParseError(f"invalid graph6 character {ch!r}")
        bitstring.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    if any(bitstring[pos:]):
        raise ParseError("graph6 padding bits must be zero")
    return Graph._from_adj(tuple(adj))


# ---------------------------------------------------------------------------
# Canonical labeling: color refinement plus individualization, with twin
# skipping so cliques and other twin-heavy graphs do not blow up.  Small-n
# only, which is all the sweeps need.


def _refine(adj: tuple[int, ...], partition: list[list[int]], inert: set[int]) -> list[list[int]]:
    """The equitable refinement of an ordered partition.

    Repeatedly splits every cell by the neighbour count in the first
    cell, as a vertex mask, that splits anything, and stops when no cell
    does or the partition is discrete.  ``inert`` holds masks that split
    no cell; it is read and extended here.  A mask that splits no cell of
    a partition splits no cell of any refinement of it, so skipping those
    masks, here and in every search below this one, yields the same
    partition.  A splitter's mask joins ``inert`` once applied, since
    every cell is then uniform towards it; a mask that splits nothing
    joins it as well.  A cell that does not split is kept as it is.
    """
    n = len(adj)
    while len(partition) < n:
        for splitter in partition:
            splitter_mask = 0
            for v in splitter:
                splitter_mask |= 1 << v
            if splitter_mask in inert:
                continue
            inert.add(splitter_mask)
            new_partition: list[list[int]] = []
            split_here = False
            for cell in partition:
                size = len(cell)
                if size == 1:
                    new_partition.append(cell)
                elif size == 2:
                    u, v = cell
                    cu = (adj[u] & splitter_mask).bit_count()
                    cv = (adj[v] & splitter_mask).bit_count()
                    if cu == cv:
                        new_partition.append(cell)
                    else:
                        split_here = True
                        new_partition += ([u], [v]) if cu < cv else ([v], [u])
                else:
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault((adj[v] & splitter_mask).bit_count(), []).append(v)
                    if len(groups) == 1:
                        new_partition.append(cell)
                    else:
                        split_here = True
                        for key in sorted(groups):
                            new_partition.append(groups[key])
            if split_here:
                partition = new_partition
                break
        else:
            break
    return partition


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    return (adj[u] & ~(1 << v)) == (adj[v] & ~(1 << u))


def _least_leaf(
    adj: tuple[int, ...], partition: list[list[int]], automorphisms: bool = False
) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """The least leaf of the search from an ordered partition: (code, order, generators).

    ``code`` is the relabelled adjacency read column by column, as the
    graph6 bit string of the relabelled graph, so equal codes mean equal
    relabelled graphs; on ties the first leaf found wins.  Refinement is
    equivariant and a twin skip drops only a subtree isomorphic to one
    already searched, so an automorphism that maps one start partition
    onto another leaves the least code unchanged.

    With ``automorphisms``, ``generators`` lists permutations (``perm[v]``
    is the image of v) that generate the automorphism group of the graph
    when the search starts from the unit partition: the transposition of
    each skipped twin with the twin searched in its place, and the map
    from each leaf onto the first leaf with the same code.  Every subtree
    a twin skip drops is the image of a searched one under its
    transposition, so every leaf of the unpruned tree is the image of a
    searched leaf under the group these generate; an automorphism maps
    the first leaf onto a leaf with its code, and the leaf-to-leaf maps
    close that gap.  Otherwise ``generators`` is empty, since collecting
    them slows the search.
    """
    n = len(adj)
    best_code = -1
    best_order: list[int] = []
    generators: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    first_leaf: dict[int, list[int]] = {}

    def search(partition: list[list[int]], inert: set[int]) -> None:
        nonlocal best_code, best_order
        partition = _refine(adj, partition, inert)
        if len(partition) == n:
            order = [cell[0] for cell in partition]
            code = 0
            for j in range(1, n):
                row = adj[order[j]]
                for w in order[:j]:
                    code = code << 1 | (row >> w & 1)
            if best_code < 0 or code < best_code:
                best_code, best_order = code, order
            if automorphisms:
                first = first_leaf.setdefault(code, order)
                if first is not order:
                    perm = [0] * n
                    for v, w in zip(order, first):
                        perm[v] = w
                    generators[tuple(perm)] = None
            return
        target = 0
        while len(partition[target]) == 1:
            target += 1
        cell = partition[target]
        tried: list[int] = []
        for v in cell:
            twin = None
            for u in tried:
                if _twins(adj, u, v):
                    twin = u
                    break
            if twin is not None:
                if automorphisms:
                    perm = list(range(n))
                    perm[twin], perm[v] = v, twin
                    generators[tuple(perm)] = None
                continue
            tried.append(v)
            rest = [u for u in cell if u != v]
            search(partition[:target] + [[v], rest] + partition[target + 1:], set(inert))

    # the first vertex of every cell is searched, so a leaf is always found
    search(partition, set())
    return best_code, tuple(best_order), list(generators)


def _orbit(start: int, maps: list) -> list[int]:
    """The orbit of ``start`` under maps given as image tables (``table[x]`` is x's image)."""
    orbit = [start]
    seen = {start}
    for x in orbit:
        for table in maps:
            y = table[x]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


@lru_cache(maxsize=1)
def _labelling(graph: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The canonical order of ``graph`` and generators of its automorphism group.

    One canonical search from the unit partition (see :func:`_least_leaf`).
    Memoised for the last graph only, like ``structure.census``: the
    sweep names a graph and then solves it, and the name needs the order
    while the solver needs both.
    """
    if graph.n == 0:
        return (), ()
    _, order, generators = _least_leaf(graph.adj, [list(range(graph.n))], automorphisms=True)
    return order, tuple(generators)


def canonical_labeling(graph: Graph) -> tuple[int, ...]:
    """A vertex order whose relabelled adjacency code is minimal.

    Returns ``order`` with ``order[i]`` = original vertex placed at i.
    Deterministic, so equal codes mean isomorphic graphs and vice versa
    within the generator's size range.
    """
    return _labelling(graph)[0]


def _relabel(adj: tuple[int, ...], order: tuple[int, ...]) -> Graph:
    """The graph whose vertex ``i`` is vertex ``order[i]`` of the graph with these masks."""
    position = [0] * len(adj)
    for new, old in enumerate(order):
        position[old] = new
    rows = []
    for old in order:
        row = 0
        for w in bits(adj[old]):
            row |= 1 << position[w]
        rows.append(row)
    return Graph._from_adj(tuple(rows))


def canonical_graph(graph: Graph) -> Graph:
    return _relabel(graph.adj, canonical_labeling(graph))


def canonical_graph6(graph: Graph) -> str:
    return graph6_encode(canonical_graph(graph))


def _deletion_candidates(g: Graph, generators: list[tuple[int, ...]]) -> Iterator[int]:
    """One subset S per Aut(g)-orbit whose extension of ``g`` may delete back canonically.

    The extension joins a new vertex k to S.  It is skipped when some
    vertex u of ``g`` has a higher degree than k after the join and is
    not a cut vertex of the extension.  That holds when every component
    of g - u meets S, since k then joins them.  An automorphism of g
    maps S's extension onto an isomorphic one and keeps this test's
    answer, so only the least subset of each orbit is tested and
    yielded; ``generators`` generate Aut(g).
    """
    k = g.n
    degree = [a.bit_count() for a in g.adj]
    by_degree = sorted(range(k), key=degree.__getitem__, reverse=True)
    pieces = [component_masks(g.adj, g.vertex_mask() & ~(1 << u)) for u in range(k)]
    images = []  # one subset image table per generator
    for perm in generators:
        table = [0]
        for v in range(k):
            image = 1 << perm[v]
            table += [t | image for t in table]
        images.append(table)
    seen = bytearray(1 << k)  # marks the subsets of the orbits met so far
    for subset in range(1, 1 << k):
        if seen[subset]:
            continue
        if images:  # a trivial group has one-subset orbits, so nothing to mark
            seen[subset] = 1
            orbit = [subset]
            for x in orbit:
                for table in images:
                    y = table[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
        size = subset.bit_count()
        for u in by_degree:
            if degree[u] < size:  # neither u nor any later vertex outranks k
                yield subset
                break
            if degree[u] + (subset >> u & 1) > size:
                for piece in pieces[u]:
                    if not piece & subset:
                        break
                else:  # every component of g - u meets S: u is no cut vertex
                    break
        else:
            yield subset


def _levels(n: int) -> Iterator[list[Graph]]:
    """The connected graphs on 1, 2, ..., n vertices, one sorted level at a time."""
    if n > GENERATOR_CAP:
        raise TooLarge(f"generator capped at {GENERATOR_CAP} vertices (got {n})")
    if n < 1:
        return
    level = [Graph(1)]
    yield level
    for k in range(1, n):
        bigger: dict[int, Graph] = {}
        for g in level:
            generators = _least_leaf(g.adj, [list(range(k))], automorphisms=True)[2]
            for subset in _deletion_candidates(g, generators):
                adj = list(g.adj)
                for v in bits(subset):
                    adj[v] |= 1 << k
                adj.append(subset)
                extension = tuple(adj)
                code, order, _ = _least_leaf(extension, [list(range(k + 1))])
                if code not in bigger:
                    bigger[code] = _relabel(extension, order)
        level = [bigger[code] for code in sorted(bigger)]
        yield level


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Built level by level: every connected graph on k+1 vertices arises
    from a connected graph on k vertices by adding one vertex k joined to
    a nonempty subset S.  Returned in canonical-code order, each graph
    canonically labelled.

    Only extensions whose vertex k could be the canonical deletion are
    canonicalised: an extension is skipped when some non-cut vertex has
    a higher degree than k.  Nothing is lost.  A connected H on k+1 >= 2
    vertices has a non-cut vertex; let w be one of highest degree.
    H - w is connected, so isomorphic to a graph g of level k.  Mapping
    H - w onto g and w to k gives an extension of g isomorphic to H whose
    vertex k passes the test.  Of the subsets that pass, only one per
    orbit of Aut(g) is extended, since the others give isomorphic graphs.
    Ties between parents still give duplicates, which the dedupe by
    canonical code removes.
    """
    last: list[Graph] = []
    for last in _levels(n):
        pass
    return last


def connected_graphs_upto(n_max: int) -> Iterator[Graph]:
    for level in _levels(n_max):
        yield from level
