"""Shared helpers for the test suite."""

import random

import pytest

from phylokit.derived import phylogeny_graph
from phylokit.generate import canonical_graph, graph6_encode
from phylokit.graphs import Digraph, Graph, bits, connected_components


@pytest.fixture
def labellings(monkeypatch):
    """A list that gains one entry per canonical search the generator runs.

    Counts the calls of ``generate._least_leaf`` made through the
    module's own binding, which is how ``connected_graphs`` labels its
    parents and their extensions.
    """
    import phylokit.generate as generate

    calls = []
    original = generate._least_leaf

    def counted(adj, *args, **kwargs):
        calls.append(len(adj))
        return original(adj, *args, **kwargs)

    monkeypatch.setattr(generate, "_least_leaf", counted)
    return calls


def random_certificate(rng: random.Random, max_base: int = 7, max_extra: int = 3):
    """A random valid certificate together with its target graph.

    Picks a random topological order, adds arcs forward along it with
    tails restricted to base vertices (so no arc can enter the base from
    outside and every extra is a sink), then reads the target off the
    phylogeny graph restricted to the base.  By construction the result
    always validates.
    """
    n_base = rng.randrange(3, max_base + 1)
    n_extra = rng.randrange(0, max_extra + 1)
    n = n_base + n_extra
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    arcs = []
    for t in range(n_base):
        for h in range(n):
            if t != h and rank[t] < rank[h] and rng.random() < 0.35:
                arcs.append((t, h))
    digraph = Digraph(n, arcs)
    phylo = phylogeny_graph(digraph)
    target = Graph(n_base, [e for e in phylo.edges if e[1] < n_base])
    return digraph, target


def all_digraph_arc_sets(n: int):
    """Every simple digraph arc set on n vertices."""
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in bits(mask)]


def labelled_graphs(n: int):
    """Every labelled simple graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in bits(mask)])


def diamond_necklace(k: int) -> Graph:
    """k diamonds chained by 4-cycles: K4-free, edge-disjoint diamonds.

    Diamond i is a-b, a-c, b-c, b-d, c-d on a, b, c, d = 4i .. 4i+3, and
    its d joins the next diamond's a through a 4-cycle on two new
    vertices.  So n = 6k - 2, m = 9k - 4, t = 2k and d = k, and the
    sandwich's upper end m - n - t + 1 = k - 1 is exact.
    """
    edges = []
    for i in range(k):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, b), (a, c), (b, c), (b, d), (c, d)]
    n = 4 * k
    for i in range(k - 1):
        d, a = 4 * i + 3, 4 * i + 4
        edges += [(d, n), (n, a), (a, n + 1), (n + 1, d)]
        n += 2
    return Graph(n, edges)


def triangle_ring(t: int) -> Graph:
    """The ring of t triangles: the cycle 0..t-1, and apex t + i on i and i + 1."""
    cycle = [(i, (i + 1) % t) for i in range(t)]
    return Graph(2 * t, cycle + [(t + i, v) for i, (u, w) in enumerate(cycle) for v in (u, w)])


def connected_gnp_draws(n: int, seed: int, count: int = 2) -> list[Graph]:
    """The first ``count`` connected G(n, 1/2) draws of ``random.Random(seed)``.

    Each draw takes every pair u < v, in order, with probability 1/2;
    a disconnected draw is skipped.  The second connected draw at n = 16,
    seed 2026, exhausts the phylogeny solver's default node budget.
    """
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        if len(connected_components(g)) == 1:
            draws.append(g)
    return draws


def naive_connected_graphs(n: int) -> list[Graph]:
    """The connected graphs on n vertices, canonicalising every extension.

    The generator without its canonical-deletion test: each connected
    graph on k vertices is joined to a new vertex by every nonempty
    subset, and all extensions are deduplicated by canonical form.
    """
    level = [Graph(1)]
    for k in range(1, n):
        bigger: dict[str, Graph] = {}
        for g in level:
            for subset in range(1, 1 << k):
                candidate = canonical_graph(Graph(k + 1, [*g.edges, *((v, k) for v in bits(subset))]))
                bigger.setdefault(graph6_encode(candidate), candidate)
        level = [bigger[key] for key in sorted(bigger)]
    return level


GLUED_BLOCKS = {
    "K2": (2, [(0, 1)]),
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
}


def glued_block_graphs(count: int, seed: int) -> list[Graph]:
    """Random graphs built from small blocks, each glued at a vertex so far.

    Up to eight blocks from ``GLUED_BLOCKS``, then sometimes a separate
    path as a second component, with the vertices relabelled at random:
    long chains of leaf blocks of mixed sizes, which few labelled graphs
    of six or seven vertices have.
    """
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n, edges = 1, []
        for _ in range(rng.randint(1, 8)):
            size, local = GLUED_BLOCKS[rng.choice(sorted(GLUED_BLOCKS))]
            ids = [rng.randrange(n)] + list(range(n, n + size - 1))
            edges += [(ids[a], ids[b]) for a, b in local]
            n += size - 1
        if rng.random() < 0.25:
            extra = rng.randint(1, 3)
            edges += [(v, v + 1) for v in range(n, n + extra - 1)]
            n += extra
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(Graph(n, [(perm[a], perm[b]) for a, b in edges]))
    return graphs
