"""Shared helpers for the test suite."""

import random

from phylokit.derived import phylogeny_graph
from phylokit.graphs import Digraph, Graph, bits


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
