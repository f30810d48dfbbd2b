"""Expected values for every benchmark item, and the checks that need no phylokit.

The benchmark never trusts phylokit to identify a graph.  It decodes
graph6 itself and keys every stored value by its own canonical form: a
colour refinement of the vertices followed by the best adjacency code
over every order that respects the refined colour classes.  That is slow
for regular graphs but exact, and it shares no code with
``phylokit.generate``.

Run this file to rebuild ``reference.json``; it cross-checks every value
against the sources that do not depend on the phylogeny solver (see
``build``), and refuses to write anything if one disagrees.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Connected graphs on n = 1..8 vertices up to isomorphism (OEIS A001349).
PUBLISHED_CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)

# Phylogeny numbers of the paper's worked examples, as printed there.
PAPER_FIGURES = {
    "fig1_G": 1,
    "fig2_G": 2,
    "fig3_G1": 4,
    "fig3_G2": 0,
    "fig4_G1": 1,
    "fig4_G2": 2,
}

LARGE_DRAW_SEED = 20190416
LARGE_DRAW_SIZE = 100
DENSE_DRAW_SEED = 20190417
DENSE_DRAW_SIZE = 24
SMALL_DRAW_SEED = 20190418


# ---------------------------------------------------------------------------
# Graphs as (n, adjacency bitmasks), independent of phylokit.Graph.


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph6_decode(line: str) -> list[int]:
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return adj


def graph6_encode(adj: list[int]) -> str:
    n = len(adj)
    bits = [(adj[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def components(adj: list[int]) -> list[list[int]]:
    seen = 0
    out = []
    for start in range(len(adj)):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in range(len(adj)):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append([v for v in range(len(adj)) if comp >> v & 1])
    return out


def induced(adj: list[int], vertices: list[int]) -> list[int]:
    position = {v: i for i, v in enumerate(vertices)}
    sub = [0] * len(vertices)
    for v in vertices:
        for u in vertices:
            if adj[v] >> u & 1:
                sub[position[v]] |= 1 << position[u]
    return sub


def _refine(adj: list[int]) -> tuple[list[int], tuple]:
    """Stable colour refinement; colours are ranks of invariant signatures."""
    n = len(adj)
    colour = [a.bit_count() for a in adj]
    while True:
        sig = [
            (colour[v], tuple(sorted(colour[u] for u in range(n) if adj[v] >> u & 1)))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        if len(rank) == len(set(colour)):
            return refined, tuple(sorted(sig))
        colour = refined


def refinement_invariant(adj: list[int]) -> tuple:
    """Isomorphism invariant (not complete): the refined colour signatures."""
    return (len(adj), _refine(adj)[1])


def canonical_key(adj: list[int]) -> str:
    """Complete isomorphism invariant: best code over colour-respecting orders."""
    n = len(adj)
    if n == 0:
        return "0:0"
    colour, _ = _refine(adj)
    cells = [[v for v in range(n) if colour[v] == c] for c in range(max(colour) + 1)]
    best = -1
    for parts in product(*(permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        code = 0
        for j in range(1, n):
            aj = adj[order[j]]
            for i in range(j):
                code = code << 1 | (aj >> order[i] & 1)
        best = max(best, code)
    return f"{n}:{best:x}"


def isomorphic_pairs(graphs: list[list[int]]) -> int:
    """Pairs of isomorphic graphs in a list, by the complete key.

    Only graphs that share a refinement invariant can be isomorphic, so
    the slow complete key runs only inside those groups.
    """
    groups: dict[tuple, list[list[int]]] = {}
    for adj in graphs:
        groups.setdefault(refinement_invariant(adj), []).append(adj)
    pairs = 0
    for group in groups.values():
        if len(group) > 1:
            keys = [canonical_key(adj) for adj in group]
            pairs += len(keys) - len(set(keys))
    return pairs


def invariant_digest(graphs: list[list[int]]) -> str:
    """Digest of the multiset of refinement invariants of a graph list."""
    lines = sorted(repr(refinement_invariant(adj)) for adj in graphs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The compute_mix inputs.  Small labelled graphs are relabelled per run
# seed and take their expected value from the connected-graph table,
# summed over components.  The dense labelled graphs and the large graphs are fixed
# draws stored with their values.


SMALL_EDGE_PROBABILITIES = (0.15, 0.25, 0.35, 0.45)
DENSE_EDGE_PROBABILITIES = (0.55, 0.65, 0.75, 0.85)


def small_labelled_graphs(seed: int, per_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """``per_n`` labelled graphs for each n in 2..7, a quarter of them forests.

    The graphs are one fixed draw (forests, then G(n, p) at each edge
    probability in turn); the run seed relabels every one of them at
    random.  Fixing the classes keeps the share of items on each code
    path, and with it the latency percentiles, the same from seed to
    seed.  Forests attach each vertex to a random earlier one with
    probability 0.8; isolated edges and isolated vertices stay in.
    """
    rng = random.Random(SMALL_DRAW_SEED)
    labels = random.Random(seed)
    out = []
    for n in range(2, 8):
        for i in range(per_n):
            if i % 4 == 0:
                edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
            else:
                p = SMALL_EDGE_PROBABILITIES[(i // 4) % len(SMALL_EDGE_PROBABILITIES)]
                edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            perm = list(range(n))
            labels.shuffle(perm)
            out.append((n, [(perm[u], perm[v]) for u, v in edges]))
    return out


def dense_labelled_graphs(seed: int, count: int) -> list[list[int]]:
    """``count`` labelled G(7, p) graphs, p cycling through the dense values.

    Their labelling is random, unlike the canonical labelling the sweep
    hands the solver, and some of them take the solver seconds.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = DENSE_EDGE_PROBABILITIES[i % len(DENSE_EDGE_PROBABILITIES)]
        out.append(adjacency(7, [(u, v) for v in range(7) for u in range(v) if rng.random() < p]))
    return out


def component_sum(table: dict, adj: list[int]) -> int:
    """A graph's phylogeny number: the sum over its components' table values."""
    return sum(table[canonical_key(induced(adj, comp))] for comp in components(adj))


def _large_candidate(rng: random.Random) -> list[int]:
    """A random connected graph on 10..15 vertices: a tree plus extra edges.

    Three in five extra edges close a path of length two, so triangles
    and diamonds are common; the rest join a random non-adjacent pair.
    """
    n = rng.randint(10, 15)
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    extra = rng.randint(n // 3, n - 2)
    for _ in range(100):
        if not extra:
            break
        a = rng.randrange(n)
        if rng.random() < 0.6:
            two = [w for b in range(n) if adj[a] >> b & 1 for w in range(n)
                   if adj[b] >> w & 1 and w != a and not adj[a] >> w & 1]
            if not two:
                continue
            b = rng.choice(two)
        else:
            b = rng.randrange(n)
            if b == a or adj[a] >> b & 1:
                continue
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        extra -= 1
    return adj


# ---------------------------------------------------------------------------
# Building the reference (needs phylokit importable).


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"reference check failed: {message}")


def build() -> dict:
    from phylokit import (
        Graph,
        bounds_k4free,
        census,
        competition_number_exact,
        figure_catalog,
        formula_dispatch,
        oracle_phylogeny_number,
        phylogeny_number_auto,
        phylogeny_number_exact,
    )
    from phylokit.errors import HypothesisViolated, Infeasible, TooLarge
    from phylokit.generate import connected_graphs
    from phylokit.sweep import SweepOptions, run_sweep, sweep_graphs

    def independent_checks(graph, value: int, where: str) -> None:
        """Oracle for n <= 6, closed forms for <= 2 triangles, the sandwich."""
        if graph.n <= 6:
            try:
                _check(oracle_phylogeny_number(graph, 3) == value, f"oracle disagrees on {where}")
            except Infeasible:
                _check(value > 3, f"oracle finds no certificate within 3 on {where}")
        formula = formula_dispatch(graph)
        if formula.kind == "exact":
            _check(formula.value == value, f"closed form disagrees on {where}")
        try:
            sandwich = bounds_k4free(graph)
        except HypothesisViolated:
            return
        if sandwich.kind == "exact":
            _check(sandwich.value == value, f"sandwich equality disagrees on {where}")
        else:
            _check(sandwich.lower <= value <= sandwich.upper, f"sandwich excludes value on {where}")

    def as_graph(adj: list[int]) -> Graph:
        return Graph(len(adj), [(u, v) for v in range(len(adj)) for u in range(v) if adj[u] >> v & 1])

    # Every connected graph on <= 7 vertices: the sweep's exact values.
    phylogeny = {}
    per_n = [0] * 8
    for record in run_sweep(sweep_graphs(7), SweepOptions(), threads=1):
        _check(record.ok, f"sweep record {record.graph_id} fails its own checks")
        adj = graph6_decode(record.graph_id)
        key = canonical_key(adj)
        _check(key not in phylogeny, f"{record.graph_id} is isomorphic to an earlier graph")
        independent_checks(as_graph(adj), record.exact, record.graph_id)
        phylogeny[key] = record.exact
        per_n[record.n] += 1
    _check(tuple(per_n[1:]) == PUBLISHED_CONNECTED_COUNTS[:7], f"per-n counts {per_n[1:]}")

    # Competition numbers of the 7-vertex connected graphs with a triangle.
    competition = {}
    for g in connected_graphs(7):
        if census(g).t == 0:
            continue
        adj = list(g.adj)
        k = competition_number_exact(g)
        _check(k >= 1, f"competition number {k} of a connected graph")
        competition[canonical_key(adj)] = k
    _check(len(competition) == 794, f"{len(competition)} graphs with a triangle")

    # Connected graphs on 8 vertices: the published count, and pairwise
    # non-isomorphism by the complete key (slow; build time only).
    eight = [list(g.adj) for g in connected_graphs(8)]
    _check(len(eight) == PUBLISHED_CONNECTED_COUNTS[7], f"{len(eight)} graphs on 8 vertices")
    _check(isomorphic_pairs(eight) == 0, "isomorphic graphs on 8 vertices")
    _check(all(len(components(adj)) == 1 for adj in eight), "disconnected graph on 8 vertices")

    # The paper's figures.
    catalog = {}
    for name, printed in PAPER_FIGURES.items():
        g = figure_catalog(name)
        value = phylogeny_number_auto(g).value
        _check(value == printed, f"{name}: computed {value}, paper prints {printed}")
        independent_checks(g, value, name)
        catalog[name] = value

    # One fixed draw of dense labelled 7-vertex graphs, valued by the table.
    dense = [[graph6_encode(adj), component_sum(phylogeny, adj)]
             for adj in dense_labelled_graphs(DENSE_DRAW_SEED, DENSE_DRAW_SIZE)]

    # One fixed draw of connected K4-free graphs with edge-disjoint diamonds.
    rng = random.Random(LARGE_DRAW_SEED)
    large = []
    while len(large) < LARGE_DRAW_SIZE:
        adj = _large_candidate(rng)
        g = as_graph(adj)
        report = census(g)
        if report.has_k4 or not report.diamonds_edge_disjoint:
            continue
        try:
            value = phylogeny_number_auto(g).value
        except TooLarge:  # a kernel past the default cap: search it anyway
            value = phylogeny_number_exact(g, cap=g.n, want_witness=False).value
        independent_checks(g, value, graph6_encode(adj))
        large.append([graph6_encode(adj), value])

    return {
        "note": (
            "Expected values keyed by perfbench.reference.canonical_key. "
            "'competition_n7' is a regression reference only: the repository "
            "has no independent competition-number oracle."
        ),
        "published_connected_counts": list(PUBLISHED_CONNECTED_COUNTS),
        "phylogeny_connected_upto7": phylogeny,
        "competition_n7": competition,
        "connected_n8_invariant_digest": invariant_digest(eight),
        "catalog": catalog,
        "dense_labelled_n7": dense,
        "large_k4free": large,
    }


if __name__ == "__main__":
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    data = build()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.relative_to(root)}")
