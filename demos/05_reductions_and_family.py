"""Reductions, decompositions, and graphs separating p from k.

Peeling a complete leaf block (a pendant edge is a K2 block) never
changes the phylogeny number, and component values add, so many graphs
shrink to small kernels before any search runs.  Splitting along cut vertices into
vertex-transitive parts even gives exact sums.  Combining both with the
competition number yields, for every l >= 0, a connected graph whose
phylogeny number exceeds its competition number by exactly l - 1.
"""

from phylokit import (
    Subgraph,
    decompose_equal,
    difference_family,
    figure_catalog,
    phylogeny_number_auto,
    reduce_graph,
)
from phylokit.graphs import disjoint_union, cycle_graph

g = figure_catalog("fig4_G2")
kernels, log = reduce_graph(g)
print(f"fig4_G2 (clique glued to a grid): kernels {kernels}")
print("reduction log:")
for entry in log:
    print("  ", entry["op"], {k: v for k, v in entry.items() if k not in ("op",)})
result = phylogeny_number_auto(g, want_witness=True)
print(f"value {result.value} via {result.method}; lifted witness adds "
      f"{result.witness.extra_count} vertices\n")

both = disjoint_union(cycle_graph(4), cycle_graph(5))
print("disjoint union of two cycles:", phylogeny_number_auto(both).value, "\n")

g = figure_catalog("fig4_G1")
parts = [
    Subgraph.from_edges([(2, 4), (2, 5), (4, 5)]),       # the triangle
    Subgraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)]),  # the square
]
print("vertex-transitive decomposition of the glued triangle+square:",
      decompose_equal(g, parts).value, "\n")

print(f"{'l':>2} {'n':>3} {'m':>3} {'p':>3} {'k':>3} {'p-k+1':>6}")
for l in range(5):
    graph, p_result, k = difference_family(l)
    print(f"{l:>2} {graph.n:>3} {graph.m:>3} {p_result.value:>3} {k:>3} {p_result.value - k + 1:>6}")
print("\nthe grid part pushes the phylogeny number up one notch per rung,")
print("while a single added vertex always absorbs the clique on the")
print("competition side, so the gap p - k + 1 walks through 0, 1, 2, ...")
