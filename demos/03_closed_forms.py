"""Closed-form phylogeny numbers for graphs with at most two triangles.

With no triangles the number is m - n + 1.  With one or two triangles
it drops by how "spread out" the triangles are, measured by counting
the components left after deleting every triangle edge.  The census
below drives the case split; the exact solver confirms each value.
"""

from phylokit import census, formula_dispatch, phylogeny_number_exact
from phylokit.graphs import Graph, complete_graph, cycle_graph, path_graph

samples = [
    ("tree on 6 vertices", path_graph(6)),
    ("five-cycle", cycle_graph(5)),
    ("triangle", complete_graph(3)),
    ("paw (triangle + pendant)", Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),
    ("diamond (K4 minus an edge)", Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])),
    ("bowtie", Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])),
    ("triangular prism", Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])),
    (
        "triangles sharing a vertex, tied by two paths",
        Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 5), (3, 5), (1, 6), (4, 6)]),
    ),
]

print(f"{'graph':<42} {'t':>2} {'comps':>5} {'formula':>8} {'solver':>7}")
for name, g in samples:
    rep = census(g)
    res = formula_dispatch(g)
    exact = phylogeny_number_exact(g).value
    shown = res.value if res.kind == "exact" else "-"
    print(
        f"{name:<42} {rep.t:>2} {len(rep.g_minus_components):>5} "
        f"{str(shown):>8} {exact:>7}"
    )

print()
print("the last example is the delicate case: its triangle-deleted graph has")
print("three components and the shared triangle vertex sits alone in one of")
print("them, counting once for each triangle through it, so the middle case")
print("of the two-triangle formula fires and gives 1, not 0")
