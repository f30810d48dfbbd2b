"""Bounds for many triangles, and the digraphs that certify them.

For a connected K4-free graph whose diamonds are pairwise edge-disjoint,
the phylogeny number lies between m - n - 2t + d + 1 and m - n - t + 1.
Each end is attained: the lower one when the triangle-deleted graph is
connected (one caring vertex per triangle on top of an optimal skeleton
digraph), the upper one when that graph falls into 2t - d + 1 pieces
(an inductive construction that deletes a diamond center or a triangle
edge and repairs it for free, or for one new vertex).
"""

from phylokit import (
    Subgraph,
    bounds_k4free,
    census,
    construct_gminus_caring,
    construct_k4free_upper,
    figure_catalog,
    replay_trace,
    restriction_digraph,
    validate_phylogeny_digraph,
)

for name in ("fig3_G1", "fig3_G2"):
    g = figure_catalog(name)
    rep = census(g)
    res = bounds_k4free(g)
    print(
        f"{name}: n={g.n} m={g.m} t={rep.t} d={rep.d} "
        f"components-after-deleting-triangle-edges={len(rep.g_minus_components)}"
    )
    print(f"  -> {res.kind} {res.value if res.kind == 'exact' else (res.lower, res.upper)}"
          f" via {res.method}")

print()
g = figure_catalog("fig3_G1")
cert, optimal = construct_gminus_caring(g)
print(f"caring construction on fig3_G1: {cert.extra_count} extras, optimal={optimal}")

g2 = figure_catalog("fig3_G2")
trace = construct_k4free_upper(g2)
print(f"inductive construction on fig3_G2: {trace.certificate.extra_count} extras")
print("proof steps taken:")
for step in trace.steps:
    print("  ", {k: v for k, v in step.items() if k in ("op", "subcase", "edge", "diamond")})
assert replay_trace(g2, trace.steps) == trace.certificate.digraph
print("replaying the steps rebuilds the digraph exactly")

print()
print("restricting a certificate to a well-separated subgraph:")
g = figure_catalog("fig1_G")
d, base = figure_catalog("fig1_D")
square = Subgraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
restricted = restriction_digraph(d, base, g, square)
print("  restricted arcs:", restricted.digraph.sorted_arcs())
print(f"  the restriction certifies the square with {restricted.extra_count} extra")
print("  so p(whole graph) >= p(square) = 1, matching the exact value 1")
validate_phylogeny_digraph(restricted.digraph, restricted.base,
                           square.to_graph()[0], order=restricted.base)
