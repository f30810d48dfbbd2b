"""Structural census: triangles, diamonds, cliques, covers, symmetry."""

import random
from itertools import combinations, permutations

import pytest

from conftest import labelled_graphs
from phylokit import structure
from phylokit.errors import TooLarge
from phylokit.generate import connected_graphs_upto
from phylokit.graphs import (
    Graph,
    bits,
    blocks,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from phylokit.structure import (
    EdgeCliqueTable,
    census,
    edge_clique_cover_number,
    is_vertex_transitive,
    maximal_cliques,
    triangle_edges,
)
from phylokit.sweep import sweep_one
from phylokit.witness import figure_catalog


def diamond():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def paw():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def brute_maximal_cliques(g):
    cliques = []
    for r in range(1, g.n + 1):
        for vs in combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
                cliques.append(frozenset(vs))
    return sorted(
        tuple(sorted(c)) for c in cliques if not any(c < d for d in cliques)
    )


def brute_cover_number(g):
    if g.m == 0:
        return 0
    cliques = brute_maximal_cliques(g)
    edges = set(g.edges)
    for k in range(1, g.m + 1):
        for combo in combinations(cliques, k):
            covered = set()
            for c in combo:
                covered.update((a, b) for a, b in combinations(c, 2))
            if edges <= covered:
                return k
    raise AssertionError("unreachable")


class TestCensus:
    def test_diamond(self):
        rep = census(diamond())
        assert rep.t == 2 and rep.d == 1 and not rep.has_k4
        assert rep.g_minus.m == 0
        assert len(rep.g_minus_components) == 4
        assert rep.diamond_list == (((0, 1, 2, 3), (1, 2)),)

    def test_catalog_upper_bound_graph(self):
        rep = census(figure_catalog("fig3_G2"))
        assert rep.t == 3 and rep.d == 1 and not rep.has_k4
        assert len(rep.g_minus_components) == 2 * rep.t - rep.d + 1

    def test_triangle_free_cycle(self):
        rep = census(cycle_graph(5))
        assert rep.t == 0 and rep.d == 0
        assert rep.g_minus == cycle_graph(5)
        assert len(rep.g_minus_components) == 1

    def test_k4_flagged(self):
        rep = census(complete_graph(4))
        assert rep.has_k4 and rep.t == 4 and rep.d == 0

    def test_shared_edge_diamonds_not_disjoint(self):
        # three triangles through one edge: every pair forms a diamond and
        # all of them share that edge
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        rep = census(g)
        assert rep.t == 3 and rep.d == 3
        assert not rep.diamonds_edge_disjoint

    def test_computed_once_per_graph_in_the_sweep(self, monkeypatch):
        # census finds the triangle edges once per computation; the smaller
        # graphs of the upper construction have censuses of their own
        computed = []

        def counting(graph):
            computed.append(graph)
            return triangle_edges(graph)

        monkeypatch.setattr(structure, "triangle_edges", counting)
        for g in connected_graphs_upto(6):
            census.cache_clear()
            computed.clear()
            sweep_one(g)
            assert computed.count(g) == 1

    def test_triangle_edges_partition(self):
        for g in connected_graphs_upto(6):
            rep = census(g)
            tri_edges = triangle_edges(g)
            assert rep.g_minus.edges == g.edges - tri_edges
            for u, v, w in rep.triangle_list:
                for e in ((u, v), (u, w), (v, w)):
                    assert e in tri_edges


class TestComponentLookup:
    def test_diamond_isolates(self):
        rep = census(diamond())
        assert rep.g_minus_component_of == (0, 1, 2, 3)
        assert rep.g_minus_components[rep.g_minus_component_of[3]] == (3,)

    def test_cycle_whole(self):
        rep = census(cycle_graph(5))
        assert rep.g_minus_component_of == (0, 0, 0, 0, 0)
        assert rep.g_minus_components[rep.g_minus_component_of[2]] == (0, 1, 2, 3, 4)

    def test_paw_pendant_component(self):
        rep = census(paw())
        assert rep.g_minus_component_of == (0, 1, 2, 2)
        assert rep.g_minus_components[rep.g_minus_component_of[3]] == (2, 3)

    def test_every_vertex_in_its_component(self):
        for g in connected_graphs_upto(6):
            rep = census(g)
            for v in range(g.n):
                assert v in rep.g_minus_components[rep.g_minus_component_of[v]]


class TestConnected:
    def test_connected_graph(self):
        assert census(paw()).connected

    def test_disconnected_graph(self):
        assert not census(disjoint_union(diamond(), paw())).connected

    def test_no_vertex_is_not_connected(self):
        assert not census(Graph(0)).connected

    def test_one_vertex_is_connected(self):
        assert census(Graph(1)).connected

    def test_matches_components(self):
        for g in labelled_graphs(5):
            assert census(g).connected == (len(connected_components(g)) == 1)


class TestMaximalCliques:
    def test_diamond_two_triangles(self):
        assert maximal_cliques(diamond()) == [(0, 1, 2), (1, 2, 3)]

    def test_cycle_edges(self):
        assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_complete_single(self):
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_isolated_vertices_are_singletons(self):
        assert maximal_cliques(Graph(3, [(0, 1)])) == [(0, 1), (2,)]

    def test_matches_brute_force(self):
        for g in connected_graphs_upto(5):
            assert maximal_cliques(g) == brute_maximal_cliques(g)


class TestEdgeCliqueCover:
    def test_diamond(self):
        assert edge_clique_cover_number(diamond()) == 2

    def test_triangle_free_equals_edge_count(self):
        assert edge_clique_cover_number(cycle_graph(5)) == 5

    def test_complete(self):
        assert edge_clique_cover_number(complete_graph(4)) == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            edge_clique_cover_number(complete_graph(13))

    def test_matches_brute_force(self):
        for g in connected_graphs_upto(5):
            assert edge_clique_cover_number(g) == brute_cover_number(g)

    def test_triangle_free_identity(self):
        for g in connected_graphs_upto(6):
            if census(g).t == 0:
                assert edge_clique_cover_number(g) == g.m

    @staticmethod
    def greedy_by_clique_tests(g, table, edge_mask):
        """The greedy by pairwise clique tests that ``incompatible_count`` must equal."""
        chosen = []
        for i in bits(edge_mask):
            u, v = table.edges[i]
            ends = (1 << u) | (1 << v)
            if not any(g.is_clique(ends | other) for other in chosen):
                chosen.append(ends)
        return len(chosen)

    def test_incompatible_count_matches_clique_tests(self):
        rng = random.Random(2026)
        graphs = list(connected_graphs_upto(7)) + [g for n in range(1, 6) for g in labelled_graphs(n)]
        for g in graphs:
            table = EdgeCliqueTable(g)
            for mask in [table.full] + [rng.getrandbits(g.m) for _ in range(4)]:
                assert table.incompatible_count(mask) == self.greedy_by_clique_tests(g, table, mask), (
                    g.sorted_edges(), mask,
                )

    def test_incompatible_count_at_a_vertex_counts_non_adjacent_ends(self):
        # the head search's sink bound: two edges at v share a clique iff
        # their other ends are adjacent, so on edges at v the count is the
        # greedy count of pairwise non-adjacent other ends, in edge order
        for g in connected_graphs_upto(6):
            table = EdgeCliqueTable(g)
            for v in range(g.n):
                at_v = [i for i, e in enumerate(table.edges) if v in e]
                for size in range(len(at_v) + 1):
                    for subset in combinations(at_v, size):
                        counted = []
                        for i in subset:
                            w = sum(table.edges[i]) - v
                            if not any(g.has_edge(w, x) for x in counted):
                                counted.append(w)
                        mask = sum(1 << i for i in subset)
                        assert table.incompatible_count(mask) == len(counted), (g.sorted_edges(), v, subset)


class TestVertexTransitivity:
    def test_complete(self):
        for n in (5, 12):
            assert is_vertex_transitive(complete_graph(n))
            assert is_vertex_transitive(Graph(n))

    def test_cycle(self):
        assert is_vertex_transitive(cycle_graph(6))

    def test_paw_is_not(self):
        assert not is_vertex_transitive(paw())

    def test_path_is_not(self):
        assert not is_vertex_transitive(path_graph(4))

    def test_prism(self):
        prism = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
        assert is_vertex_transitive(prism)

    def test_bridged_triangles_not_transitive(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert not is_vertex_transitive(g)

    def test_cap(self):
        with pytest.raises(TooLarge):
            is_vertex_transitive(cycle_graph(11))

    def test_irregular_past_the_cap(self):
        # a degree count answers without the capped search
        assert not is_vertex_transitive(path_graph(11))

    def test_disconnected(self):
        assert is_vertex_transitive(disjoint_union(cycle_graph(5), cycle_graph(5)))
        assert not is_vertex_transitive(disjoint_union(cycle_graph(4), cycle_graph(6)))

    def test_agrees_with_permutation_search(self):
        def transitive_by_permutations(g):
            images = set()
            for perm in permutations(range(g.n)):
                if all(g.adj[perm[u]] >> perm[v] & 1 for u, v in g.edges):
                    images.add(perm[0])
            return len(images) == g.n

        def regular(g):
            return len({g.degree(v) for v in range(g.n)}) == 1

        labelled = [g for n in range(1, 7) for g in labelled_graphs(n) if regular(g)]
        connected = [g for g in connected_graphs_upto(7) if regular(g)]
        assert (len(labelled), len(connected)) == (199, 16)
        for g in labelled + connected:
            assert is_vertex_transitive(g) == transitive_by_permutations(g), sorted(g.edges)


class TestBlocksFeatures:
    def test_clique_leaf_blocks_on_glued_triangle(self):
        g = figure_catalog("fig4_G1")
        masks = blocks(g)
        seen = cut = 0  # cut: vertices in two or more blocks
        for mask in masks:
            cut |= seen & mask
            seen |= mask
        assert set(bits(cut)) == {2}
        clique_leaves = [mask for mask in masks if g.is_clique(mask) and (mask & cut).bit_count() == 1]
        assert [set(bits(mask)) for mask in clique_leaves] == [{2, 4, 5}]
