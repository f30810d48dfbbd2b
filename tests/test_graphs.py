"""Core graph types, traversal, ordering and the edge-list format."""

import random
from itertools import combinations

import pytest

from conftest import all_digraph_arc_sets, labelled_graphs, random_certificate
from phylokit.errors import CyclicDigraph, ParseError, UnknownVertex
from phylokit.generate import _relabel, connected_graphs_upto
from phylokit.graphs import (
    Digraph,
    Graph,
    acyclic_labeling,
    bits,
    blocks,
    blocks_by_component,
    complete_graph,
    component_masks,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_digraph,
    format_graph,
    grid_2xk,
    is_acyclic,
    parse_digraph,
    parse_graph,
    path_graph,
    star_graph,
)
from phylokit.witness import figure_catalog


def paw():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_immutable(self):
        g = cycle_graph(4)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_adjacency_masks(self):
        g = paw()
        assert g.neighbors(2) == (0, 1, 3)
        assert g.degree(2) == 3
        assert g.is_clique(0b0111)
        assert not g.is_clique(0b1111)

    def test_induced_subgraph(self):
        g = paw()
        sub, order = g.induced_subgraph([1, 2, 3])
        assert order == [1, 2, 3]
        assert sub == Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(UnknownVertex):
            g.induced_subgraph([5])

    def test_without_edges(self):
        g = cycle_graph(4).without_edges([(1, 0)])
        assert g.m == 3
        assert g == Graph(4, [(1, 2), (2, 3), (3, 0)])
        assert cycle_graph(4).without_edges([(0, 2), (0, 9), (-1, 0), (1, 1)]) == cycle_graph(4)

    def test_has_edge_outside_the_vertices(self):
        g = paw()
        assert g.has_edge(3, 2) and not g.has_edge(3, 1)
        assert not any(g.has_edge(u, v) for u, v in [(0, 0), (0, 4), (4, 0), (-1, 0), (0, -1)])


class TestEdgesFromMasks:
    """A graph built from edges and one built from its masks are the same value."""

    @staticmethod
    def check(from_edges, from_masks):
        n = from_edges.n
        assert from_edges == from_masks and hash(from_edges) == hash(from_masks)
        assert from_edges.m == from_masks.m == len(from_edges.sorted_edges())
        assert from_edges.sorted_edges() == from_masks.sorted_edges() == sorted(from_masks.edges)
        for u in range(n):
            for v in range(n):
                assert from_edges.has_edge(u, v) == from_masks.has_edge(u, v) == (
                    (min(u, v), max(u, v)) in from_edges.edges
                )
        # the edge set is built on first read, in an order set by the masks
        assert list(from_edges.edges) == list(from_masks.edges)

    def test_every_labelled_graph(self):
        rng = random.Random(5)
        for n in range(6):
            for g in labelled_graphs(n):
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.sorted_edges()]
                rng.shuffle(edges)
                self.check(Graph(n, edges), Graph._from_adj(g.adj))

    def test_connected_graphs_and_relabelled_copies(self):
        rng = random.Random(2026)
        for g in connected_graphs_upto(7):
            edges = g.sorted_edges()
            rng.shuffle(edges)
            self.check(Graph(g.n, edges), g)
            order = list(range(g.n))
            rng.shuffle(order)
            position = {old: new for new, old in enumerate(order)}
            copy = Graph(g.n, [(position[u], position[v]) for u, v in edges])
            self.check(copy, _relabel(g.adj, tuple(order)))


class TestDigraphType:
    def test_arcs_directed(self):
        d = Digraph(3, [(0, 1), (1, 0)])
        assert d.m == 2
        assert d.out[0] == d.inn[0] == 1 << 1

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError):
            Digraph(3, [(0, 1), (0, 1)])

    @staticmethod
    def check_from_inn(n, arcs):
        """A digraph built from arcs and one built from its in-masks agree."""
        built = Digraph(n, arcs)
        from_masks = Digraph._from_inn(built.inn)
        assert from_masks == built and hash(from_masks) == hash(built)
        assert from_masks.m == built.m == len(arcs)
        assert from_masks.sorted_arcs() == built.sorted_arcs() == sorted(arcs)
        assert from_masks.arcs == built.arcs == frozenset(arcs)
        for t in range(-1, n + 1):
            for h in range(-1, n + 1):
                assert from_masks.has_arc(t, h) == built.has_arc(t, h) == ((t, h) in arcs)

    def test_masks_agree_with_arcs_on_every_small_digraph(self):
        for n in range(4):
            for arcs in all_digraph_arc_sets(n):
                self.check_from_inn(n, arcs)

    def test_masks_agree_with_arcs_on_random_certificates(self):
        rng = random.Random(24)
        for _ in range(200):
            digraph, _ = random_certificate(rng)
            arcs = digraph.sorted_arcs()
            rng.shuffle(arcs)
            self.check_from_inn(digraph.n, arcs)


class TestAcyclicity:
    def test_empty_is_acyclic(self):
        assert is_acyclic(Digraph(3))

    def test_directed_triangle_is_cyclic(self):
        assert not is_acyclic(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_catalog_digraph_is_acyclic(self):
        d, _ = figure_catalog("fig1_D")
        assert d.n == 7 and d.m == 7
        assert is_acyclic(d)

    def test_labeling_single_arc(self):
        assert acyclic_labeling(Digraph(2, [(0, 1)])) == (2, 1)

    def test_labeling_tie_break(self):
        assert acyclic_labeling(Digraph(2)) == (1, 2)

    def test_labeling_cycle_raises(self):
        with pytest.raises(CyclicDigraph):
            acyclic_labeling(Digraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_labeling_exists_iff_acyclic_exhaustive_n4(self):
        for arcs in all_digraph_arc_sets(4):
            d = Digraph(4, arcs)
            acyclic = is_acyclic(d)
            try:
                values = acyclic_labeling(d)
                assert acyclic and all(values[t] > values[h] for t, h in d.arcs)
            except CyclicDigraph:
                assert not acyclic

    def test_labeling_exists_iff_acyclic_sampled_n5(self):
        rng = random.Random(5)
        pairs = [(t, h) for t in range(5) for h in range(5) if t != h]
        for _ in range(2000):
            arcs = [p for p in pairs if rng.random() < 0.3]
            d = Digraph(5, arcs)
            acyclic = is_acyclic(d)
            try:
                values = acyclic_labeling(d)
                assert acyclic and all(values[t] > values[h] for t, h in d.arcs)
            except CyclicDigraph:
                assert not acyclic


class TestComponents:
    def test_paw_without_triangle_edges(self):
        g = paw().without_edges([(0, 1), (0, 2), (1, 2)])
        assert connected_components(g) == [[0], [1], [2, 3]]

    def test_cycle_is_connected(self):
        assert connected_components(cycle_graph(4)) == [[0, 1, 2, 3]]

    def test_edgeless(self):
        assert connected_components(empty_graph(5)) == [[v] for v in range(5)]

    def test_masks_within_a_vertex_subset(self):
        # the path 0-1-2-3-4 without its middle vertex: the search stays
        # inside the given vertices
        assert component_masks(path_graph(5).adj, 0b11011) == [0b00011, 0b11000]
        assert component_masks(path_graph(5).adj, 0) == []

    def test_sizes_sum_to_n(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            ]
            g = Graph(n, edges)
            assert sum(len(c) for c in connected_components(g)) == n


def naive_blocks(g: Graph) -> list[int]:
    """The blocks by definition, as masks sorted by smallest edge.

    A block is a maximal vertex set S with |S| >= 2 such that G[S] is
    connected and, when |S| > 2, stays connected after deleting any one
    vertex.
    """

    def connected(vertices):
        start = min(vertices)
        seen, todo = {start}, [start]
        while todo:
            u = todo.pop()
            for w in vertices - seen:
                if g.has_edge(u, w):
                    seen.add(w)
                    todo.append(w)
        return seen == vertices

    candidates = [
        set(vs)
        for size in range(2, g.n + 1)
        for vs in combinations(range(g.n), size)
        if connected(set(vs)) and (size == 2 or all(connected(set(vs) - {v}) for v in vs))
    ]
    maximal = [s for s in candidates if not any(s < t for t in candidates)]
    maximal.sort(key=lambda s: min(e for e in g.edges if set(e) <= s))
    return [sum(1 << v for v in s) for s in maximal]


class TestBlocks:
    def test_path(self):
        assert blocks(path_graph(3)) == [0b011, 0b110]

    def test_cycle_single_block(self):
        assert blocks(cycle_graph(4)) == [0b1111]

    def test_triangle_glued_to_square(self):
        # the 4-cycle 0-1-3-2 and the triangle 2-4-5 share the cut vertex 2
        assert blocks(figure_catalog("fig4_G1")) == [0b001111, 0b110100]

    def test_edge_partition_and_cut_characterization(self):
        from phylokit.generate import connected_graphs_upto

        graphs = list(connected_graphs_upto(6))
        graphs += [g for n in range(1, 6) for g in labelled_graphs(n)]
        assert len(graphs) == 143 + 1099
        for g in graphs:
            masks = blocks(g)
            assert masks == naive_blocks(g)
            inside = [(u, v) for mask in masks for u, v in g.edges if mask >> u & mask >> v & 1]
            assert sorted(inside) == g.sorted_edges()
            seen = shared = 0  # shared: vertices in two or more blocks
            for mask in masks:
                shared |= seen & mask
                seen |= mask
            parts = len(connected_components(g))
            raises = {
                v
                for v in range(g.n)
                if len(connected_components(g.induced_subgraph(set(range(g.n)) - {v})[0])) > parts
            }
            assert set(bits(shared)) == raises

    def test_by_component_splits_the_sorted_blocks(self):
        graphs = [g for n in range(1, 6) for g in labelled_graphs(n)] + [Graph(0), path_graph(1500)]
        for g in graphs:
            pairs = blocks_by_component(g)
            assert [comp for comp, _ in pairs] == component_masks(g.adj, g.vertex_mask())
            for comp, masks in pairs:
                assert masks == [mask for mask in blocks(g) if mask & comp]

    def test_deep_path_needs_no_recursion(self):
        masks = blocks(path_graph(1500))
        assert masks == [0b11 << v for v in range(1499)]


class TestEdgeListFormat:
    def test_roundtrip_graph(self):
        g = figure_catalog("fig1_G")
        assert parse_graph(format_graph(g, comment="round trip")) == g

    def test_roundtrip_digraph(self):
        d, _ = figure_catalog("fig1_D")
        assert parse_digraph(format_digraph(d, trailing="base 0..5")) == d

    @pytest.mark.parametrize(
        "text, parse",
        [
            *(
                pytest.param(text, parse_graph, id=text)
                for text in (
                    "",
                    "2\n",
                    "2 1\n0 0\n",
                    "2 1\n0 3\n",
                    "2 2\n0 1\n1 0\n",
                    "2 2\n0 1\n",
                    "2 1\nnope 1\n",
                    "a b\n",
                    "-1 0\n",
                    "2 1\n0 1 2\n",
                )
            ),
            *(
                pytest.param(text, parse_digraph, id=f"digraph {text}")
                for text in ("2 1\n1 1\n", "2 1\n1 2\n", "2 2\n0 1\n0 1\n")
            ),
        ],
    )
    def test_rejects_malformed(self, text, parse):
        with pytest.raises(ParseError):
            parse(text)

    def test_digraph_allows_antiparallel_arcs(self):
        d = parse_digraph("2 2\n0 1\n1 0\n")
        assert d.m == 2

    def test_comments_ignored(self):
        g = parse_graph("# leading comment\n3 1\n# interior\n0 2\n")
        assert g == Graph(3, [(0, 2)])


class TestBuilders:
    def test_shapes(self):
        assert complete_graph(4).m == 6
        assert cycle_graph(5).m == 5
        assert path_graph(4).m == 3
        assert star_graph(3).m == 3
        assert grid_2xk(3).m == 7
        assert disjoint_union(cycle_graph(3), path_graph(2)).n == 5
