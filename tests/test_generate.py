"""Small-graph generation, canonical forms, graph6 round trips."""

import gc
import random
import tracemalloc

import pytest

from phylokit.errors import ParseError, TooLarge
from phylokit.generate import (
    _least_leaf,
    _orbit,
    _refine,
    _relabel,
    canonical_graph,
    canonical_graph6,
    connected_graphs,
    connected_graphs_upto,
    graph6_decode,
    graph6_encode,
)
from phylokit.graphs import Graph, complete_graph, cycle_graph
from conftest import labelled_graphs, naive_connected_graphs


def brute_force_automorphisms(adj):
    """Every automorphism, by mapping vertices 0, 1, ... in turn to every consistent image."""
    n = len(adj)
    found = []
    image = [0] * n

    def extend(v, used):
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if used >> w & 1 or adj[w].bit_count() != adj[v].bit_count():
                continue
            if all((adj[v] >> u & 1) == (adj[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    return found


def closure(n, generators):
    """The group the permutations generate, closing under composition one generator at a time."""
    group = {tuple(range(n))}
    kept = []
    for gen in generators:
        if gen in group:
            continue
        kept.append(gen)
        frontier = list(group)
        while frontier:
            new = []
            for p in frontier:
                for s in kept:
                    q = tuple(p[x] for x in s)
                    if q not in group:
                        group.add(q)
                        new.append(q)
            frontier = new
    return group


class TestGraph6:
    def test_known_strings(self):
        assert graph6_encode(complete_graph(4)) == "C~"
        assert graph6_encode(Graph(2, [(0, 1)])) == "A_"

    def test_roundtrip(self):
        for g in connected_graphs_upto(5):
            assert graph6_decode(graph6_encode(g)) == g

    def test_header_tolerated(self):
        assert graph6_decode(">>graph6<<C~") == complete_graph(4)

    # "Bx" is the triangle "Bw" with a nonzero padding bit
    @pytest.mark.parametrize("line", ["", "C~~~~", "C", "Bx"])
    def test_rejects_malformed(self, line):
        with pytest.raises(ParseError):
            graph6_decode(line)

    # the first character is read as n + 63, and "~" opens the n >= 63 header
    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 0", "invalid graph6 character '0'"),
            ("\x7f", "invalid graph6 character '\\x7f'"),
            (">", "invalid graph6 character '>'"),
            ("~?", "only graph6 lines with at most 62 vertices are supported"),
        ],
    )
    def test_bad_first_character_named(self, line, message):
        with pytest.raises(ParseError) as info:
            graph6_decode(line)
        assert str(info.value) == message


class TestCanonicalForm:
    def test_isomorphism_invariance(self):
        rng = random.Random(7)
        for g in connected_graphs(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_graph6(relabeled) == canonical_graph6(g)

    def test_distinguishes_non_isomorphic(self):
        forms = {canonical_graph6(g) for g in connected_graphs(6)}
        assert len(forms) == 112

    def test_canonical_graph_is_fixed_point(self):
        for g in connected_graphs(5):
            assert canonical_graph(canonical_graph(g)) == canonical_graph(g)

    def test_twin_heavy_graphs_are_fast(self):
        assert canonical_graph6(complete_graph(8)) == graph6_encode(complete_graph(8))


class TestRefinement:
    @staticmethod
    def uniform_towards(adj, mask, cells):
        return all(len({(adj[v] & mask).bit_count() for v in cell}) == 1 for cell in cells)

    def test_equitable_and_stable(self):
        # from the unit partition and from each one-vertex individualisation
        for g in connected_graphs_upto(6):
            everything = list(range(g.n))
            starts = [[everything]]
            if g.n > 1:
                starts += [[[v], [u for u in everything if u != v]] for v in everything]
            for start in starts:
                inert = set()
                out = _refine(g.adj, start, inert)
                assert sorted(v for cell in out for v in cell) == everything
                masks = [sum(1 << v for v in cell) for cell in out]
                for mask in masks:
                    assert self.uniform_towards(g.adj, mask, out), (sorted(g.edges), start, out)
                # every mask it added, an applied splitter's too, splits nothing
                for mask in inert:
                    assert self.uniform_towards(g.adj, mask, out), (sorted(g.edges), start, mask)
                assert _refine(g.adj, out, set()) == out
                assert _refine(g.adj, out, inert) == out

    def test_relabel_matches_checked_build(self):
        rng = random.Random(5)
        for g in connected_graphs_upto(7):
            order = list(range(g.n))
            rng.shuffle(order)
            position = {old: new for new, old in enumerate(order)}
            checked = Graph(g.n, [(position[u], position[v]) for u, v in g.edges])
            fast = _relabel(g.adj, tuple(order))
            assert (fast.n, fast.adj, list(fast.edges)) == (checked.n, checked.adj, list(checked.edges))


class TestAutomorphisms:
    @staticmethod
    def check(g):
        generators = _least_leaf(g.adj, [list(range(g.n))], automorphisms=True)[2]
        for perm in generators:
            assert all(g.adj[perm[u]] >> perm[v] & 1 for u, v in g.edges), perm
        brute = brute_force_automorphisms(g.adj)
        assert len(closure(g.n, generators)) == len(brute), sorted(g.edges)
        for v in range(g.n):
            assert sorted(_orbit(v, generators)) == sorted({a[v] for a in brute})
        return len(brute)

    def test_small_graphs_match_brute_force(self):
        graphs = list(connected_graphs_upto(7)) + [g for n in range(1, 6) for g in labelled_graphs(n)]
        assert len(graphs) == 996 + 1099
        for g in graphs:
            self.check(g)

    def test_symmetric_graphs(self):
        cube = Graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b])
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                         + [(i, 5 + i) for i in range(5)])
        assert [self.check(g) for g in (complete_graph(8), cube, petersen)] == [40320, 48, 120]

    def test_plain_labelling_collects_none(self):
        assert _least_leaf(cycle_graph(6).adj, [list(range(6))])[2] == []


class TestGeneration:
    def test_published_counts(self):
        assert [len(connected_graphs(n)) for n in range(1, 8)] == [
            1, 1, 2, 6, 21, 112, 853,
        ]

    def test_every_output_connected_and_canonical(self):
        from phylokit.graphs import connected_components

        for g in connected_graphs(5):
            assert len(connected_components(g)) == 1
            assert canonical_graph(g) == g

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_naive_generator(self, n):
        mine = [graph6_encode(g) for g in connected_graphs(n)]
        assert mine == [graph6_encode(g) for g in naive_connected_graphs(n)]

    def test_canonicalises_few_extensions(self, labellings):
        # 7,815 extensions are labelled without the canonical-deletion
        # test and 2,173 with it; one extension per orbit takes 1,467
        # labellings, the 143 parents' included
        assert len(connected_graphs(7)) == 853
        assert len(labellings) <= 1500

    def test_upto_builds_each_level_once(self, labellings):
        upto = list(connected_graphs_upto(6))
        upto_calls = len(labellings)
        labellings.clear()
        assert len(connected_graphs(6)) == 112
        assert upto_calls == len(labellings) > 0
        assert upto == [g for n in range(1, 7) for g in connected_graphs(n)]

    def test_cap(self):
        with pytest.raises(TooLarge):
            connected_graphs(9)

    def test_edge_sets_are_left_unbuilt(self):
        # a graph holds its masks only; its edge set is built on each read
        assert Graph.__slots__ == ("n", "adj")
        graphs = connected_graphs(7)
        assert all(g.edges == frozenset(g.sorted_edges()) for g in graphs)

    def test_retains_little_per_graph(self):
        # an eagerly built edge frozenset cost about 1.5 KB per graph at n = 7
        connected_graphs(3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = connected_graphs(7)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(graphs) == 853
        assert retained / len(graphs) < 750, retained

    def test_contains_catalog_examples(self):
        from phylokit.witness import figure_catalog

        six = {canonical_graph6(g) for g in connected_graphs(6)}
        assert canonical_graph6(figure_catalog("fig1_G")) in six
        assert canonical_graph6(figure_catalog("fig2_G")) in six
        assert canonical_graph6(cycle_graph(6)) in six
