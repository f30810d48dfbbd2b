"""Small-graph generation, canonical forms, graph6 round trips."""

import random

import pytest

from phylokit.errors import ParseError, TooLarge
from phylokit.generate import (
    canonical_graph,
    canonical_graph6,
    connected_graphs,
    connected_graphs_upto,
    graph6_decode,
    graph6_encode,
)
from phylokit.graphs import Graph, complete_graph, cycle_graph
from conftest import naive_connected_graphs


@pytest.fixture
def canonical_calls(monkeypatch):
    """A list that gains one entry per ``generate.canonical_graph`` call."""
    import phylokit.generate as generate

    calls = []
    original = generate.canonical_graph

    def counted(graph):
        calls.append(graph.n)
        return original(graph)

    monkeypatch.setattr(generate, "canonical_graph", counted)
    return calls


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

    def test_canonicalises_few_extensions(self, canonical_calls):
        # 7,815 extensions are canonicalised without the canonical-deletion test
        assert len(connected_graphs(7)) == 853
        assert len(canonical_calls) <= 3000

    def test_upto_builds_each_level_once(self, canonical_calls):
        upto = list(connected_graphs_upto(6))
        upto_calls = len(canonical_calls)
        canonical_calls.clear()
        assert len(connected_graphs(6)) == 112
        assert upto_calls == len(canonical_calls)
        assert upto == [g for n in range(1, 7) for g in connected_graphs(n)]

    def test_cap(self):
        with pytest.raises(TooLarge):
            connected_graphs(9)

    def test_contains_catalog_examples(self):
        from phylokit.witness import figure_catalog

        six = {canonical_graph6(g) for g in connected_graphs(6)}
        assert canonical_graph6(figure_catalog("fig1_G")) in six
        assert canonical_graph6(figure_catalog("fig2_G")) in six
        assert canonical_graph6(cycle_graph(6)) in six
