"""Witness constructions, traces, restriction, and the catalog."""

import json
import random
import sys
import time

import pytest

from phylokit.derived import validate_phylogeny_digraph
from phylokit.errors import (
    ConditionViolated,
    Disconnected,
    HypothesisViolated,
    NotTriangleFree,
    UnknownName,
)
from phylokit.exact import phylogeny_number_exact
from phylokit.formulas import phylogeny_number_auto
from phylokit.generate import connected_graphs_upto
from phylokit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from phylokit.structure import census
from phylokit.sweep import in_k4free_diamond_scope, run_sweep
from phylokit.witness import (
    FIGURE_NAMES,
    Subgraph,
    construct_gminus_caring,
    construct_k4free_upper,
    construct_triangle_free,
    figure_catalog,
    replay_trace,
    restriction_digraph,
)
from conftest import diamond_necklace, random_certificate
from test_formulas import raises_under_optimization


class TestTriangleFreeConstruction:
    def test_four_cycle(self):
        cert = construct_triangle_free(cycle_graph(4))
        assert cert.extra_count == 1
        # three tree arcs plus two arcs into the caring vertex
        assert cert.digraph.m == 5

    def test_tree_needs_no_extras(self):
        cert = construct_triangle_free(path_graph(5))
        assert cert.extra_count == 0

    def test_grid(self):
        cert = construct_triangle_free(figure_catalog("fig2_G"))
        assert cert.extra_count == 2

    def test_rejects_triangles(self):
        with pytest.raises(NotTriangleFree):
            construct_triangle_free(complete_graph(3))

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            construct_triangle_free(disjoint_union(path_graph(2), path_graph(2)))

    def test_optimal_on_all_small_triangle_free(self):
        for g in connected_graphs_upto(6):
            if census(g).t:
                continue
            cert = construct_triangle_free(g)
            assert cert.extra_count == g.m - g.n + 1


class TestCaringConstruction:
    def test_lower_bound_sharp_example(self):
        cert, optimal = construct_gminus_caring(figure_catalog("fig3_G1"))
        assert cert.extra_count == 4 and optimal

    def test_triangle_alone_is_valid_but_not_optimal(self):
        cert, optimal = construct_gminus_caring(complete_graph(3))
        assert cert.extra_count == 1 and not optimal

    def test_triangle_free_reduces_to_tree_construction(self):
        cert, optimal = construct_gminus_caring(cycle_graph(5))
        assert cert.extra_count == 1 and optimal

    def test_rejects_k4(self):
        with pytest.raises(HypothesisViolated):
            construct_gminus_caring(complete_graph(4))

    def test_extra_count_formula_in_scope(self):
        for g in connected_graphs_upto(6):
            if not in_k4free_diamond_scope(g):
                continue
            rep = census(g)
            cert, optimal = construct_gminus_caring(g)
            expected = g.m - g.n - 2 * rep.t + rep.d + len(rep.g_minus_components)
            assert cert.extra_count == expected
            if optimal:
                assert cert.extra_count == phylogeny_number_exact(g, want_witness=False).value


class TestUpperConstruction:
    def test_diamond(self):
        trace = construct_k4free_upper(Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
        assert trace.certificate.extra_count == 0

    def test_upper_bound_sharp_example(self):
        trace = construct_k4free_upper(figure_catalog("fig3_G2"))
        assert trace.certificate.extra_count == 0

    def test_triangle_base_case(self):
        trace = construct_k4free_upper(complete_graph(3))
        assert trace.certificate.extra_count == 0

    def test_budget_respected_on_hub_graph(self):
        g = figure_catalog("fig3_G1")
        trace = construct_k4free_upper(g)
        assert trace.certificate.extra_count <= g.m - g.n - census(g).t + 1

    def test_replay_reproduces_digraph(self):
        g = figure_catalog("fig3_G2")
        trace = construct_k4free_upper(g)
        assert replay_trace(g, trace.steps) == trace.certificate.digraph

    def test_steps_serialize_as_json(self):
        trace = construct_k4free_upper(figure_catalog("fig3_G2"))
        text = json.dumps(list(trace.steps))
        assert "remove-diamond-center-edges" in text

    def test_rejects_out_of_scope(self):
        with pytest.raises(HypothesisViolated):
            construct_k4free_upper(complete_graph(4))

    def test_budget_checked_under_optimization(self):
        # a base case with one dedicated extra per edge and no arcs is a
        # valid certificate that blows the budget (20 extras against 6)
        assert raises_under_optimization(
            "import phylokit.witness as w\n"
            "def base(asm, g, within):\n"
            "    for u, v in g.sorted_edges():\n"
            "        if within >> u & within >> v & 1:\n"
            "            asm.new_extra((1 << u) | (1 << v))\n"
            "w._spanning_forest = base\n"
            "w.construct_k4free_upper(w.figure_catalog('fig3_G1'))"
        )

    def test_one_census_per_graph(self):
        # every recursion level reads the input's census, so the one-graph
        # memo holds across a graph's sweep record and both constructions
        census.cache_clear()
        list(run_sweep(connected_graphs_upto(6)))
        assert census.cache_info().misses == 143
        g = diamond_necklace(3)
        census.cache_clear()
        construct_k4free_upper(g)
        assert census.cache_info().misses == 1

    @pytest.mark.parametrize(
        "step, message",
        [
            ({"op": "nope"}, "unknown trace op 'nope'"),
            ({"op": "caring-vertex-absorbs", "vertex": 0, "extra": 0}, "trace step absorbs into unknown extra 0"),
        ],
        ids=["unknown-op", "absorb-before-any-extra"],
    )
    def test_replay_rejects_a_bad_step(self, step, message):
        with pytest.raises(ValueError, match=message):
            replay_trace(figure_catalog("fig3_G2"), [step])

    @pytest.mark.parametrize("op", ["new-extra", "reroute-in-arcs"])
    def test_replay_rejects_extra_out_of_order(self, op):
        g = figure_catalog("fig3_G2")
        steps = [{"op": op, "vertex": 0, "extra": 1, "members": [0, 1]}]
        with pytest.raises(ValueError):
            replay_trace(g, steps)

    def test_budget_on_all_small_in_scope(self):
        for g in connected_graphs_upto(7):
            if not in_k4free_diamond_scope(g):
                continue
            rep = census(g)
            trace = construct_k4free_upper(g)
            cert = trace.certificate
            validate_phylogeny_digraph(cert.digraph, cert.base, g)
            assert cert.extra_count <= g.m - g.n - rep.t + 1
            assert replay_trace(g, trace.steps) == cert.digraph
            if len(rep.g_minus_components) == 2 * rep.t - rep.d + 1:
                exact = phylogeny_number_exact(g, want_witness=False).value
                assert cert.extra_count == exact

    def test_ring_of_triangles_in_well_under_a_second(self):
        # 200 triangles, each joined to the next by an edge: the construction
        # repairs one triangle per level, and a quadratic labeling per repair
        # made this take several seconds
        k = 200
        g = Graph(3 * k, [
            e for i in range(k)
            for e in ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2), (3 * i + 2, (3 * i + 3) % (3 * k)))
        ])
        started = time.process_time()
        cert = construct_k4free_upper(g).certificate
        assert time.process_time() - started < 1.5
        assert cert.extra_count <= g.m - g.n - census(g).t + 1 == 1

    @pytest.mark.parametrize("shape", ["triangle-ring", "diamond-necklace"])
    def test_stack_depth_does_not_grow_with_the_graph(self, shape):
        # a construction recursing once per triangle or diamond overflowed
        # the interpreter's stack on a ring of 1,000 triangles; here a
        # limit 100 frames above the caller's leaves no room for that
        if shape == "triangle-ring":
            t = 150  # cycle edge (i, i + 1) plus apex t + i
            g = Graph(2 * t, [e for i in range(t) for e in ((i, (i + 1) % t), (i, t + i), ((i + 1) % t, t + i))])
        else:
            g = diamond_necklace(120)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            cert = construct_k4free_upper(g).certificate
        finally:
            sys.setrecursionlimit(limit)
        validate_phylogeny_digraph(cert.digraph, cert.base, g)
        assert cert.extra_count <= g.m - g.n - census(g).t + 1

    @pytest.mark.parametrize("k", [4, 8])
    def test_diamond_necklace_meets_the_upper_end(self, k):
        # 22 and 46 vertices: no search, so no solver cap applies
        g = diamond_necklace(k)
        budget = g.m - g.n - census(g).t + 1
        assert budget == k - 1
        auto = phylogeny_number_auto(g, want_witness=True)
        for cert in (construct_k4free_upper(g).certificate, auto.witness):
            validate_phylogeny_digraph(cert.digraph, cert.base, g)
            assert cert.extra_count == budget


class TestSubgraph:
    def test_check_within_takes_host_edges_as_u_less_than_v(self):
        g = cycle_graph(4)
        Subgraph(frozenset({0, 1}), frozenset({(0, 1)})).check_within(g)
        with pytest.raises(ValueError, match="not a host edge"):
            Subgraph(frozenset({0, 1}), frozenset({(1, 0)})).check_within(g)
        with pytest.raises(ValueError, match="not a host edge"):
            Subgraph.from_edges([(0, 2)]).check_within(g)


class TestRestriction:
    def test_whole_graph(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        cert = restriction_digraph(d, base, g, Subgraph(frozenset(range(g.n)), g.edges))
        assert cert.extra_count == 1

    def test_square_inside_catalog_pair(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        square = Subgraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        cert = restriction_digraph(d, base, g, square)
        assert cert.digraph.n == 5
        assert cert.digraph.sorted_arcs() == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]

    def test_single_maximal_edge(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        cert = restriction_digraph(d, base, g, Subgraph.from_edges([(0, 1)]))
        assert cert.digraph.n >= 2

    def test_rejects_non_maximal_clique_subgraph(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        with pytest.raises(ConditionViolated):
            restriction_digraph(d, base, g, Subgraph.from_edges([(2, 4)]))


class TestRestrictionProperty:
    def test_many_random_triples(self):
        rng = random.Random(20240809)
        accepted = 0
        attempts = 0
        while accepted < 200 and attempts < 4000:
            attempts += 1
            d, g = random_certificate(rng, max_base=6, max_extra=2)
            candidates = [Subgraph(frozenset(range(g.n)), g.edges)]
            from phylokit.structure import maximal_cliques

            cliques = maximal_cliques(g)
            if cliques:
                pick = rng.choice(cliques)
                candidates.append(
                    Subgraph.from_edges(
                        [(a, b) for i, a in enumerate(pick) for b in pick[i + 1:]],
                        extra_vertices=pick,
                    )
                )
            if g.m:
                sample = rng.sample(sorted(g.edges), k=rng.randrange(1, g.m + 1))
                candidates.append(Subgraph.from_edges(sample))
            for sub in candidates:
                try:
                    restriction_digraph(d, range(g.n), g, sub)
                except ConditionViolated:
                    continue
                accepted += 1
        assert accepted >= 200


class TestCatalog:
    def test_names(self):
        assert set(FIGURE_NAMES) == {
            "fig1_G",
            "fig1_D",
            "fig2_G",
            "fig3_G1",
            "fig3_G2",
            "fig4_G1",
            "fig4_G2",
        }

    def test_shapes(self):
        assert figure_catalog("fig2_G").m == 7
        assert census(figure_catalog("fig2_G")).t == 0
        g2 = figure_catalog("fig3_G2")
        assert (g2.n, g2.m) == (7, 9)
        g1 = figure_catalog("fig3_G1")
        assert (g1.n, g1.m) == (15, 23)
        d, base = figure_catalog("fig1_D")
        assert (d.n, d.m, len(base)) == (7, 7, 6)

    def test_glued_variants(self):
        assert figure_catalog("fig4_G1") == figure_catalog("fig1_G")
        assert figure_catalog("fig4_G2").n == 9

    def test_unknown(self):
        with pytest.raises(UnknownName):
            figure_catalog("fig9_G")
