"""Closed forms, bounds, reductions, decompositions and the family."""

import subprocess
import sys

import pytest

from phylokit.errors import ConditionViolated, HypothesisViolated, NotTriangleFree, TooLarge
from phylokit.exact import phylogeny_number_exact
from phylokit.formulas import (
    bounds_k4free,
    decompose_equal,
    difference_family,
    formula_dispatch,
    lift_reductions,
    lower_bound_clique_cover,
    lower_bound_decomposition,
    lower_bound_triangle_free_subgraph,
    phylogeny_number_auto,
    reduce_graph,
)
from phylokit.derived import validate_phylogeny_digraph
from phylokit.generate import connected_graphs_upto
from phylokit.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from phylokit.witness import Subgraph, figure_catalog


def diamond():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def paw():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def prism():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def raises_under_optimization(code):
    """Whether ``code`` raises CrossCheckFailed under python -O (no asserts)."""
    code = (
        "from phylokit.errors import CrossCheckFailed\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "except CrossCheckFailed:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "raised"


class TestFormulaDispatch:
    def test_tree(self):
        res = formula_dispatch(path_graph(6))
        assert res.kind == "exact" and res.value == 0
        assert res.method == "formula:triangle-free"

    def test_paw(self):
        res = formula_dispatch(paw())
        assert res.value == 0 and res.method == "formula:one-triangle"

    def test_diamond(self):
        res = formula_dispatch(diamond())
        assert res.value == 0 and res.method == "formula:two-triangles-sharing-edge"

    def test_triangle(self):
        assert formula_dispatch(complete_graph(3)).value == 0

    def test_four_cycle(self):
        assert formula_dispatch(cycle_graph(4)).value == 1

    def test_prism_middle_case(self):
        # three components, each holding two triangle-vertex slots
        res = formula_dispatch(prism())
        assert res.value == 1 and res.method == "formula:two-triangles-edge-disjoint"

    def test_shared_vertex_slot_counting(self):
        # triangles 012 and 234 share vertex 2; with the connecting paths
        # the triangle-deleted graph has components {0,3,5}, {1,4,6}, {2},
        # and the shared vertex fills two slots in its own component
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 5), (3, 5), (1, 6), (4, 6)])
        res = formula_dispatch(g)
        assert res.value == 1
        assert phylogeny_number_exact(g, want_witness=False).value == 1

    def test_component_sum(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        res = formula_dispatch(g)
        assert res.value == 2 and res.method.startswith("components(")

    def test_three_triangles_not_covered(self):
        assert formula_dispatch(figure_catalog("fig3_G2")).kind == "none"

    def test_agrees_with_solver_up_to_six_vertices(self):
        for g in connected_graphs_upto(6):
            res = formula_dispatch(g)
            if res.kind != "exact":
                continue
            assert res.value == phylogeny_number_exact(g, want_witness=False).value


class TestBoundsSandwich:
    def test_lower_equality_example(self):
        res = bounds_k4free(figure_catalog("fig3_G1"))
        assert res.kind == "exact" and res.value == 4
        assert res.method == "k4free-bounds:lower-equality"

    def test_upper_equality_example(self):
        res = bounds_k4free(figure_catalog("fig3_G2"))
        assert res.kind == "exact" and res.value == 0
        assert res.method == "k4free-bounds:upper-equality"

    def test_triangle_free_collapses(self):
        res = bounds_k4free(cycle_graph(5))
        assert res.kind == "exact" and res.value == 1
        assert res.method == "k4free-bounds:both-equalities"

    def test_interval_case(self):
        res = bounds_k4free(prism())
        assert res.kind == "interval"
        assert res.lower == 0 and res.upper == 2

    def test_hypotheses_enforced(self):
        with pytest.raises(HypothesisViolated):
            bounds_k4free(complete_graph(4))
        with pytest.raises(HypothesisViolated):
            bounds_k4free(disjoint_union(cycle_graph(3), cycle_graph(3)))
        shared = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
        with pytest.raises(HypothesisViolated):
            bounds_k4free(shared)


class TestCliqueCoverBound:
    def test_five_cycle(self):
        assert lower_bound_clique_cover(cycle_graph(5)).value == 1

    def test_complete_clamps_to_zero(self):
        assert lower_bound_clique_cover(complete_graph(4)).value == 0
        # theta_e - n + 1 needs a vertex: the empty graph has p = 0
        assert lower_bound_clique_cover(Graph(0)).value == 0

    def test_hub_graph(self):
        assert lower_bound_clique_cover(figure_catalog("fig3_G1"), cap=15).value == 4


class TestDecompositionBound:
    def test_square_inside_catalog_graph(self):
        g = figure_catalog("fig1_G")
        square = Subgraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        assert lower_bound_decomposition(g, [square]).value == 1
        assert lower_bound_triangle_free_subgraph(g, square).value == 1

    def test_components_as_parts(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        parts = [
            Subgraph.from_edges([e for e in g.edges if max(e) < 4]),
            Subgraph.from_edges([e for e in g.edges if min(e) >= 4]),
        ]
        assert lower_bound_decomposition(g, parts).value == 2

    def test_overlapping_parts_rejected(self):
        g = cycle_graph(4)
        part = Subgraph.from_edges([(0, 1)])
        with pytest.raises(ConditionViolated) as info:
            lower_bound_decomposition(g, [part, part])
        assert info.value.condition == "i"

    def test_non_maximal_clique_rejected(self):
        g = complete_graph(3)
        part = Subgraph.from_edges([(0, 1)])
        with pytest.raises(ConditionViolated) as info:
            lower_bound_decomposition(g, [part])
        assert info.value.condition == "ii"

    def test_two_vertex_overlap_rejected(self):
        g = diamond()
        part = Subgraph.from_edges([(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ConditionViolated) as info:
            lower_bound_decomposition(g, [part])
        assert info.value.condition == "iii"

    def test_triangle_free_wrapper_rejects_triangles(self):
        g = figure_catalog("fig1_G")
        with pytest.raises(NotTriangleFree):
            lower_bound_triangle_free_subgraph(
                g, Subgraph.from_edges([(2, 4), (2, 5), (4, 5)])
            )

    def test_bound_never_exceeds_exact_on_small_graphs(self):
        for g in connected_graphs_upto(5):
            exact = phylogeny_number_exact(g, want_witness=False).value
            whole = Subgraph.from_edges(g.edges, extra_vertices=range(g.n))
            try:
                bound = lower_bound_decomposition(g, [whole]).value
            except ConditionViolated:
                continue
            assert bound <= exact


class TestReductions:
    def test_tree_peels_away(self):
        kernels, log = reduce_graph(path_graph(6))
        assert kernels == []
        assert log[-1]["op"] == "drop-clique-component"

    def test_glued_triangle_leaves_square(self):
        from phylokit.generate import canonical_graph6

        kernels, _ = reduce_graph(figure_catalog("fig4_G1"))
        assert len(kernels) == 1
        assert canonical_graph6(kernels[0]) == canonical_graph6(cycle_graph(4))

    def test_disjoint_union_splits(self):
        kernels, _ = reduce_graph(disjoint_union(cycle_graph(4), cycle_graph(5)))
        assert kernels == [cycle_graph(4), cycle_graph(5)]

    def test_paw_disappears(self):
        kernels, _ = reduce_graph(paw())
        assert kernels == []

    def test_value_preserved_up_to_seven_vertices(self):
        for g in connected_graphs_upto(7):
            direct = phylogeny_number_exact(g, want_witness=False).value
            kernels, _ = reduce_graph(g)
            total = sum(
                phylogeny_number_exact(k, want_witness=False).value for k in kernels
            )
            assert total == direct

    def test_k2_dropped_as_clique(self):
        kernels, log = reduce_graph(path_graph(2))
        assert kernels == []
        assert log == [{"op": "drop-clique-component", "vertices": [0, 1]}]

    def test_auto_witness_on_all_small_graphs(self):
        # every labelled graph on at most 5 vertices (forests, isolated
        # edges, disconnected) and every connected graph on at most 7
        def labelled(n):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])

        graphs = [g for n in range(1, 6) for g in labelled(n)]
        graphs += list(connected_graphs_upto(7))
        assert len(graphs) == 1099 + 996
        for g in graphs:
            result = phylogeny_number_auto(g, want_witness=True)
            cert = result.witness
            validate_phylogeny_digraph(cert.digraph, cert.base, g)
            assert cert.extra_count == result.value
            assert result.value == phylogeny_number_exact(g, want_witness=False).value

    def test_lift_produces_valid_witness(self):
        g = figure_catalog("fig4_G2")
        kernels, log = reduce_graph(g)
        certs = [phylogeny_number_exact(k).witness for k in kernels]
        lifted = lift_reductions(g, log, certs)
        assert lifted.extra_count == sum(c.extra_count for c in certs)
        validate_phylogeny_digraph(lifted.digraph, lifted.base, g)

    def test_lift_drops_arcs_out_of_extras(self):
        g = cycle_graph(4)
        witness = phylogeny_number_exact(g).witness.digraph
        # a second extra fed only by the first: valid, and it realizes nothing
        digraph = Digraph(witness.n + 1, set(witness.arcs) | {(4, 5)})
        cert = validate_phylogeny_digraph(digraph, range(4), g)
        assert cert.extra_count == 2
        _, log = reduce_graph(g)
        lifted = lift_reductions(g, log, [cert])
        assert lifted.extra_count == 2
        validate_phylogeny_digraph(lifted.digraph, lifted.base, g)


class TestDecomposeEqual:
    def test_glued_triangle_and_square(self):
        g = figure_catalog("fig4_G1")
        parts = [
            Subgraph.from_edges([(2, 4), (2, 5), (4, 5)]),
            Subgraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)]),
        ]
        res = decompose_equal(g, parts)
        assert res.kind == "exact" and res.value == 1

    def test_two_triangles_sharing_vertex(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        parts = [
            Subgraph.from_edges([(0, 1), (0, 2), (1, 2)]),
            Subgraph.from_edges([(2, 3), (2, 4), (3, 4)]),
        ]
        assert decompose_equal(g, parts).value == 0
        assert phylogeny_number_exact(g, want_witness=False).value == 0

    def test_single_part_is_identity(self):
        g = cycle_graph(5)
        assert decompose_equal(g, [Subgraph.from_edges(g.edges)]).value == 1

    def test_partition_required(self):
        g = figure_catalog("fig4_G1")
        with pytest.raises(ConditionViolated) as info:
            decompose_equal(g, [Subgraph.from_edges([(2, 4), (2, 5), (4, 5)])])
        assert info.value.condition == "i"

    def test_cycle_split_across_parts_rejected(self):
        g = cycle_graph(4)
        parts = [
            Subgraph.from_edges([(0, 1), (1, 2)]),
            Subgraph.from_edges([(2, 3), (0, 3)]),
        ]
        with pytest.raises(ConditionViolated) as info:
            decompose_equal(g, parts)
        assert info.value.condition == "ii"

    def test_transitivity_shortfall_rejected(self):
        # two triangles with tails meeting in the middle: neither part is
        # vertex transitive
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)])
        parts = [
            Subgraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]),
            Subgraph.from_edges([(4, 5), (4, 6), (5, 6), (3, 4)]),
        ]
        with pytest.raises(ConditionViolated) as info:
            decompose_equal(g, parts)
        assert info.value.condition == "iii"


class TestAutoPipeline:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("fig1_G", 1),
            ("fig2_G", 2),
            ("fig3_G1", 4),
            ("fig3_G2", 0),
            ("fig4_G1", 1),
            ("fig4_G2", 2),
        ],
    )
    def test_catalog_values_with_witness(self, name, value):
        g = figure_catalog(name)
        res = phylogeny_number_auto(g, want_witness=True)
        assert res.value == value
        assert res.witness.extra_count == value
        validate_phylogeny_digraph(res.witness.digraph, res.witness.base, g)

    def test_wrong_closed_form_caught_under_optimization(self):
        assert raises_under_optimization(
            "import phylokit.formulas as f\n"
            "from phylokit.graphs import cycle_graph\n"
            "from phylokit.results import PhyloResult\n"
            "f.formula_dispatch = lambda g: PhyloResult('exact', 'formula:triangle-free', 5)\n"
            "f.phylogeny_number_auto(cycle_graph(5))"
        )

    def test_agrees_with_solver_up_to_six_vertices(self):
        for g in connected_graphs_upto(6):
            auto = phylogeny_number_auto(g).value
            direct = phylogeny_number_exact(g, want_witness=False).value
            assert auto == direct


class TestDifferenceFamily:
    @pytest.mark.parametrize("l", range(5))
    def test_identity(self, l):
        graph, p_result, k = difference_family(l)
        assert p_result.value - k + 1 == l
        if l:
            assert graph.n == 3 * l + 3

    @pytest.mark.parametrize("l", [1, 2])
    def test_exact_cross_checks_small(self, l):
        graph, p_result, k = difference_family(l, verify_k=True)
        assert phylogeny_number_exact(graph, want_witness=False).value == p_result.value
        assert k == 1

    def test_l_zero_single_edge(self):
        graph, p_result, k = difference_family(0)
        assert graph == complete_graph(2)
        assert p_result.value == 0 and k == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            difference_family(100)

    def test_wrong_competition_number_caught_under_optimization(self):
        assert raises_under_optimization(
            "import phylokit.formulas as f\n"
            "f.competition_number_exact = lambda g: 2\n"
            "f.difference_family(1, verify_k=True)"
        )

    def test_l3_competition_number_verified_exactly(self):
        graph, p_result, k = difference_family(3, verify_k=True)
        assert graph.n == 12 and p_result.value == 3 and k == 1
