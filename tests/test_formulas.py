"""Closed forms, bounds, reductions, decompositions and the family."""

import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

from conftest import glued_block_graphs, labelled_graphs
from phylokit.errors import ConditionViolated, HypothesisViolated, NotTriangleFree, TooLarge
from phylokit.exact import oracle_phylogeny_number, phylogeny_number_exact
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
from phylokit.generate import connected_graphs_upto, graph6_decode
from phylokit.graphs import (
    Digraph,
    Graph,
    bits,
    blocks,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from phylokit.structure import census
from phylokit.witness import Subgraph, figure_catalog


def diamond():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def paw():
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def prism():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def naive_reduce(g):
    """The reduction's round rule, replayed over every remaining block each round."""
    log, kernels = [], []
    comps = connected_components(g)
    if len(comps) != 1:
        log.append({"op": "split-components", "components": comps})
    for comp in comps:
        alive = set(comp)
        remaining = [set(bits(mask)) for mask in blocks(g) if set(bits(mask)) <= alive]
        while len(remaining) > 1:
            holders = Counter(v for block in remaining for v in block)
            leaves = []
            for block in remaining:  # in order of smallest edge
                cuts = [v for v in block if holders[v] > 1]
                if len(cuts) == 1 and all(g.has_edge(a, b) for a, b in combinations(block, 2)):
                    leaves.append((block, cuts[0]))
            peel = [leaf for leaf in leaves if len(leaf[0]) == 2] or leaves[:1]
            if not peel:
                break
            for block, cut in peel:
                rest = sorted(block - {cut})
                log.append({"op": "delete-clique-leaf-block", "vertices": rest, "cut_vertex": cut,
                            "block": sorted(block)})
                alive -= set(rest)
            remaining = [block for block in remaining if block <= alive]
        left = sorted(alive)
        if all(g.has_edge(a, b) for a, b in combinations(left, 2)):
            log.append({"op": "drop-clique-component", "vertices": left})
        else:
            sub, to_orig = g.induced_subgraph(left)
            log.append({"op": "kernel", "index": len(kernels), "vertices": to_orig})
            kernels.append(sub)
    return kernels, log


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

    def test_triangle_inside_one_component(self):
        # clause (b) of the middle case: triangle 456 lies inside one
        # component of the triangle-deleted graph; without it the value is 0
        g = graph6_decode("G@@K^o")
        res = formula_dispatch(g)
        assert res.value == 1 and res.method == "formula:two-triangles-edge-disjoint"
        assert phylogeny_number_exact(g, want_witness=False).value == 1

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

    @pytest.mark.parametrize(
        "line, broken, p, lower, upper",
        [
            ("D]{", "share an edge", 1, 0, 0),  # the wheel W4
            ("E?~w", "share an edge", 0, 2, 0),  # the book: K2 joined to 4 vertices
            ("FWC]w", "K4", 1, -4, 0),  # a K4 and a C4 sharing a vertex
        ],
    )
    def test_minimal_graphs_outside_the_sandwich(self, line, broken, p, lower, upper):
        # each breaks one hypothesis, and p misses the interval its census gives
        g = graph6_decode(line)
        with pytest.raises(HypothesisViolated, match=broken):
            bounds_k4free(g)
        report = census(g)
        assert (g.m - g.n - 2 * report.t + report.d + 1, g.m - g.n - report.t + 1) == (lower, upper)
        assert phylogeny_number_exact(g).value == oracle_phylogeny_number(g, p) == p
        assert not lower <= p <= upper

    def test_where_the_sandwich_fails_up_to_seven_vertices(self):
        # per broken hypothesis: graphs, then those below the (clamped)
        # lower end and those above the upper end
        counts = Counter()
        for g in connected_graphs_upto(7):
            report = census(g)
            shared = not report.diamonds_edge_disjoint
            if not (report.has_k4 or shared):
                continue
            broken = "both" if report.has_k4 and shared else "K4" if report.has_k4 else "shared diamonds"
            p = phylogeny_number_exact(g, want_witness=False).value
            counts[broken] += 1
            counts[broken, "lower fails"] += p < max(0, g.m - g.n - 2 * report.t + report.d + 1)
            counts[broken, "upper fails"] += p > max(0, g.m - g.n - report.t + 1)
        assert counts == {
            "shared diamonds": 275,
            ("shared diamonds", "lower fails"): 65,
            ("shared diamonds", "upper fails"): 66,
            "K4": 42, ("K4", "lower fails"): 0, ("K4", "upper fails"): 1,
            "both": 310, ("both", "lower fails"): 5, ("both", "upper fails"): 82,
        }


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

    def test_host_cliques_found_once_per_call(self, monkeypatch):
        from phylokit import formulas, structure, witness

        g = disjoint_union(cycle_graph(4), cycle_graph(5), complete_graph(3))
        host_calls = []

        def counted(graph):
            if graph is g:
                host_calls.append(graph)
            return structure.maximal_cliques(graph)

        for module in (formulas, witness):
            monkeypatch.setattr(module, "maximal_cliques", counted, raising=False)
        parts = [
            Subgraph.from_edges([e for e in g.sorted_edges() if max(e) < 4]),
            Subgraph.from_edges([e for e in g.sorted_edges() if 4 <= min(e) and max(e) < 9]),
            Subgraph.from_edges([e for e in g.sorted_edges() if min(e) >= 9]),
        ]
        assert lower_bound_decomposition(g, parts).value == 2
        assert len(host_calls) == 1

    def test_overlapping_parts_rejected(self):
        g = cycle_graph(4)
        part = Subgraph.from_edges([(0, 1)])
        with pytest.raises(ConditionViolated) as info:
            lower_bound_decomposition(g, [part, part])
        assert info.value.condition == "i"

    def test_reversed_pair_rejected(self):
        # the same C4 twice, once as (v, u) pairs: no overlap by tuple, so
        # only the orientation check stops it counting p(C4) twice
        g = cycle_graph(4)
        edges = frozenset(g.sorted_edges())
        parts = [
            Subgraph(frozenset(range(4)), edges),
            Subgraph(frozenset(range(4)), frozenset((v, u) for u, v in edges)),
        ]
        with pytest.raises(ValueError, match="not a host edge"):
            lower_bound_decomposition(g, parts)

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
    @staticmethod
    def leaf(block, cut):
        rest = [v for v in block if v != cut]
        return {"op": "delete-clique-leaf-block", "vertices": rest, "cut_vertex": cut, "block": block}

    @staticmethod
    def drop(vertices):
        return {"op": "drop-clique-component", "vertices": vertices}

    def test_tree_peels_away(self):
        kernels, log = reduce_graph(path_graph(6))
        assert kernels == []
        assert log[-1]["op"] == "drop-clique-component"

    def test_glued_triangle_leaves_square(self):
        from phylokit.generate import canonical_graph6

        kernels, log = reduce_graph(figure_catalog("fig4_G1"))
        assert len(kernels) == 1
        assert canonical_graph6(kernels[0]) == canonical_graph6(cycle_graph(4))
        assert log == [
            self.leaf([2, 4, 5], 2),
            {"op": "kernel", "index": 0, "vertices": [0, 1, 2, 3]},
        ]

    def test_disjoint_union_splits(self):
        kernels, _ = reduce_graph(disjoint_union(cycle_graph(4), cycle_graph(5)))
        assert kernels == [cycle_graph(4), cycle_graph(5)]

    def test_paw_disappears(self):
        kernels, log = reduce_graph(paw())
        assert kernels == []
        assert log == [self.leaf([2, 3], 2), self.drop([0, 1, 2])]

    def test_star_peels_every_leaf_in_one_round(self):
        _, log = reduce_graph(star_graph(3))
        assert log == [self.leaf([0, 1], 0), self.leaf([0, 2], 0), self.leaf([0, 3], 0), self.drop([0])]

    def test_path_peels_both_ends_in_one_round(self):
        _, log = reduce_graph(path_graph(3))
        assert log == [self.leaf([0, 1], 1), self.leaf([1, 2], 1), self.drop([1])]

    def test_long_path_peels_in_linear_time(self):
        # 9,999 rounds of two K2 leaves each; quadratic bookkeeping takes a minute here
        kernels, log = reduce_graph(path_graph(20000))
        assert kernels == [] and len(log) == 19999
        assert log[-2] == self.leaf([10000, 10001], 10000)
        assert log[-1] == self.drop([9999, 10000])

    def test_large_star_peels_in_one_round(self):
        kernels, log = reduce_graph(star_graph(5000))
        assert kernels == [] and len(log) == 5001
        assert log[0] == self.leaf([0, 1], 0) and log[-2] == self.leaf([0, 5000], 0)
        assert log[-1] == self.drop([0])

    def test_windmill_peels_one_triangle_per_round(self):
        # 2,000 triangles at vertex 0: one complete leaf per round, smallest edge first
        g = Graph(4001, [e for i in range(1, 4001, 2) for e in ((0, i), (0, i + 1), (i, i + 1))])
        kernels, log = reduce_graph(g)
        assert kernels == [] and len(log) == 2000
        assert log[0] == self.leaf([0, 1, 2], 0) and log[-2] == self.leaf([0, 3997, 3998], 0)
        assert log[-1] == self.drop([0, 3999, 4000])

    def test_matches_the_round_rule_replayed_naively(self):
        graphs = [g for n in range(1, 6) for g in labelled_graphs(n)]
        graphs += list(connected_graphs_upto(7)) + glued_block_graphs(300, seed=5)
        for g in graphs:
            assert reduce_graph(g) == naive_reduce(g)

    def test_bowtie_peels_the_leaf_with_the_smallest_edge(self):
        g = Graph(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
        kernels, log = reduce_graph(g)
        assert kernels == []
        assert log == [self.leaf([0, 1, 4], 4), self.drop([2, 3, 4])]
        arcs = phylogeny_number_auto(g, want_witness=True).witness.digraph.sorted_arcs()
        assert arcs == [(0, 1), (2, 3), (2, 4), (3, 4), (4, 0), (4, 1)]

    def test_blocks_found_once_per_call(self, monkeypatch):
        from phylokit import formulas

        calls = {"blocks": 0, "induced": 0}

        def count(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(formulas, "blocks_by_component", count("blocks", formulas.blocks_by_component))
        monkeypatch.setattr(Graph, "induced_subgraph", count("induced", Graph.induced_subgraph))
        # a path, the paw and fig4_G1: several peel rounds, one kernel
        g = disjoint_union(path_graph(5), paw(), figure_catalog("fig4_G1"))
        kernels, _ = reduce_graph(g)
        assert len(kernels) == 1
        assert calls == {"blocks": 1, "induced": 1}

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
        graphs = [g for n in range(1, 6) for g in labelled_graphs(n)]
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

    def test_lift_wants_one_certificate_per_kernel(self):
        g = figure_catalog("fig4_G2")
        kernels, log = reduce_graph(g)
        certs = [phylogeny_number_exact(k).witness for k in kernels]
        with pytest.raises(ValueError, match="one certificate per kernel is required"):
            lift_reductions(g, log, [*certs, certs[0]])


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

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([], "at least one part is required"),
            ([Subgraph.from_edges([(0, 1), (2, 3)])], "part 0 is not connected"),
        ],
        ids=["no-parts", "disconnected-part"],
    )
    def test_condition_one_rejections(self, parts, message):
        with pytest.raises(ConditionViolated, match=message) as info:
            decompose_equal(cycle_graph(4), parts)
        assert info.value.condition == "i"

    def test_reversed_pair_rejected(self):
        # one C4 as (u, v) pairs and one as (v, u) pairs would sum p(C4) twice
        g = cycle_graph(4)
        edges = frozenset(g.sorted_edges())
        parts = [
            Subgraph(frozenset(range(4)), edges),
            Subgraph(frozenset(range(4)), frozenset((v, u) for u, v in edges)),
        ]
        with pytest.raises(ValueError, match="not a host edge"):
            decompose_equal(g, parts)

    def test_cycle_split_across_parts_rejected(self):
        g = cycle_graph(4)
        parts = [
            Subgraph.from_edges([(0, 1), (1, 2)]),
            Subgraph.from_edges([(2, 3), (0, 3)]),
        ]
        with pytest.raises(ConditionViolated) as info:
            decompose_equal(g, parts)
        assert info.value.condition == "ii"
        assert info.value.detail == [(0, 1), (0, 3), (1, 2), (2, 3)]

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

    def test_method_names_every_kernel(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        res = phylogeny_number_auto(g, want_witness=True)
        assert res.value == 2
        assert res.method == "reduce+(formula:triangle-free+formula:triangle-free)"
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

    def test_negative_parameter_is_a_value_error(self):
        with pytest.raises(ValueError):
            difference_family(-1)

    def test_wrong_competition_number_caught_under_optimization(self):
        assert raises_under_optimization(
            "import phylokit.formulas as f\n"
            "f.competition_number_exact = lambda g: 2\n"
            "f.difference_family(1, verify_k=True)"
        )

    def test_l3_competition_number_verified_exactly(self):
        graph, p_result, k = difference_family(3, verify_k=True)
        assert graph.n == 12 and p_result.value == 3 and k == 1
