"""Exact solvers against the brute-force oracles and known values."""

import random
from collections import Counter
import time
from functools import lru_cache
from itertools import combinations

import pytest

from phylokit import exact
from phylokit.derived import check_nontriangle_edge_arcs, competition_graph, validate_phylogeny_digraph
from phylokit.errors import BudgetExhausted, Infeasible, TooLarge
from phylokit.exact import (
    _HeadSearch,
    competition_number_exact,
    oracle_phylogeny_number,
    phylogeny_number_exact,
)
from phylokit.generate import (
    canonical_graph6,
    connected_graphs,
    connected_graphs_upto,
    graph6_decode,
    graph6_encode,
)
from phylokit.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    grid_2xk,
    is_acyclic,
    path_graph,
)
from phylokit.structure import census
from phylokit.witness import figure_catalog


class TestSolverValues:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs_are_free(self, n):
        assert phylogeny_number_exact(complete_graph(n)).value == 0

    def test_four_cycle(self):
        assert phylogeny_number_exact(cycle_graph(4)).value == 1

    def test_grid_two_by_three(self):
        assert phylogeny_number_exact(figure_catalog("fig2_G")).value == 2

    def test_square_with_pendant_triangle(self):
        assert phylogeny_number_exact(figure_catalog("fig1_G")).value == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            phylogeny_number_exact(cycle_graph(13))

    def test_witness_is_valid_and_minimal(self):
        g = figure_catalog("fig2_G")
        res = phylogeny_number_exact(g)
        cert = res.witness
        assert cert.extra_count == res.value
        validate_phylogeny_digraph(cert.digraph, cert.base, g)
        check_nontriangle_edge_arcs(g, cert.digraph, cert.base)

    def test_deterministic_witness(self):
        g = figure_catalog("fig1_G")
        first = phylogeny_number_exact(g).witness.digraph
        second = phylogeny_number_exact(g).witness.digraph
        assert first == second

    def test_edgeless(self):
        assert phylogeny_number_exact(empty_graph(4)).value == 0

    def test_deadline_checked_inside_a_pass(self):
        # the budget-0 pass on K3 would succeed, but stops at its first node
        past = time.monotonic() - 1.0
        search = _HeadSearch(complete_graph(3), head_joins=True)
        with pytest.raises(BudgetExhausted):
            search.run(0, deadline=past)
        assert search.nodes == 1
        with pytest.raises(BudgetExhausted):
            phylogeny_number_exact(complete_graph(3), deadline=past)


class TestOracle:
    def test_triangle_needs_nothing(self):
        assert oracle_phylogeny_number(complete_graph(3), 0) == 0

    def test_four_cycle_budget_zero_infeasible(self):
        with pytest.raises(Infeasible):
            oracle_phylogeny_number(cycle_graph(4), 0)

    def test_four_cycle_budget_one(self):
        assert oracle_phylogeny_number(cycle_graph(4), 1) == 1

    def test_square_with_pendant_triangle(self):
        assert oracle_phylogeny_number(figure_catalog("fig1_G"), 1) == 1

    def test_caps(self):
        with pytest.raises(TooLarge):
            oracle_phylogeny_number(cycle_graph(8), 1)
        with pytest.raises(TooLarge):
            oracle_phylogeny_number(cycle_graph(4), 4)

    def test_agrees_with_solver_up_to_five_vertices(self):
        for g in connected_graphs_upto(5):
            exact = phylogeny_number_exact(g).value
            try:
                assert oracle_phylogeny_number(g, 3) == exact
            except Infeasible:
                assert exact > 3


class TestCompetitionNumber:
    def test_triangle(self):
        assert competition_number_exact(complete_graph(3)) == 1

    def test_four_cycle_formula(self):
        assert competition_number_exact(cycle_graph(4)) == 2

    def test_triangle_glued_to_square(self):
        assert competition_number_exact(figure_catalog("fig4_G1")) == 1

    def test_clique_glued_to_grid(self):
        assert competition_number_exact(figure_catalog("fig4_G2")) == 1

    def test_single_edge(self):
        assert competition_number_exact(complete_graph(2)) == 1

    def test_edgeless(self):
        assert competition_number_exact(empty_graph(3)) == 0

    def test_spare_isolated_vertex_can_serve_as_prey(self):
        g = disjoint_union(complete_graph(2), empty_graph(1))
        assert competition_number_exact(g) == 0

    def test_fast_path_matches_search_on_triangle_free(self):
        for g in connected_graphs_upto(5):
            if census(g).t or g.m == 0:
                continue
            searched = _HeadSearch(g, head_joins=False).deepen(0)
            assert competition_number_exact(g) == searched == g.m - g.n + 2

    def test_ladder(self):
        assert competition_number_exact(grid_2xk(3)) == 3

    def test_path(self):
        assert competition_number_exact(path_graph(3)) == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            competition_number_exact(cycle_graph(14))


def roberts_competition_number(g: Graph) -> int:
    """k(G) from Roberts' characterization, sharing nothing with the search.

    G plus k isolated vertices is the competition graph of an acyclic
    digraph iff some order v_1..v_n of V(G) gives each v_j a clique S_j
    inside {v_1..v_{j-1}} (its in-set), and those cliques and k more (the
    in-sets of the added vertices, placed last) cover E(G).  Enlarging a
    clique never uncovers an edge, so each S_j is taken maximal in its
    prefix.
    """
    index = {e: i for i, e in enumerate(g.sorted_edges())}

    def inside(vertices) -> int:
        return sum(1 << index[pair] for pair in combinations(sorted(vertices), 2) if pair in index)

    cliques = [
        frozenset(c)
        for size in range(2, g.n + 1)
        for c in combinations(range(g.n), size)
        if all(pair in index for pair in combinations(c, 2))
    ]

    def maximal_within(prefix) -> list[int]:
        within = [c for c in cliques if c <= prefix]
        return [inside(c) for c in within if not any(c < d for d in within)] or [0]

    # the covered-edge masks reachable once a vertex set is placed, in any order
    reach = {frozenset(): {0}}
    for _ in range(g.n):
        grown: dict[frozenset, set[int]] = {}
        for placed, masks in reach.items():
            gains = maximal_within(placed)
            for v in set(range(g.n)) - placed:
                grown.setdefault(placed | {v}, set()).update(m | gain for m in masks for gain in gains)
        reach = grown

    @lru_cache(maxsize=None)
    def cover(uncovered: int) -> int:
        """Fewest cliques whose edges include ``uncovered``."""
        if not uncovered:
            return 0
        lowest = uncovered & -uncovered
        return 1 + min(cover(uncovered & ~inside(c)) for c in cliques if inside(c) & lowest)

    full = (1 << len(index)) - 1
    return min(cover(full & ~m) for m in reach[frozenset(range(g.n))])


class TestCompetitionOracle:
    """The competition solver against Roberts' characterization."""

    def test_known_values(self):
        assert roberts_competition_number(complete_graph(3)) == 1
        assert roberts_competition_number(cycle_graph(4)) == 2
        assert roberts_competition_number(disjoint_union(complete_graph(2), empty_graph(1))) == 0

    def test_every_graph_up_to_five_vertices(self):
        graphs = {}
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                graphs.setdefault(canonical_graph6(g), g)
        assert len(graphs) == 1 + 1 + 2 + 4 + 11 + 34
        for g in graphs.values():
            assert competition_number_exact(g) == roberts_competition_number(g), g

    def test_connected_six_vertex_graphs(self):
        for g in connected_graphs(6):
            assert competition_number_exact(g) == roberts_competition_number(g), g

    @pytest.mark.parametrize("line, value", [("F?~vw", 4), ("F@v~o", 3), ("F?~vg", 4), ("FFz~o", 3)])
    def test_costly_seven_vertex_graphs(self, line, value):
        # among the costliest competition searches at n = 7; all but F@v~o have |Aut| = 48
        g = graph6_decode(line)
        assert roberts_competition_number(g) == value
        assert competition_number_exact(g) == value


class TestDifferenceAtSmallN:
    """p - k + 1 on small connected graphs, where it first reaches 1 and 2."""

    def test_connected_graphs_up_to_seven_vertices(self):
        counts = Counter()
        first = {}
        for g in connected_graphs_upto(7):
            if g.n < 2:
                continue
            # the solver validates its witness whether or not it returns it
            value = phylogeny_number_exact(g).value - competition_number_exact(g) + 1
            counts[value] += 1
            first.setdefault(value, graph6_encode(g))
        assert counts == {0: 956, 1: 39}
        assert first[1] == "E@ro"

    def test_clique_and_k23_sharing_a_vertex(self):
        # n = 8, one vertex fewer than the difference family's l = 2 graph
        g = graph6_decode("G?C^Fw")
        result = phylogeny_number_exact(g)
        validate_phylogeny_digraph(result.witness.digraph, result.witness.base, g)
        assert result.value == result.witness.extra_count == 2
        # k >= 1: no vertex is isolated, but the last vertex of an acyclic
        # digraph has no prey, so it is isolated in the competition graph
        assert all(g.adj)
        # k <= 1: the competition graph of this acyclic digraph is g plus vertex 8
        arcs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 8), (4, 8),
                (5, 8), (6, 1), (6, 3), (6, 5), (7, 2), (7, 4), (7, 6), (7, 8)]
        digraph = Digraph(9, arcs)
        assert is_acyclic(digraph)
        assert competition_graph(digraph) == Graph(9, g.edges)
        assert competition_number_exact(g) == roberts_competition_number(g) == 1


class TestLabelIndependence:
    """Both solvers search the canonical relabelling of their input."""

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_inputs_keep_values_and_witnesses_validate(self, seed):
        rng = random.Random(seed)
        for g in connected_graphs_upto(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            res = phylogeny_number_exact(h)
            assert res.value == phylogeny_number_exact(g).value
            cert = res.witness
            assert cert.extra_count == res.value
            validate_phylogeny_digraph(cert.digraph, cert.base, h)
            assert competition_number_exact(h) == competition_number_exact(g)


class TestOrbitPruning:
    """The head search pruned by automorphisms against the unpruned one."""

    @staticmethod
    def pair(g: Graph, head_joins: bool) -> tuple[_HeadSearch, _HeadSearch]:
        # the competition searches branch fail-first, as the solver's does
        searched, _, symmetries = exact._canonical_form(g)
        return (
            _HeadSearch(searched, head_joins, symmetries=(), fail_first=not head_joins),
            _HeadSearch(searched, head_joins, symmetries=symmetries, fail_first=not head_joins),
        )

    @pytest.mark.parametrize("head_joins", [True, False], ids=["phylogeny", "competition"])
    def test_same_value_and_assembly(self, head_joins):
        for g in connected_graphs_upto(7):
            if g.m == 0:
                continue
            plain, pruned = self.pair(g, head_joins)
            start = 0 if head_joins else exact._competition_start(g, plain.table)
            assert plain.deepen(start) == pruned.deepen(start), g
            assert plain.assembly.in_set == pruned.assembly.in_set, g
            assert plain.assembly.extras == pruned.assembly.extras, g

    def test_pruning_visits_fewer_nodes(self):
        g = graph6_decode("F?~vw")
        plain, pruned = self.pair(g, head_joins=False)
        for search in (plain, pruned):
            assert search.deepen(exact._competition_start(g, search.table)) == 4
        assert pruned.nodes < plain.nodes

    @pytest.mark.parametrize("seed", range(2))
    def test_symmetries_are_automorphisms_of_the_searched_graph(self, seed):
        rng = random.Random(seed)
        for g in connected_graphs_upto(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            searched, _, symmetries = exact._canonical_form(h)
            for sym in symmetries:
                assert sorted(sym) == list(range(g.n))
                assert all(searched.has_edge(sym[u], sym[v]) for u, v in searched.edges), (h, sym)


class TestNodeTotals:
    """The number of nodes both searches visit, as the solvers set them up."""

    def test_phylogeny_up_to_six_vertices(self):
        nodes = 0
        for g in connected_graphs_upto(6):
            searched, _, symmetries = exact._canonical_form(g)
            search = _HeadSearch(searched, head_joins=True, symmetries=symmetries)
            search.deepen(0)
            nodes += search.nodes
        assert nodes == 4557

    def test_competition_up_to_six_vertices_with_a_triangle(self):
        nodes = 0
        for g in connected_graphs_upto(6):
            if census(g).t:
                searched, _, symmetries = exact._canonical_form(g)
                search = _HeadSearch(searched, head_joins=False, symmetries=symmetries, fail_first=True)
                search.deepen(exact._competition_start(g, search.table))
                nodes += search.nodes
        assert nodes == 1578


class TestRunAlone:
    """``run`` on a fresh search, without ``deepen`` before it."""

    @pytest.mark.parametrize("fail_first", [False, True], ids=["canonical", "fail-first"])
    @pytest.mark.parametrize("head_joins, value", [(True, 1), (False, 2)], ids=["phylogeny", "competition"])
    def test_four_cycle(self, head_joins, value, fail_first):
        search = _HeadSearch(cycle_graph(4), head_joins, fail_first=fail_first)
        assert not search.run(value - 1)
        assert search.run(value)
        assert len(search.assembly.extras) == value


def branch_orders(g: Graph, head_joins: bool) -> tuple[_HeadSearch, _HeadSearch]:
    """The solver's search of g in the canonical edge order and fail-first."""
    searched, _, symmetries = exact._canonical_form(g)
    return (
        _HeadSearch(searched, head_joins, symmetries=symmetries),
        _HeadSearch(searched, head_joins, symmetries=symmetries, fail_first=True),
    )


def check_fail_first_agreement(graphs, head_joins: bool) -> tuple[int, int]:
    """Both branch orders give the same ``run(b)`` at b = p - 1 and b = p.

    Where the fail-first run at b succeeds and never switches, it took
    the canonical order's path, with no failed child, so it must assemble
    the same in-sets and extras.  Returns the budget pairs checked and
    how many of them were such successes.
    """
    pairs = unswitched = 0
    for g in graphs:
        if g.m == 0:
            continue
        canonical, fail_first = branch_orders(g, head_joins)
        start = 0 if head_joins else exact._competition_start(g, canonical.table)
        value = canonical.deepen(start)
        assert fail_first.deepen(start) == value, g
        for budget in range(max(value - 1, 0), value + 1):
            found = canonical.run(budget)
            assert fail_first.run(budget) == found == (budget == value), (g, budget)
            pairs += 1
            if found and not fail_first.switched:
                unswitched += 1
                assert fail_first.assembly.in_set == canonical.assembly.in_set, g
                assert fail_first.assembly.extras == canonical.assembly.extras, g
    return pairs, unswitched


class TestFailFirst:
    """The competition search's fail-first branching against the canonical order."""

    @pytest.mark.parametrize("head_joins", [True, False], ids=["phylogeny", "competition"])
    def test_agrees_with_canonical_order(self, head_joins):
        pairs, unswitched = check_fail_first_agreement(connected_graphs_upto(6), head_joins)
        assert 0 < unswitched < pairs

    @pytest.mark.parametrize("line", ["F?~vw", "F@v~o", "F?~vg", "FFz~o"])
    def test_visits_fewer_nodes(self, line):
        g = graph6_decode(line)
        canonical, fail_first = branch_orders(g, head_joins=False)
        for search in (canonical, fail_first):
            search.deepen(exact._competition_start(g, search.table))
        assert fail_first.nodes < canonical.nodes
