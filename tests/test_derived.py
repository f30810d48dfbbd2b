"""Derived-graph operators and certificate validation."""

import random
import subprocess
import sys

import pytest

from conftest import all_digraph_arc_sets
from phylokit.derived import (
    Assembly,
    cared_edges,
    certificate_to_dot,
    check_nontriangle_edge_arcs,
    competition_graph,
    digraph_to_dot,
    graph_to_dot,
    phylogeny_graph,
    underlying_graph,
    validate_phylogeny_digraph,
)
from phylokit.errors import ArcIntoBase, ArcRuleViolated, CyclicDigraph, NotAcyclic, NotInduced
from phylokit.exact import phylogeny_number_exact
from phylokit.generate import connected_graphs_upto
from phylokit.graphs import Digraph, Graph, bits, is_acyclic
from phylokit.witness import figure_catalog


class TestUnderlying:
    def test_two_cycle_gives_single_edge(self):
        assert underlying_graph(Digraph(2, [(0, 1), (1, 0)])) == Graph(2, [(0, 1)])

    def test_empty(self):
        assert underlying_graph(Digraph(3)) == Graph(3)

    def test_catalog_digraph_skeleton(self):
        d, _ = figure_catalog("fig1_D")
        assert underlying_graph(d).m == 7


class TestCompetition:
    def test_one_common_prey(self):
        assert competition_graph(Digraph(3, [(0, 2), (1, 2)])) == Graph(3, [(0, 1)])

    def test_directed_path_has_none(self):
        assert competition_graph(Digraph(3, [(0, 1), (1, 2)])).m == 0

    def test_in_star_marries_all(self):
        d = Digraph(4, [(0, 3), (1, 3), (2, 3)])
        assert competition_graph(d) == Graph(4, [(0, 1), (0, 2), (1, 2)])


class TestPhylogeny:
    def test_v_structure(self):
        assert phylogeny_graph(Digraph(3, [(0, 2), (1, 2)])) == Graph(
            3, [(0, 1), (0, 2), (1, 2)]
        )

    def test_catalog_pair(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        restricted = {
            e for e in phylogeny_graph(d).edges if e[0] < 6 and e[1] < 6
        }
        assert restricted == g.edges

    def test_single_vertex(self):
        assert phylogeny_graph(Digraph(1)) == Graph(1)

    def test_rejects_cycle(self):
        with pytest.raises(CyclicDigraph):
            phylogeny_graph(Digraph(2, [(0, 1), (1, 0)]))

    def test_union_and_moralization_exhaustive_n4(self):
        for arcs in all_digraph_arc_sets(4):
            d = Digraph(4, arcs)
            if not is_acyclic(d):
                continue
            p = phylogeny_graph(d)
            assert p.edges == underlying_graph(d).edges | competition_graph(d).edges
            married = {tuple(sorted(a)) for a in d.arcs}
            for w in range(4):
                preds = list(bits(d.inn[w]))
                for i, a in enumerate(preds):
                    for b in preds[i + 1:]:
                        married.add((a, b))
            assert p.edges == married


class TestValidate:
    def test_catalog_certificate(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        cert = validate_phylogeny_digraph(d, base, g)
        assert cert.extra_count == 1
        assert cert.extras == (6,)

    def test_not_induced_when_marrying_nonedge(self):
        # all in-arcs at one head marry its in-neighbors; 0 and 2 are not
        # adjacent in the path, so the result is not induced
        path = Graph(3, [(0, 1), (1, 2)])
        d = Digraph(3, [(0, 1), (2, 1)])
        with pytest.raises(NotInduced) as info:
            validate_phylogeny_digraph(d, range(3), path)
        assert info.value.edge == (0, 2)
        assert not info.value.missing

    def test_missing_edge_reported(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(NotInduced) as info:
            validate_phylogeny_digraph(Digraph(2), range(2), g)
        assert info.value.edge == (0, 1)
        assert info.value.missing

    def test_arc_into_base(self):
        g = Graph(2, [(0, 1)])
        d = Digraph(3, [(0, 1), (2, 0)])
        with pytest.raises(ArcIntoBase) as info:
            validate_phylogeny_digraph(d, range(2), g)
        assert info.value.arc == (2, 0)

    def test_arc_into_base_names_the_first_arc(self):
        rng = random.Random(24)
        several = 0
        for _ in range(300):
            base = rng.sample(range(6), 3)
            arcs = [(t, h) for t in range(6) for h in range(t) if rng.random() < 0.4]
            entering = sorted((t, h) for t, h in arcs if t not in base and h in base)
            several += len(entering) > 1
            try:
                validate_phylogeny_digraph(Digraph(6, arcs), base, Graph(3))
            except ArcIntoBase as exc:
                assert exc.arc == entering[0]
            except NotInduced:
                assert not entering
            else:
                assert not entering
        assert several > 100

    def test_not_acyclic(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(NotAcyclic):
            validate_phylogeny_digraph(Digraph(2, [(0, 1), (1, 0)]), range(2), g)

    def test_reports_the_first_wrong_edge_under_any_order(self):
        rng = random.Random(7)
        for _ in range(400):
            base = rng.sample(range(6), 4)
            # arcs point from higher to lower ids, and none enters the base from outside
            arcs = [
                (t, h) for t in range(6) for h in range(t)
                if rng.random() < 0.4 and (t in base or h not in base)
            ]
            d = Digraph(6, arcs)
            married = {tuple(sorted(a)) for a in arcs}
            married |= {(a, b) for w in range(6) for a in bits(d.inn[w]) for b in bits(d.inn[w]) if a < b}
            position = {v: i for i, v in enumerate(base)}
            realized = {
                tuple(sorted((position[a], position[b]))) for a, b in married if a in position and b in position
            }
            pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
            target = Graph(4, realized if rng.random() < 0.3 else [e for e in pairs if rng.random() < 0.5])
            wrong = sorted(realized ^ target.edges)
            if not wrong:
                assert validate_phylogeny_digraph(d, base, target, order=base).base == tuple(base)
                continue
            with pytest.raises(NotInduced) as info:
                validate_phylogeny_digraph(d, base, target, order=base)
            assert info.value.edge == wrong[0]
            assert info.value.missing == (wrong[0] in target.edges)

    def test_base_order_permutation(self):
        # arcs (1, 0): plays edge between target vertices, any order works
        g = Graph(2, [(0, 1)])
        d = Digraph(2, [(1, 0)])
        cert = validate_phylogeny_digraph(d, range(2), g, order=(1, 0))
        assert cert.base == (1, 0)

    @pytest.mark.parametrize(
        "base, order, message",
        [
            ([0], None, "base has 1 vertices, target has 2"),
            ([0, 5], None, "base vertex 5 not in the digraph"),
            ([0, 1], [0, 2], "order must be a permutation of the base set"),
        ],
    )
    def test_rejects_a_base_that_does_not_fit(self, base, order, message):
        d = Digraph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match=message):
            validate_phylogeny_digraph(d, base, Graph(2, [(0, 1)]), order=order)


class TestCaredEdges:
    def test_catalog_digraph_cares_two_edges(self):
        d, base = figure_catalog("fig1_D")
        cares = cared_edges(d, base)
        assert cares == {(1, 3): frozenset({6}), (2, 5): frozenset({4})}

    def test_all_arcs_realized_means_none(self):
        d = Digraph(3, [(0, 1), (1, 2)])
        assert cared_edges(d, range(3)) == {}

    def test_underlying_edge_excluded(self):
        d = Digraph(3, [(0, 2), (1, 2), (0, 1)])
        assert cared_edges(d, {0, 1}) == {}


class TestAssembly:
    def test_to_digraph_matches_the_arc_list(self, monkeypatch):
        built = []
        original = Assembly.to_digraph

        def recorded(asm):
            digraph = original(asm)
            built.append((asm.n, list(asm.in_set), list(asm.extras), digraph))
            return digraph

        monkeypatch.setattr(Assembly, "to_digraph", recorded)
        for g in connected_graphs_upto(6):
            phylogeny_number_exact(g)
        assert len(built) == 143
        for n, in_set, extras, digraph in built:
            arcs = [(a, w) for w in range(n) for a in bits(in_set[w])]
            arcs += [(s, n + j) for j, members in enumerate(extras) for s in bits(members)]
            assert digraph == Digraph(n + len(extras), arcs)
            assert digraph.sorted_arcs() == sorted(arcs)


class TestNormalization:
    def test_extra_out_arcs_can_always_be_dropped(self):
        # certificate whose extra vertex also feeds a second extra
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        widened = Digraph(8, list(d.arcs) + [(6, 7)])
        cert = validate_phylogeny_digraph(widened, base, g)
        asm = Assembly(g.n)
        asm.absorb(cert, base)
        trimmed = asm.certificate(g)
        assert (6, 7) not in trimmed.digraph.arcs
        assert trimmed.extra_count == cert.extra_count

    def test_nontriangle_arc_rules_hold_on_catalog(self):
        g = figure_catalog("fig1_G")
        d, base = figure_catalog("fig1_D")
        check_nontriangle_edge_arcs(g, d, base)

    def test_nontriangle_arc_rules_catch_violation(self):
        # both 0 and 2 point at 1 although edge (0,1) is on no triangle
        g = Graph(3, [(0, 1), (1, 2)])
        d = Digraph(4, [(0, 3), (1, 3), (0, 1), (2, 1)])
        with pytest.raises(ArcRuleViolated):
            check_nontriangle_edge_arcs(g, d, (0, 1, 2))

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 2), (1, 2)], "cared for by base vertex 2"),
            ([(0, 3), (1, 3), (2, 3)], "further base in-neighbors"),
        ],
    )
    def test_nontriangle_arc_rules_check_the_carer(self, arcs, message):
        # edge (0,1) lies on no triangle, so only an extra holding just 0 and 1 may care for it
        g = Graph(3, [(0, 1)])
        d = Digraph(1 + max(h for _, h in arcs), arcs)
        with pytest.raises(ArcRuleViolated, match=message):
            check_nontriangle_edge_arcs(g, d, (0, 1, 2))

    def test_nontriangle_arc_rules_survive_optimization(self):
        # python -O strips asserts; the audit must still reject the violation
        code = (
            "from phylokit.derived import check_nontriangle_edge_arcs\n"
            "from phylokit.errors import ArcRuleViolated\n"
            "from phylokit.graphs import Digraph, Graph\n"
            "g = Graph(3, [(0, 1), (1, 2)])\n"
            "d = Digraph(4, [(0, 3), (1, 3), (0, 1), (2, 1)])\n"
            "try:\n"
            "    check_nontriangle_edge_arcs(g, d, (0, 1, 2))\n"
            "except ArcRuleViolated:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestDot:
    def test_graph_dot_mentions_every_edge(self):
        dot = graph_to_dot(figure_catalog("fig2_G"))
        assert dot.count(" -- ") == 7

    def test_digraph_dot(self):
        d, _ = figure_catalog("fig1_D")
        assert digraph_to_dot(d).count(" -> ") == 7

    def test_certificate_dot_marks_extras_and_cared_edges(self):
        d, base = figure_catalog("fig1_D")
        dot = certificate_to_dot(d, base)
        assert "shape=box" in dot and "shape=circle" in dot
        assert "cared by" in dot
