"""Wider sweeps, off by default: set PHYLOKIT_SLOW_TESTS=1 to run.

These push the module invariants one size past the acceptance scope:
the generator against its naive reference and the published count,
sandwich, cover identity and upper-construction budget at 8 vertices,
the exhaustive labeling/acyclicity equivalence at 5 vertices, and, at
7 vertices, the competition solver against Roberts' characterization
and the head search's fail-first branching against its canonical order.
"""

import os

import pytest

from conftest import all_digraph_arc_sets, naive_connected_graphs
from phylokit.derived import validate_phylogeny_digraph
from phylokit.errors import CyclicDigraph
from phylokit.exact import competition_number_exact, phylogeny_number_exact
from phylokit.generate import connected_graphs, graph6_encode
from phylokit.graphs import Digraph, acyclic_labeling, is_acyclic
from phylokit.structure import census, edge_clique_cover_number, triangle_edges
from phylokit.sweep import in_k4free_diamond_scope
from phylokit.witness import construct_k4free_upper, replay_trace
from test_exact import check_fail_first_agreement, roberts_competition_number

slow = pytest.mark.skipif(
    not os.environ.get("PHYLOKIT_SLOW_TESTS"),
    reason="set PHYLOKIT_SLOW_TESTS=1 to run the extended sweeps",
)


@slow
def test_generator_equals_naive_at_eight_vertices():
    mine = [graph6_encode(g) for g in connected_graphs(8)]
    assert len(mine) == 11117
    assert mine == [graph6_encode(g) for g in naive_connected_graphs(8)]


@slow
def test_sandwich_cover_and_constructions_at_eight_vertices():
    scoped = [g for g in connected_graphs(8) if in_k4free_diamond_scope(g)]
    assert len(scoped) > 2000
    for g in scoped:
        rep = census(g)
        exact = phylogeny_number_exact(g).value
        lower = g.m - g.n - 2 * rep.t + rep.d + 1
        upper = g.m - g.n - rep.t + 1
        assert lower <= exact <= upper
        components = len(rep.g_minus_components)
        if components == 1:
            assert exact == lower
        trace = construct_k4free_upper(g)
        if components == 2 * rep.t - rep.d + 1:
            assert exact == upper == trace.certificate.extra_count
        assert edge_clique_cover_number(g) == g.m - 2 * rep.t + rep.d
        cert = trace.certificate
        validate_phylogeny_digraph(cert.digraph, cert.base, g)
        assert cert.extra_count <= upper
        assert replay_trace(g, trace.steps) == trace.certificate.digraph


@slow
def test_labeling_exists_iff_acyclic_exhaustive_n5():
    for arcs in all_digraph_arc_sets(5):
        d = Digraph(5, arcs)
        acyclic = is_acyclic(d)
        try:
            values = acyclic_labeling(d)
            assert acyclic and all(values[t] > values[h] for t, h in d.arcs)
        except CyclicDigraph:
            assert not acyclic


@slow
def test_oracle_agreement_at_seven_vertices_up_to_twelve_edges():
    # the oracle's candidate space explodes on denser 7-vertex graphs,
    # so this extends the acceptance scope only where it stays tractable
    from phylokit.errors import Infeasible
    from phylokit.exact import oracle_phylogeny_number

    checked = 0
    for g in connected_graphs(7):
        if g.m > 12:
            continue
        exact = phylogeny_number_exact(g).value
        try:
            assert oracle_phylogeny_number(g, 3) == exact
        except Infeasible:
            assert exact > 3
        checked += 1
    assert checked == 614


@slow
def test_competition_oracle_at_seven_vertices_with_a_triangle():
    # triangle-free connected graphs take the closed form, so these are
    # the graphs the competition search runs on
    checked = 0
    for g in connected_graphs(7):
        if triangle_edges(g):
            assert competition_number_exact(g) == roberts_competition_number(g), g
            checked += 1
    assert checked == 794


@slow
@pytest.mark.parametrize("head_joins", [True, False], ids=["phylogeny", "competition"])
def test_fail_first_agreement_at_seven_vertices(head_joins):
    pairs, unswitched = check_fail_first_agreement(connected_graphs(7), head_joins)
    assert 0 < unswitched < pairs
