"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Each criterion is checked at full stated scope and exact (integer)
tolerance; nothing here is sampled down or loosened.
"""

import itertools
import random
import time

import pytest

from conftest import random_certificate
from phylokit.cli import main as cli_main
from phylokit.derived import check_nontriangle_edge_arcs, validate_phylogeny_digraph
from phylokit.errors import ConditionViolated, Infeasible
from phylokit.exact import (
    competition_number_exact,
    oracle_phylogeny_number,
    phylogeny_number_exact,
)
from phylokit.formulas import (
    difference_family,
    formula_dispatch,
    lower_bound_decomposition,
    phylogeny_number_auto,
)
from phylokit.generate import connected_graphs_upto
from phylokit.graphs import format_digraph, format_graph
from phylokit.structure import census, edge_clique_cover_number, maximal_cliques
from phylokit.sweep import in_k4free_diamond_scope
from phylokit.witness import (
    Subgraph,
    construct_gminus_caring,
    construct_k4free_upper,
    construct_triangle_free,
    figure_catalog,
    restriction_digraph,
)

ORACLE_BUDGET = 3


@pytest.fixture(scope="module")
def lab():
    """Exact value and witness for every connected graph on <= 7 vertices."""
    entries = []
    for g in connected_graphs_upto(7):
        result = phylogeny_number_exact(g)
        entries.append((g, result))
    return entries


def _verify_via_cli(tmp_path, tag, graph, certificate) -> int:
    graph_path = tmp_path / f"{tag}.graph"
    digraph_path = tmp_path / f"{tag}.digraph"
    graph_path.write_text(format_graph(graph))
    digraph_path.write_text(
        format_digraph(certificate.digraph, trailing=f"base 0..{graph.n - 1}")
    )
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(["verify", str(graph_path), str(digraph_path)])


def test_criterion_1_golden_figures():
    started = time.perf_counter()
    expected_p = {
        "fig1_G": 1,
        "fig2_G": 2,
        "fig3_G1": 4,
        "fig3_G2": 0,
        "fig4_G1": 1,
        "fig4_G2": 2,
    }
    for name, want in expected_p.items():
        t0 = time.perf_counter()
        result = phylogeny_number_auto(figure_catalog(name))
        elapsed = time.perf_counter() - t0
        assert result.value == want, f"{name}: got {result.value}, want {want}"
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
    for name in ("fig4_G1", "fig4_G2"):
        t0 = time.perf_counter()
        assert competition_number_exact(figure_catalog(name)) == 1
        assert time.perf_counter() - t0 < 10.0
    print(
        f"criterion 1: PASS - 6 golden graphs match exactly "
        f"({time.perf_counter() - started:.1f}s total)"
    )


def test_criterion_2_oracle_equivalence(lab):
    started = time.perf_counter()
    checked = 0
    for g, result in lab:
        if g.n > 6:
            continue
        try:
            assert oracle_phylogeny_number(g, ORACLE_BUDGET) == result.value
        except Infeasible:
            assert result.value > ORACLE_BUDGET
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 143  # 1 + 1 + 2 + 6 + 21 + 112 connected graphs
    assert elapsed < 600.0
    print(f"criterion 2: PASS - oracle agrees on all {checked} graphs ({elapsed:.1f}s)")


def test_criterion_3_formula_agreement(lab):
    started = time.perf_counter()
    checked = 0
    for g, result in lab:
        if census(g).t > 2:
            continue
        formula = formula_dispatch(g)
        assert formula.kind == "exact"
        assert formula.value == result.value, (
            f"formula {formula.method} gave {formula.value}, exact is {result.value}"
        )
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    print(
        f"criterion 3: PASS - closed forms agree with the solver on "
        f"{checked} graphs with at most two triangles ({elapsed:.1f}s)"
    )


def test_criterion_4_sandwich(lab):
    started = time.perf_counter()
    checked = equal_low = equal_high = 0
    for g, result in lab:
        if not in_k4free_diamond_scope(g):
            continue
        rep = census(g)
        n, m, t, d = g.n, g.m, rep.t, rep.d
        lower = m - n - 2 * t + d + 1
        upper = m - n - t + 1
        assert lower <= result.value <= upper
        components = len(rep.g_minus_components)
        if components == 1:
            assert result.value == lower
            equal_low += 1
        if components == 2 * t - d + 1:
            assert result.value == upper
            equal_high += 1
        checked += 1
    print(
        f"criterion 4: PASS - sandwich holds on {checked} graphs "
        f"({equal_low} lower equalities, {equal_high} upper equalities, "
        f"{time.perf_counter() - started:.1f}s)"
    )


def test_criterion_5_clique_cover_bound(lab):
    started = time.perf_counter()
    bound_checked = identity_checked = 0
    for g, result in lab:
        if g.n <= 6:
            theta = edge_clique_cover_number(g)
            assert theta - g.n + 1 <= result.value
            bound_checked += 1
        if in_k4free_diamond_scope(g):
            rep = census(g)
            theta = edge_clique_cover_number(g)
            assert theta == g.m - 2 * rep.t + rep.d
            identity_checked += 1
    print(
        f"criterion 5: PASS - cover bound below exact on {bound_checked} graphs, "
        f"cover identity on {identity_checked} graphs "
        f"({time.perf_counter() - started:.1f}s)"
    )


def test_criterion_6_witness_validity(lab, tmp_path):
    started = time.perf_counter()
    verified = 0

    # solver witnesses across the whole lab
    for index, (g, result) in enumerate(lab):
        cert = result.witness
        assert cert.extra_count == result.value
        validate_phylogeny_digraph(cert.digraph, cert.base, g)
        if index % 40 == 0:
            assert _verify_via_cli(tmp_path, f"solver{index}", g, cert) == 0
        verified += 1

    # constructions over their scopes, counts pinned to the claimed bounds
    for index, (g, result) in enumerate(lab):
        rep = census(g)
        if rep.t == 0:
            cert = construct_triangle_free(g)
            assert cert.extra_count == g.m - g.n + 1
            if index % 40 == 0:
                assert _verify_via_cli(tmp_path, f"tf{index}", g, cert) == 0
            verified += 1
        if in_k4free_diamond_scope(g):
            caring, optimal = construct_gminus_caring(g)
            expected = g.m - g.n - 2 * rep.t + rep.d + len(rep.g_minus_components)
            assert caring.extra_count == expected
            if optimal:
                assert caring.extra_count == result.value
            trace = construct_k4free_upper(g)
            assert trace.certificate.extra_count <= g.m - g.n - rep.t + 1
            if index % 40 == 0:
                assert _verify_via_cli(tmp_path, f"caring{index}", g, caring) == 0
                assert _verify_via_cli(tmp_path, f"upper{index}", g, trace.certificate) == 0
            verified += 2

    # the compute pipeline's lifted witnesses for the catalog graphs
    for name in ("fig1_G", "fig2_G", "fig3_G1", "fig3_G2", "fig4_G1", "fig4_G2"):
        g = figure_catalog(name)
        result = phylogeny_number_auto(g, want_witness=True)
        assert result.witness.extra_count == result.value
        assert _verify_via_cli(tmp_path, name, g, result.witness) == 0
        verified += 1

    print(
        f"criterion 6: PASS - {verified} certificates validated, counts match "
        f"claimed bounds ({time.perf_counter() - started:.1f}s)"
    )


def test_criterion_7_restriction_property():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 60000, "triple generator stalled"
        digraph, target = random_certificate(rng)
        candidates = [Subgraph(frozenset(range(target.n)), target.edges)]
        cliques = maximal_cliques(target)
        if cliques:
            pick = rng.choice(cliques)
            candidates.append(
                Subgraph.from_edges(
                    [(a, b) for i, a in enumerate(pick) for b in pick[i + 1:]],
                    extra_vertices=pick,
                )
            )
        if target.m:
            size = rng.randrange(1, target.m + 1)
            candidates.append(
                Subgraph.from_edges(rng.sample(sorted(target.edges), k=size))
            )
        for sub in candidates:
            if accepted >= 1000:
                break
            try:
                # raises NotInduced if the restriction fails to induce
                # the subgraph, which the statement rules out
                restriction_digraph(digraph, range(target.n), target, sub)
            except ConditionViolated:
                continue
            accepted += 1
    print(
        f"criterion 7: PASS - {accepted} restriction triples, zero failures "
        f"({attempts} generator rounds, {time.perf_counter() - started:.1f}s)"
    )


def test_criterion_8_two_part_bound_is_strict_on_the_grid():
    started = time.perf_counter()
    grid = figure_catalog("fig2_G")
    exact = phylogeny_number_exact(grid).value
    assert exact == 2
    edges = grid.sorted_edges()
    best = -1
    valid_pairs = 0
    for assignment in itertools.product(range(3), repeat=len(edges)):
        first = [e for e, a in zip(edges, assignment) if a == 1]
        second = [e for e, a in zip(edges, assignment) if a == 2]
        if not first or not second:
            continue
        parts = [Subgraph.from_edges(first), Subgraph.from_edges(second)]
        try:
            bound = lower_bound_decomposition(grid, parts).value
        except ConditionViolated:
            continue
        valid_pairs += 1
        best = max(best, bound)
    assert valid_pairs > 0
    assert best == 1 < exact
    print(
        f"criterion 8: PASS - {valid_pairs} valid two-part splits, best bound "
        f"{best} < exact {exact} ({time.perf_counter() - started:.1f}s)"
    )


def test_criterion_9_difference_family():
    started = time.perf_counter()
    for l in range(5):
        graph, p_result, k = difference_family(l, verify_k=l <= 2)
        assert p_result.value - k + 1 == l
        if l <= 2:
            solver = phylogeny_number_exact(graph)
            assert solver.value == p_result.value
    print(
        f"criterion 9: PASS - difference identity holds for l in 0..4 "
        f"({time.perf_counter() - started:.1f}s)"
    )


def test_criterion_10_arc_rules_in_every_witness(lab):
    started = time.perf_counter()
    for g, result in lab:
        cert = result.witness
        check_nontriangle_edge_arcs(g, cert.digraph, cert.base)
    print(
        f"criterion 10: PASS - arc rules hold in all {len(lab)} solver witnesses "
        f"({time.perf_counter() - started:.1f}s)"
    )
