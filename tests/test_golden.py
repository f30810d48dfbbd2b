"""Pinned digests: refactors must keep the same JSON and the same witnesses.

Each digest is the SHA-256 of a newline-joined list of JSON lines.  A
change to any value, method, witness arc or sweep record changes it; an
intended change of output has to update the pinned digest on purpose.
"""

import hashlib
import json
import random

from conftest import labelled_graphs
from phylokit.cli import main
from phylokit.exact import phylogeny_number_exact
from phylokit.formulas import phylogeny_number_auto
from phylokit.generate import _least_leaf, connected_graphs, connected_graphs_upto, graph6_encode
from phylokit.graphs import Graph
from phylokit.sweep import in_k4free_diamond_scope
from phylokit.witness import construct_gminus_caring, construct_k4free_upper

SWEEP_N6_DIGEST = "61c9c1388099a5f98bf5b84d4da6f9e641592662c52adbce6bd5edd9d7cf54ee"
# A kernel whose value the sandwich's upper end gives exactly takes its
# witness from the upper construction, which bottoms out in the
# triangle-free spanning-tree construction rather than in a search, so
# 11 of these witnesses differ from the solver's; values and methods are
# pinned on their own below.
AUTO_WITNESS_N6_DIGEST = "f15af1d5c301edb5e5f7b416d28d6c218094942facb17f98c7828a87ec1b485a"
AUTO_WITNESS_LABELLED_N5_DIGEST = "eca79b85fb8485aa7031b5e2a3efc329f2da8b78e57b47448ef63a9fc062cf63"
AUTO_VALUE_N6_DIGEST = "4a6b3aa5c5dd0e120c45bfc899f62c1e16bf10d537f4fbd28e3d06b030c44438"
# upper-construction steps and arcs, then caring-construction arcs, over
# the in-scope connected graphs: the AUTO_* digests see few of these
CONSTRUCTIONS_N7_DIGEST = "3b04948124144a7d13f12113a42b038cc6a2e591a3f3e5cf1916392da5d9681f"
SOLVER_WITNESS_N6_DIGEST = "d3a03c37f3376e70221e0f589bed9c2eba1ddb90f85fb05223eab422a219f226"
CONNECTED_N8_DIGEST = "9c399dc9ca82ca18c2f0d8ccf4268ccaa2dacd7d301c21f4364d37e0b727ad6f"
# list(g.edges) per graph: ``edges`` inserts the pairs in ascending order
# on its first read, so its iteration order follows the adjacency alone
EDGE_ORDER_N8_DIGEST = "3b204f2e0c668685d583a37510e53e1bc7064e18f0873c5c9572c72e04f9431f"
# (code, order, generators) of the canonical search from the unit
# partition, on each connected graph with n <= 7 and a relabelled copy
LABELLING_N7_DIGEST = "31f1ac696b3821fd72b744d5c79cfb1b7ffeb8c66503c96e650990caaa14bb5d"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_sweep_n6_json_is_pinned(capsys):
    assert main(["sweep", "--max-n", "6"]) == 0
    lines = []
    for line in capsys.readouterr().out.splitlines():
        record = json.loads(line)
        record.pop("elapsed_ms")
        lines.append(json.dumps(record))
    assert len(lines) == 143
    assert _digest(lines) == SWEEP_N6_DIGEST


def test_auto_witnesses_n6_are_pinned():
    # connected graphs, then every labelled graph (forests, disconnected)
    inputs = [
        (list(connected_graphs_upto(6)), 143, AUTO_WITNESS_N6_DIGEST),
        ([g for n in range(1, 6) for g in labelled_graphs(n)], 1099, AUTO_WITNESS_LABELLED_N5_DIGEST),
    ]
    for graphs, count, digest in inputs:
        lines = []
        for g in graphs:
            result = phylogeny_number_auto(g, want_witness=True)
            arcs = result.witness.digraph.sorted_arcs()
            lines.append(json.dumps([graph6_encode(g), result.value, result.method, arcs]))
        assert len(lines) == count
        assert _digest(lines) == digest


def test_auto_values_n6_are_pinned():
    lines = []
    for g in connected_graphs_upto(6):
        result = phylogeny_number_auto(g)
        lines.append(json.dumps([graph6_encode(g), result.value, result.method]))
    assert len(lines) == 143
    assert _digest(lines) == AUTO_VALUE_N6_DIGEST


def test_constructions_n7_are_pinned():
    lines = []
    for g in connected_graphs_upto(7):
        if not in_k4free_diamond_scope(g):
            continue
        trace = construct_k4free_upper(g)
        caring, _ = construct_gminus_caring(g)
        arcs = [trace.certificate.digraph.sorted_arcs(), caring.digraph.sorted_arcs()]
        lines.append(json.dumps([graph6_encode(g), list(trace.steps), *arcs]))
    assert len(lines) == 369
    assert _digest(lines) == CONSTRUCTIONS_N7_DIGEST


def test_solver_witnesses_n6_are_pinned():
    lines = []
    for g in connected_graphs_upto(6):
        arcs = phylogeny_number_exact(g).witness.digraph.sorted_arcs()
        lines.append(json.dumps([graph6_encode(g), arcs]))
    assert len(lines) == 143
    assert _digest(lines) == SOLVER_WITNESS_N6_DIGEST


def test_connected_n8_is_pinned(labellings):
    # graph6 lines in output order; the same run bounds the labellings,
    # 18,764 with one extension per orbit (26,497 extensions before)
    graphs = connected_graphs(8)
    lines = [graph6_encode(g) for g in graphs]
    assert len(lines) == 11117
    assert _digest(lines) == CONNECTED_N8_DIGEST
    assert len(labellings) <= 19000
    assert _digest([json.dumps(list(g.edges)) for g in graphs]) == EDGE_ORDER_N8_DIGEST


def test_labellings_n7_are_pinned():
    rng = random.Random(2026)
    lines = []
    graphs = list(connected_graphs_upto(7))
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        copy = Graph(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges()])
        for h in (g, copy):
            code, order, generators = _least_leaf(h.adj, [list(range(h.n))], automorphisms=True)
            lines.append(json.dumps([code, order, generators]))
    assert len(graphs) == 996
    assert _digest(lines) == LABELLING_N7_DIGEST
