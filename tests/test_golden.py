"""Pinned digests: refactors must keep the same JSON and the same witnesses.

Each digest is the SHA-256 of a newline-joined list of JSON lines.  A
change to any value, method, witness arc or sweep record changes it; an
intended change of output has to update the pinned digest on purpose.
"""

import hashlib
import json

from phylokit.cli import main
from phylokit.formulas import phylogeny_number_auto
from phylokit.generate import connected_graphs_upto, graph6_encode

SWEEP_N6_DIGEST = "61c9c1388099a5f98bf5b84d4da6f9e641592662c52adbce6bd5edd9d7cf54ee"
AUTO_WITNESS_N6_DIGEST = "441a348b081353adc2b03d7fc2f0904fd3093c4cb3b55090bedd374cb20bb357"


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
    lines = []
    for g in connected_graphs_upto(6):
        result = phylogeny_number_auto(g, want_witness=True)
        arcs = result.witness.digraph.sorted_arcs()
        lines.append(json.dumps([graph6_encode(g), result.value, result.method, arcs]))
    assert len(lines) == 143
    assert _digest(lines) == AUTO_WITNESS_N6_DIGEST
