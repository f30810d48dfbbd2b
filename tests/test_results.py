"""The result value's invariants."""

import pytest

from phylokit.derived import validate_phylogeny_digraph
from phylokit.graphs import Digraph, Graph
from phylokit.results import PhyloResult

# a certificate with no extra vertex: one edge realized by one arc
NO_EXTRAS = validate_phylogeny_digraph(Digraph(2, [(0, 1)]), range(2), Graph(2, [(0, 1)]))


class TestPhyloResult:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "guess", "method": "m", "value": 1}, "unknown result kind 'guess'"),
            ({"kind": "lower_bound", "method": "m", "value": -1}, "lower_bound result needs a non-negative value"),
            ({"kind": "interval", "method": "m", "lower": 2, "upper": 1}, "interval result needs 0 <= lower <= upper"),
            (
                {"kind": "lower_bound", "method": "m", "value": 0, "witness": NO_EXTRAS},
                "only exact results carry witnesses",
            ),
            (
                {"kind": "exact", "method": "m", "value": 1, "witness": NO_EXTRAS},
                "witness adds 0 vertices but value is 1",
            ),
        ],
    )
    def test_rejects(self, fields, message):
        with pytest.raises(ValueError) as info:
            PhyloResult(**fields)
        assert str(info.value) == message

    def test_accepts_a_matching_witness(self):
        res = PhyloResult(kind="exact", method="m", value=0, witness=NO_EXTRAS)
        assert res.to_json() == {"kind": "exact", "method": "m", "value": 0}
