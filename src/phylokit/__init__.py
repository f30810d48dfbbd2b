"""phylokit: phylogeny (moral) graphs and exact phylogeny numbers.

The phylogeny graph of an acyclic digraph joins two vertices whenever
they are linked by an arc or share an out-neighbor; it coincides with
the moral graph of a DAG.  The phylogeny number of a graph G is the
least number of vertices that must be added beyond V(G) so that some
acyclic digraph's phylogeny graph contains G as an induced subgraph
with no arcs entering V(G) from outside.  This package computes that
number exactly for small graphs, by closed forms for graphs with few
triangles, and by a lower/upper bound sandwich for K4-free graphs with
edge-disjoint diamonds, emitting a certifying digraph for every exact
value it reports.
"""

from .derived import (
    PhyloCertificate,
    cared_edges,
    competition_graph,
    phylogeny_graph,
    underlying_graph,
    validate_phylogeny_digraph,
)
from .errors import PhylokitError
from .exact import (
    competition_number_exact,
    oracle_phylogeny_number,
    phylogeny_number_exact,
)
from .formulas import (
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
from .graphs import (
    Digraph,
    Graph,
    acyclic_labeling,
    blocks,
    connected_components,
    is_acyclic,
    parse_digraph,
    parse_graph,
)
from .results import PhyloResult
from .structure import (
    StructureReport,
    census,
    edge_clique_cover_number,
    is_vertex_transitive,
    maximal_cliques,
)
from .witness import (
    ConstructionTrace,
    Subgraph,
    construct_gminus_caring,
    construct_k4free_upper,
    construct_triangle_free,
    figure_catalog,
    replay_trace,
    restriction_digraph,
)

__version__ = "0.1.0"

__all__ = [
    "PhylokitError",
    "Graph",
    "Digraph",
    "PhyloCertificate",
    "PhyloResult",
    "StructureReport",
    "ConstructionTrace",
    "Subgraph",
    "parse_graph",
    "parse_digraph",
    "is_acyclic",
    "acyclic_labeling",
    "connected_components",
    "blocks",
    "underlying_graph",
    "competition_graph",
    "phylogeny_graph",
    "validate_phylogeny_digraph",
    "cared_edges",
    "census",
    "maximal_cliques",
    "edge_clique_cover_number",
    "is_vertex_transitive",
    "phylogeny_number_exact",
    "oracle_phylogeny_number",
    "competition_number_exact",
    "formula_dispatch",
    "bounds_k4free",
    "lower_bound_clique_cover",
    "lower_bound_decomposition",
    "lower_bound_triangle_free_subgraph",
    "reduce_graph",
    "lift_reductions",
    "decompose_equal",
    "phylogeny_number_auto",
    "difference_family",
    "construct_triangle_free",
    "construct_gminus_caring",
    "construct_k4free_upper",
    "replay_trace",
    "restriction_digraph",
    "figure_catalog",
]
