"""Operators that derive graphs from digraphs; certificate assembly and checks.

The phylogeny graph of an acyclic digraph is its underlying graph plus
an edge for every pair of vertices sharing an out-neighbor; this is the
same object as the moral graph of a DAG (marry all co-parents, drop the
orientation).  A phylogeny digraph for a target graph G is an acyclic
digraph whose phylogeny graph contains G as an induced subgraph on a
designated base vertex set, with no arcs entering the base from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ArcIntoBase, ArcRuleViolated, CyclicDigraph, NotAcyclic, NotInduced
from .graphs import Digraph, Edge, Graph, bits, is_acyclic

__all__ = [
    "underlying_graph",
    "competition_graph",
    "phylogeny_graph",
    "PhyloCertificate",
    "validate_phylogeny_digraph",
    "cared_edges",
    "check_nontriangle_edge_arcs",
    "graph_to_dot",
    "digraph_to_dot",
    "certificate_to_dot",
]


def underlying_graph(digraph: Digraph) -> Graph:
    """Erase arc directions (defined for cyclic digraphs as well)."""
    return Graph._from_adj(tuple(out | inn for out, inn in zip(digraph.out, digraph.inn)))


def _competition_masks(digraph: Digraph) -> list[int]:
    """Per vertex, the mask of the vertices it shares an out-neighbour with."""
    adj = [0] * digraph.n
    for preds in digraph.inn:
        for u in bits(preds):
            adj[u] |= preds & ~(1 << u)
    return adj


def competition_graph(digraph: Digraph) -> Graph:
    """Join every two vertices that have a common out-neighbor."""
    return Graph._from_adj(tuple(_competition_masks(digraph)))


def phylogeny_graph(digraph: Digraph) -> Graph:
    """Union of the underlying and competition graphs of an acyclic digraph.

    Identical to moralizing the DAG.  Cyclic input is rejected: the
    operator is only meaningful for acyclic digraphs, and accepting a
    cycle silently would mask solver bugs downstream.
    """
    if not is_acyclic(digraph):
        raise CyclicDigraph("phylogeny graph requires an acyclic digraph")
    return Graph._from_adj(_moral_masks(digraph))


def _moral_masks(digraph: Digraph) -> tuple[int, ...]:
    """Adjacency masks of the underlying plus competition edges, with no acyclicity check."""
    adj = _competition_masks(digraph)
    return tuple(row | out | inn for row, out, inn in zip(adj, digraph.out, digraph.inn))


@dataclass(frozen=True)
class PhyloCertificate:
    """A verified phylogeny digraph for some target graph.

    ``base[i]`` is the digraph vertex playing the target's vertex ``i``;
    ``extra_count`` is the number of vertices outside the base.  Values
    are only constructed by :func:`validate_phylogeny_digraph`, so holding
    one means the three defining conditions were checked.
    """

    digraph: Digraph
    base: tuple[int, ...]
    extra_count: int

    @property
    def extras(self) -> tuple[int, ...]:
        inside = set(self.base)
        return tuple(v for v in range(self.digraph.n) if v not in inside)


def _check_acyclic_and_base(digraph: Digraph, base: Iterable[int]) -> int:
    """Raise :class:`NotAcyclic` or :class:`ArcIntoBase`; return the base mask."""
    if not is_acyclic(digraph):
        raise NotAcyclic("candidate digraph has a directed cycle")
    base_mask = 0
    for v in base:
        base_mask |= 1 << v
    for t, out in enumerate(digraph.out):
        into_base = out & base_mask
        if into_base and not base_mask >> t & 1:
            raise ArcIntoBase((t, (into_base & -into_base).bit_length() - 1))
    return base_mask


def validate_phylogeny_digraph(
    digraph: Digraph,
    base: Iterable[int],
    target: Graph,
    order: Sequence[int] | None = None,
) -> PhyloCertificate:
    """Check that ``digraph`` is a phylogeny digraph for ``target``.

    ``base`` must name ``target.n`` distinct digraph vertices.  By default
    the correspondence is positional: the i-th smallest base vertex plays
    target vertex i.  Pass ``order`` (a permutation of the base) to choose
    the correspondence explicitly: ``order[i]`` plays target vertex i.

    Raises :class:`NotAcyclic`, :class:`ArcIntoBase` (some arc enters the
    base from outside) or :class:`NotInduced` (the phylogeny graph on the
    base is not exactly the target; the lexicographically first offending
    edge is reported).
    """
    base_sorted = tuple(sorted(set(base)))
    if len(base_sorted) != target.n:
        raise ValueError(f"base has {len(base_sorted)} vertices, target has {target.n}")
    if order is None:
        order = base_sorted
    else:
        order = tuple(order)
        if sorted(order) != list(base_sorted):
            raise ValueError("order must be a permutation of the base set")
    for v in base_sorted:
        if not 0 <= v < digraph.n:
            raise ValueError(f"base vertex {v} not in the digraph")

    base_mask = _check_acyclic_and_base(digraph, base_sorted)
    to_target = {d: i for i, d in enumerate(order)}
    moral = _moral_masks(digraph)
    realized = []
    for d in order:
        row = 0
        for w in bits(moral[d] & base_mask):
            row |= 1 << to_target[w]
        realized.append(row)
    for u, (row, want) in enumerate(zip(realized, target.adj)):
        wrong = (row ^ want) >> (u + 1)
        if wrong:
            v = u + (wrong & -wrong).bit_length()
            raise NotInduced((u, v), missing=target.has_edge(u, v))
    return PhyloCertificate(digraph, order, digraph.n - target.n)


def cared_edges(digraph: Digraph, base: Iterable[int]) -> dict[Edge, frozenset[int]]:
    """Edges of the phylogeny graph on the base realized only by competition.

    For each base edge present in the competition graph but not the
    underlying graph, maps the edge (in digraph ids) to the full set of
    common out-neighbors that take care of it — base or extra alike.
    The acyclicity and no-arc-into-base conditions are re-checked here;
    induced equality is the caller's concern since no target is passed.
    """
    base_mask = _check_acyclic_and_base(digraph, base)
    out: dict[Edge, set[int]] = {}
    for w in range(digraph.n):
        preds = digraph.inn[w] & base_mask
        for u in bits(preds):
            plain = digraph.out[u] | digraph.inn[u]
            rest = preds >> (u + 1) << (u + 1)
            for v in bits(rest & ~plain):
                out.setdefault((u, v), set()).add(w)
    return {e: frozenset(carers) for e, carers in sorted(out.items())}


class Assembly:
    """A sink-normalised phylogeny digraph under construction.

    Base vertex ``w`` (0 <= w < n) has the base in-neighbourhood mask
    ``in_set[w]``; extra ``j`` is digraph vertex ``n + j``, a sink whose
    in-neighbourhood mask is ``extras[j]``.  Extras are numbered in
    creation order.  The solver, the reductions' lift and the witness
    constructions all assemble their certificates here.
    """

    def __init__(self, n: int):
        self.n = n
        self.in_set = [0] * n
        self.extras: list[int] = []

    def new_extra(self, members: int) -> int:
        self.extras.append(members)
        return len(self.extras) - 1

    def absorb(self, cert: PhyloCertificate, order: Sequence[int]) -> None:
        """Copy ``cert`` in, its target vertex ``i`` becoming base ``order[i]``.

        Its extras are appended in ascending digraph id.  Arcs leaving an
        extra are dropped: they realise no base edge.  No arc enters the
        base from outside a valid certificate, so every base in-neighbour
        maps.
        """
        inn = cert.digraph.inn
        to_base = {d: order[i] for i, d in enumerate(cert.base)}
        for d, v in to_base.items():
            for a in bits(inn[d]):
                self.in_set[v] |= 1 << to_base[a]
        for e in cert.extras:
            members = 0
            for a in bits(inn[e]):
                if a in to_base:
                    members |= 1 << to_base[a]
            self.new_extra(members)

    def relabelled(self, order: Sequence[int]) -> "Assembly":
        """A copy with base vertex ``i`` renamed ``order[i]``; extras keep their numbers."""

        def rename(mask: int) -> int:
            out = 0
            for a in bits(mask):
                out |= 1 << order[a]
            return out

        copy = Assembly(self.n)
        for i, members in enumerate(self.in_set):
            copy.in_set[order[i]] = rename(members)
        copy.extras = [rename(members) for members in self.extras]
        return copy

    def to_digraph(self) -> Digraph:
        return Digraph._from_inn((*self.in_set, *self.extras))

    def certificate(self, target: Graph) -> PhyloCertificate:
        """Validate the assembled digraph against ``target`` on base 0..n-1."""
        return validate_phylogeny_digraph(self.to_digraph(), range(self.n), target)


def check_nontriangle_edge_arcs(target: Graph, digraph: Digraph, base: Sequence[int]) -> None:
    """Check the two forced-arc properties on edges lying on no triangle.

    For a valid phylogeny digraph and a target edge xy on no triangle of
    the target: (a) if the arc (x, y) is present then x is the only base
    in-neighbor of y, and (b) any common out-neighbor of x and y is an
    extra vertex whose base in-neighbors are exactly {x, y}.  Violations
    raise :class:`ArcRuleViolated`, naming the first bad edge in sorted
    order; this is used as a structural audit on solver and construction
    output.
    """
    order = tuple(base)
    base_mask = 0
    for v in order:
        base_mask |= 1 << v
    adj = target.adj
    for gu, gv in target.sorted_edges():
        if adj[gu] & adj[gv]:
            continue
        x, y = order[gu], order[gv]
        for a, b in ((x, y), (y, x)):
            if digraph.has_arc(a, b):
                others = digraph.inn[b] & base_mask & ~(1 << a)
                if others:
                    raise ArcRuleViolated(
                        f"edge {gu}-{gv} lies on no triangle but head {b} has base "
                        f"in-neighbors beyond {a}"
                    )
        common = digraph.out[x] & digraph.out[y]
        for z in bits(common):
            if (base_mask >> z) & 1:
                raise ArcRuleViolated(
                    f"edge {gu}-{gv} lies on no triangle but is cared for by base vertex {z}"
                )
            others = digraph.inn[z] & base_mask & ~(1 << x) & ~(1 << y)
            if others:
                raise ArcRuleViolated(
                    f"caring vertex {z} of non-triangle edge {gu}-{gv} has further base in-neighbors"
                )


# ---------------------------------------------------------------------------
# DOT export.  Base vertices are drawn as circles, extras as boxes; cared
# base edges are added as dashed undirected decorations with their caring
# vertices in the label.  Vertices are emitted in ascending id order.


def graph_to_dot(graph: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(graph.n):
        lines.append(f"  {v} [label={v}];")
    for u, v in graph.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(digraph: Digraph, name: str = "D") -> str:
    lines = [f"digraph {name} {{"]
    for v in range(digraph.n):
        lines.append(f"  {v} [label={v}];")
    for t, h in digraph.sorted_arcs():
        lines.append(f"  {t} -> {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def certificate_to_dot(digraph: Digraph, base: Iterable[int], name: str = "D") -> str:
    base_set = set(base)
    cared = cared_edges(digraph, base_set)
    lines = [f"digraph {name} {{"]
    for v in range(digraph.n):
        shape = "circle" if v in base_set else "box"
        lines.append(f"  {v} [label={v}, shape={shape}];")
    for t, h in digraph.sorted_arcs():
        lines.append(f"  {t} -> {h};")
    for (u, v), carers in cared.items():
        who = ",".join(str(c) for c in sorted(carers))
        lines.append(
            f'  {u} -> {v} [dir=none, style=dashed, constraint=false, label="cared by {who}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
