"""Exact solvers: phylogeny number, its brute-force oracle, competition number.

A phylogeny digraph with all extra vertices normalized to sinks is fully
described by in-neighborhoods: each base vertex w takes a set M(w) of
base in-neighbors with M(w) + w a clique of the target, each extra takes
one clique.  An edge is realized iff it lies inside some M(w) + w or
inside an extra's clique, and the member->head relation on base vertices
must be acyclic.  The solver searches those assignments directly,
deepening on the number of extras, so the first success is minimal.

The search prunes with a base-sink bound: the base arcs of a finished
certificate form a DAG, so some vertex still without out-arcs ends as a
sink, and a sink's edges lie only in cliques through it (the extras'
and, for the phylogeny number, its own closed in-set).  A node where no
such vertex can cover its uncovered edges with the extras left is cut.
Only subtrees without a solution are cut, so the first success in
depth-first order, and every value and witness, stay as without the
bound.  At the root it is a weak form of Opsut's bound
k(G) >= min_v theta(N(v)).

Both exact solvers search the canonical relabelling of their input
(:func:`generate.canonical_labeling`), so the branch order refers to
canonical ids and isomorphic inputs run the identical search.  A
canonically labelled input, such as every generator graph, is searched
as given.
"""

from __future__ import annotations

import time

from .derived import Assembly
from .errors import BudgetExhausted, CrossCheckFailed, Infeasible, TooLarge
from .generate import _relabel, canonical_labeling
from .graphs import Graph, bits, connected_components
from .results import PhyloResult
from .structure import edge_clique_table, triangle_edges

__all__ = [
    "SOLVER_CAP_DEFAULT",
    "phylogeny_number_exact",
    "oracle_phylogeny_number",
    "competition_number_exact",
]

SOLVER_CAP_DEFAULT = 12
ORACLE_VERTEX_CAP = 7
ORACLE_EXTRA_CAP = 3


class _HeadSearch:
    """Depth-first feasibility search over head assignments for a fixed budget.

    Branches on the lexicographically smallest uncovered edge uv of the
    graph it is given (the solvers give it a canonical one): every
    candidate head h of uv (ascending id), extending h's in-set by the
    endpoints other than h, then a fresh extra per maximal clique
    containing uv, in the order of the graph's :class:`EdgeCliqueTable`.
    Completeness: any valid assignment can be replayed through these
    moves edge by edge.

    The two solvers differ only in the moves built here.  For the
    phylogeny number the head joins the clique it marries, so it must be
    u, v or a common neighbour (any other head fails the clique test) and
    its arcs realize edges too.  For the competition number arcs realize
    nothing: the head is a third vertex, adjacent or not, and stays
    outside the clique.

    Every node first applies the sink bound (:meth:`_some_sink_fits`).
    Some base vertex v is a sink of the finished certificate, and since
    arcs only accumulate down a branch, v has no out-arc at this node.
    Each uncovered edge at v then lies in a fresh extra's clique through
    v or, when the head joins its clique, in v's own closed in-set
    (``slack`` = 1).  Uncovered neighbours of v that are pairwise
    non-adjacent need distinct cliques, so when a greedy count of them
    exceeds the extras left plus ``slack`` for every such v, no
    completion exists and the node is cut.  Only subtrees without a
    solution are cut, so the first success is the one found without the
    bound.
    """

    def __init__(self, graph: Graph, head_joins: bool):
        self.graph = graph
        self.n = graph.n
        self.table = table = edge_clique_table(graph)
        self.all_covered = table.full
        self.pairs_mask = table.pairs_mask
        self.cliques_on = table.cliques_on
        adj = graph.adj
        # per edge: (head, head bit, tails to add, head bit if it joins the
        # clique, the tails together with every vertex adjacent to all of them)
        self.head_moves: list[list[tuple[int, int, int, int, int]]] = []
        for u, v in table.edges:
            euv = (1 << u) | (1 << v)
            if head_joins:
                heads = euv | (adj[u] & adj[v])
            else:
                heads = graph.vertex_mask() & ~euv
            moves = []
            for h in bits(heads):
                add = euv & ~(1 << h)
                common = graph.vertex_mask()
                for a in bits(add):
                    common &= adj[a]
                moves.append((h, 1 << h, add, (1 << h) if head_joins else 0, add | common))
            self.head_moves.append(moves)
        # for the sink bound: per vertex, its edges as (edge bit, other end),
        # and the clique a sink's own closed in-set adds when heads join
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(table.edges):
            self.incident[u].append((1 << i, v))
            self.incident[v].append((1 << i, u))
        self.slack = 1 if head_joins else 0

    def reaches(self, start: int, targets: int) -> bool:
        """True iff some target vertex is reachable from start along arcs."""
        out_mask = self.out_mask
        seen = 0
        frontier = out_mask[start]
        while frontier:
            if frontier & targets:
                return True
            seen |= frontier
            nxt = 0
            for a in bits(frontier):
                nxt |= out_mask[a]
            frontier = nxt & ~seen
        return False

    def deepen(self, start: int, max_extras: int | None = None, deadline: float | None = None) -> int:
        """The least budget from ``start`` on at which the search succeeds.

        ``max_extras`` and ``deadline`` (a ``time.monotonic`` instant,
        checked at every search node) abort with :class:`BudgetExhausted`
        instead of truncating.  One dedicated extra per edge always
        succeeds, so deepening past ``m`` is a bug.
        """
        budget = start
        self.deadline = deadline
        while True:
            if max_extras is not None and budget > max_extras:
                raise BudgetExhausted(f"no certificate within {max_extras} extra vertices")
            if self.run(budget):
                return budget
            budget += 1
            if budget > self.graph.m:
                raise CrossCheckFailed("deepening exceeded the trivial upper bound")

    def run(self, budget: int) -> bool:
        # the search state is the assembly of the certificate it finds
        self.assembly = Assembly(self.n)
        self.in_mask = self.assembly.in_set
        self.extras = self.assembly.extras
        self.out_mask = [0] * self.n
        self.budget = budget
        return self._dfs(0)

    def _dfs(self, covered: int) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted before the search finished")
        if covered == self.all_covered:
            return True
        remaining = self.all_covered & ~covered
        if not self._some_sink_fits(remaining):
            return False
        ei = (remaining & -remaining).bit_length() - 1
        in_mask = self.in_mask
        out_mask = self.out_mask
        for h, hb, add, own, fits in self.head_moves[ei]:
            saved = in_mask[h]
            new_tails = add & ~saved
            # saved | own is a clique already and add is one vertex or one
            # edge, so the union is a clique iff saved | own lies in fits
            if (saved | own) & ~fits:
                continue
            if self.reaches(h, new_tails):
                continue
            closed = saved | add | own
            in_mask[h] = saved | add
            for a in bits(new_tails):
                out_mask[a] |= hb
            if self._dfs(covered | self.pairs_mask(closed)):
                return True
            in_mask[h] = saved
            for a in bits(new_tails):
                out_mask[a] &= ~hb
        if len(self.extras) < self.budget:
            for vertex_mask, edge_mask in self.cliques_on[ei]:
                self.extras.append(vertex_mask)
                if self._dfs(covered | edge_mask):
                    return True
                self.extras.pop()
        return False

    def _some_sink_fits(self, remaining: int) -> bool:
        """False when no vertex without out-arcs can end as a sink.

        The greedy count of a vertex's uncovered, pairwise non-adjacent
        neighbours must fit in the extras left plus ``slack``.
        """
        spare = self.budget - len(self.extras) + self.slack
        adj = self.graph.adj
        out_mask = self.out_mask
        for v in range(self.n):
            if out_mask[v]:
                continue
            picked = 0
            count = 0
            for eb, w in self.incident[v]:
                if remaining & eb and not adj[w] & picked:
                    picked |= 1 << w
                    count += 1
                    if count > spare:
                        break
            else:
                return True
        return False


def _canonical_form(graph: Graph) -> tuple[Graph, tuple[int, ...] | None]:
    """The graph the solvers search, and the order that maps it back.

    That is the canonical relabelling of ``graph``, whose vertex ``i`` is
    ``order[i]`` of ``graph``, or ``graph`` itself and ``None`` when its
    canonical order is the identity.
    """
    order = canonical_labeling(graph)
    if order == tuple(range(graph.n)):
        return graph, None
    return _relabel(graph, order), order


def phylogeny_number_exact(
    graph: Graph,
    cap: int = SOLVER_CAP_DEFAULT,
    want_witness: bool = True,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    """Minimum number of extra vertices over all phylogeny digraphs.

    Iterative deepening on the extra count starting from zero guarantees
    minimality without any bound formula; the returned witness is the
    first optimal assignment in the documented branch order on the
    canonical relabelling, mapped back to the input's ids and validated
    against the input, so repeated runs give identical output.
    ``max_extras`` and ``deadline`` (a ``time.monotonic`` instant) abort
    loudly instead of truncating.
    """
    if graph.n > cap:
        raise TooLarge(f"exact solver capped at {cap} vertices (got {graph.n})")
    searched, order = _canonical_form(graph)
    search = _HeadSearch(searched, head_joins=True)
    value = search.deepen(0, max_extras, deadline)
    assembly = search.assembly if order is None else search.assembly.relabelled(order)
    witness = assembly.certificate(graph)
    if witness.extra_count != value:
        raise CrossCheckFailed(f"solver found {value} extras, witness has {witness.extra_count}")
    return PhyloResult(
        kind="exact",
        method="solver",
        value=value,
        witness=witness if want_witness else None,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle.  Deliberately dumber than the solver: it enumerates
# every per-vertex in-neighborhood assignment (each base vertex tries every
# clique inside its open neighborhood, empty included, acyclicity checked
# as arcs appear) and then covers whatever edges are left with at most
# r extra cliques, trying *all* cliques, not only maximal ones.  None of
# the solver's reductions (minimal extensions, maximal extras) are used.


def _all_clique_masks(graph: Graph) -> list[int]:
    out = []
    for mask in range(1, 1 << graph.n):
        if mask.bit_count() >= 2 and graph.is_clique(mask):
            out.append(mask)
    return out


def oracle_phylogeny_number(graph: Graph, r_max: int = ORACLE_EXTRA_CAP) -> int:
    """Exhaustive reference value for tiny graphs, or raise Infeasible.

    Returns the least r <= r_max admitting a valid certificate; raises
    :class:`Infeasible` when none exists within the budget, never a
    silently wrong number.
    """
    if graph.n > ORACLE_VERTEX_CAP:
        raise TooLarge(f"oracle capped at {ORACLE_VERTEX_CAP} vertices (got {graph.n})")
    if not 0 <= r_max <= ORACLE_EXTRA_CAP:
        raise TooLarge(f"oracle extra budget capped at {ORACLE_EXTRA_CAP} (got {r_max})")
    n = graph.n
    edge_list = graph.sorted_edges()
    if not edge_list:
        return 0
    edge_index = {e: i for i, e in enumerate(edge_list)}
    all_covered = (1 << len(edge_list)) - 1

    def pairs_mask(vertex_mask: int) -> int:
        acc = 0
        members = list(bits(vertex_mask))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                idx = edge_index.get((a, b))
                if idx is not None:
                    acc |= 1 << idx
        return acc

    # per-vertex candidates: (in-neighborhood mask, covered-pairs mask)
    candidates: list[list[tuple[int, int]]] = []
    for w in range(n):
        nb = graph.adj[w]
        subs = []
        sub = nb
        while True:
            if graph.is_clique(sub):
                subs.append((sub, pairs_mask(sub | (1 << w))))
            if sub == 0:
                break
            sub = (sub - 1) & nb
        subs.sort(key=lambda pair: (-pair[0].bit_count(), pair[0]))
        candidates.append(subs)

    # the last vertex id that could still realize each edge as a head
    last_head = []
    for u, v in edge_list:
        heads = (1 << u) | (1 << v) | (graph.adj[u] & graph.adj[v])
        last_head.append(heads.bit_length() - 1)

    clique_masks = _all_clique_masks(graph)
    cover_options: list[list[int]] = [[] for _ in edge_list]
    for cmask in clique_masks:
        pm = pairs_mask(cmask)
        for i, (u, v) in enumerate(edge_list):
            if (cmask >> u) & 1 and (cmask >> v) & 1:
                cover_options[i].append(pm)
    for options in cover_options:
        options.sort(key=lambda m: (-m.bit_count(), m))

    def extras_needed_at_least(edge_mask: int) -> int:
        """Greedy count of leftover edges pairwise in no common clique."""
        chosen_masks: list[int] = []
        for i in bits(edge_mask):
            u, v = edge_list[i]
            em = (1 << u) | (1 << v)
            if all(not graph.is_clique(em | other) for other in chosen_masks):
                chosen_masks.append(em)
        return len(chosen_masks)

    def cover_with_extras(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if budget == 0:
            return False
        ei = (uncovered & -uncovered).bit_length() - 1
        for pm in cover_options[ei]:
            if cover_with_extras(uncovered & ~pm, budget - 1):
                return True
        return False

    out_mask = [0] * n

    def feasible(r: int) -> bool:
        def dfs(w: int, covered: int) -> bool:
            if w == n:
                return cover_with_extras(all_covered & ~covered, r)
            dead = [i for i in bits(all_covered & ~covered) if last_head[i] < w]
            if len(dead) > r:
                acc = 0
                for i in dead:
                    acc |= 1 << i
                if extras_needed_at_least(acc) > r:
                    return False
            wb = 1 << w
            for m, pm in candidates[w]:
                seen = 0
                frontier = out_mask[w]
                hit = False
                while frontier:
                    if frontier & m:
                        hit = True
                        break
                    seen |= frontier
                    nxt = 0
                    for a in bits(frontier):
                        nxt |= out_mask[a]
                    frontier = nxt & ~seen
                if hit:
                    continue
                for a in bits(m):
                    out_mask[a] |= wb
                if dfs(w + 1, covered | pm):
                    return True
                for a in bits(m):
                    out_mask[a] &= ~wb
            return False

        return dfs(0, 0)

    for r in range(r_max + 1):
        if feasible(r):
            return r
    raise Infeasible(f"no certificate with at most {r_max} extra vertices")


# ---------------------------------------------------------------------------
# Competition number: the same search with the head outside the clique.


def competition_number_exact(graph: Graph, cap: int = SOLVER_CAP_DEFAULT) -> int:
    """Fewest isolated vertices to add so the result is a competition graph.

    Connected triangle-free graphs take the classical closed form
    ``m - n + 2``; everything else runs the head-assignment search on the
    canonical relabelling, deepening from the clique-cover bound
    ``theta_e - n + 2`` (and from 1 for any connected graph on two or
    more vertices), with theta_e read off the search's own clique table.
    """
    if graph.n > cap:
        raise TooLarge(f"competition solver capped at {cap} vertices (got {graph.n})")
    if graph.m == 0:
        return 0
    connected = len(connected_components(graph)) == 1
    if connected and not triangle_edges(graph):
        return graph.m - graph.n + 2
    search = _HeadSearch(_canonical_form(graph)[0], head_joins=False)
    start = max(0, search.table.cover_number() - graph.n + 2)
    if connected and graph.n >= 2:
        start = max(start, 1)
    return search.deepen(start)
