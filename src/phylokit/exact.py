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
At the root it is a weak form of Opsut's bound k(G) >= min_v theta(N(v)).
Acyclicity is tested in constant time: every vertex keeps the mask of
the vertices it reaches along arcs, so a head h may take a new tail a
iff h does not reach a yet.

Inputs of at most ``LABELLING_CAP`` vertices are searched in their
canonical relabelling (:func:`generate.canonical_labeling`), so the
branch order refers to canonical ids and isomorphic inputs run the
identical search.  A canonically labelled input, such as every generator
graph, is searched as given.  The same labelling yields generators of
the automorphism group, carried onto the searched graph, and the search
prunes by them: a node keeps the generators that fix every move on its
path (they fix its in-sets and extras), and once a move has failed, a
later sibling in its orbit under them is skipped, since an automorphism
maps the failed subtree onto the sibling's and feasibility is invariant
under it.  Larger inputs are searched in their own ids with no
symmetries: canonical labelling has no budget, and past that size it
can cost more than the search.

Both prunings cut only subtrees without a solution, so the first
success in depth-first order, and every value and witness, stay as
without them.

Both searches branch on the lowest uncovered edge until the first child
of a budget's run fails; from then on each node branches on the
uncovered edge with the fewest live moves, the lowest on ties
(fail-first, Haralick and Elliott 1980), and an edge with none, a dead
edge, cuts the node.  The moves at a node are complete for whichever
uncovered edge it branches on, so values do not depend on the rule.
Orbit pruning skips a move only after a failure, so the switch falls at
the same node with and without it, and the pruned search still
assembles what the unpruned one does.

The phylogeny search has a node budget: one solver call may visit
``max_nodes`` search nodes over all its runs (``SEARCH_NODE_BUDGET`` by
default), and the next node raises :class:`BudgetExhausted`.  It counts
nodes, not seconds, so an input gets the same outcome on any host.
"""

from __future__ import annotations

import sys
import time
from typing import Sequence

from .derived import Assembly
from .errors import BudgetExhausted, CrossCheckFailed, Infeasible, TooLarge
from .generate import _labelling, _relabel
from .graphs import Graph, bits, connected_components
from .results import PhyloResult
from .structure import THETA_CAP_DEFAULT, EdgeCliqueTable, edge_clique_table, triangle_edges

__all__ = [
    "SEARCH_NODE_BUDGET",
    "phylogeny_number_exact",
    "oracle_phylogeny_number",
    "competition_number_exact",
]

ORACLE_VERTEX_CAP = 7
ORACLE_EXTRA_CAP = 3
# the nodes one phylogeny solver call may visit, 8 to 12 s at n = 16 on a
# 2-core host; and the largest input searched in its canonical labelling
SEARCH_NODE_BUDGET = 1_000_000
LABELLING_CAP = 12


class _HeadSearch:
    """Depth-first feasibility search over head assignments for a fixed budget.

    Branches on an uncovered edge uv of the graph it is given (the
    solvers give it the canonical relabelling of a small input): every
    candidate head h of uv (ascending id), extending h's in-set by the
    endpoints other than h, then a fresh extra per maximal clique
    containing uv, in the order of the graph's :class:`EdgeCliqueTable`.  Completeness: any valid
    assignment covers uv by some head's in-set or some extra's clique,
    so one of these moves leads towards it, whichever uncovered edge is
    chosen; replaying the assignment this way, edge by edge in any
    order, reaches it.

    Which edge: the lowest uncovered one until the first child of the
    run fails.  From then on it is the uncovered edge with the fewest
    live moves, the lowest on ties: head moves that pass the clique test
    and the cycle test, plus its cliques while extras remain.  The scan
    stops at the first edge with at most one, and an edge with none cuts
    the node, since both tests stay failed further down the branch.

    The two solvers differ only in the moves built here.  For the
    phylogeny number the head joins the clique it marries, so it must be
    u, v or a common neighbour (any other head fails the clique test) and
    its arcs realize edges too.  For the competition number arcs realize
    nothing: the head is a third vertex, adjacent or not, and stays
    outside the clique.

    Acyclicity is kept with reach masks: ``desc[v]`` is the set of
    vertices reachable from v along arcs.  A head move closes a cycle
    iff h already reaches one of its new tails, and adding the arcs
    a -> h extends the mask of every vertex reaching a tail by h and all
    h reaches.

    Every node first applies the sink bound.  Some base vertex v is a
    sink of the finished certificate, and since arcs only accumulate
    down a branch, v has no out-arc (``desc[v]`` is empty) at this
    node.  Each uncovered edge at v then lies in a fresh extra's clique
    through v or, when the head joins its clique, in v's own closed
    in-set (``slack`` = 1).  Two edges at v lie in a common clique iff
    their other ends are adjacent, so edges at v that pairwise share no
    clique need distinct cliques; when the clique table's greedy count
    of them (:meth:`EdgeCliqueTable.incompatible_count` on v's uncovered
    edges) exceeds the extras left plus ``slack`` for every such v, no
    completion exists and the node is cut.

    ``symmetries`` are automorphisms of the graph (``perm[v]`` is the
    image of v), usually generators of its group.  Each node carries
    those that fix every move on its path: a head move (h, add) when
    they fix h and map add onto itself, an extra when they map its
    clique onto itself.  They then fix the node's in-sets and extras.
    When a move fails, its orbit under them is recorded and a later
    sibling in that orbit is skipped: the automorphism mapping the
    failed move onto it maps the failed child state onto the sibling's,
    and feasibility within the budget is invariant under automorphisms.

    Both prunings skip only subtrees without a solution, so the first
    success in depth-first order, and every value and witness, are those
    of the unpruned search.  The fail-first switch falls at the same node
    with and without orbit pruning, since that skips a move only after a
    failure, and the edge then chosen depends on the node's state alone;
    so it keeps that equality too.

    ``nodes`` adds up every run's nodes, and ``max_nodes`` bounds that
    sum: the node past it raises :class:`BudgetExhausted`.
    """

    def __init__(self, graph: Graph, head_joins: bool, symmetries: Sequence[Sequence[int]] = ()):
        self.nodes = 0  # every run's nodes, added up
        self.n = n = graph.n
        self.table = table = edge_clique_table(graph)
        adj = graph.adj
        vertices = graph.vertex_mask()
        # per edge: (head, head bit, tails to add, head bit if it joins the
        # clique, the tails together with every vertex adjacent to all of
        # them, the move's orbit key: the tails plus the head bit shifted
        # past n); and per vertex, for the sink bound, the mask of its edges
        self.head_moves: list[list[tuple[int, int, int, int, int, int]]] = []
        self.incident_mask = incident_mask = [0] * n
        for i, (u, v) in enumerate(table.edges):
            incident_mask[u] |= 1 << i
            incident_mask[v] |= 1 << i
            bu, bv = 1 << u, 1 << v
            euv = bu | bv
            both = euv | (adj[u] & adj[v])
            moves = []
            for h in bits(both if head_joins else vertices & ~euv):
                hb = 1 << h
                if h == u:
                    add, fits = bv, bv | adj[v]
                elif h == v:
                    add, fits = bu, bu | adj[u]
                else:
                    add, fits = euv, both
                moves.append((h, hb, add, hb if head_joins else 0, fits, add | hb << n))
            self.head_moves.append(moves)
        self.slack = 1 if head_joins else 0
        # each symmetry acts on vertex masks and, through the copy shifted
        # past n, on the head bits of the move keys; it is kept with the
        # mask of the points it moves, as a mask outside that is fixed
        self.symmetries = tuple(_on_keys(perm, n) for perm in symmetries)

    def deepen(
        self,
        start: int,
        max_extras: int | None = None,
        deadline: float | None = None,
        max_nodes: int | None = None,
    ) -> int:
        """The least budget from ``start`` on at which the search succeeds.

        ``max_extras``, ``deadline`` (a ``time.monotonic`` instant) and
        ``max_nodes`` (on ``self.nodes``), the last two checked at every
        search node, abort with :class:`BudgetExhausted` instead of
        truncating.  One dedicated extra per edge always succeeds, so
        deepening past ``m`` is a bug.
        """
        budget = start
        while True:
            if max_extras is not None and budget > max_extras:
                raise BudgetExhausted(f"no certificate within {max_extras} extra vertices")
            if self.run(budget, deadline, max_nodes):
                return budget
            budget += 1
            if budget > len(self.table.edges):
                raise CrossCheckFailed("deepening exceeded the trivial upper bound")

    def run(self, budget: int, deadline: float | None = None, max_nodes: int | None = None) -> bool:
        """One depth-first pass at ``budget``; its state is ``self.assembly``.

        ``deadline`` and ``max_nodes`` are as for :meth:`deepen`.  The pass
        adds the nodes it visits to ``self.nodes``.
        """
        n = self.n
        all_covered = self.table.full
        pairs_mask = self.table.pairs_mask
        cliques_on = self.table.cliques_on
        head_moves = self.head_moves
        incompatible_count = self.table.incompatible_count
        incident_mask = self.incident_mask
        slack = self.slack
        monotonic = time.monotonic
        self.assembly = Assembly(n)
        in_mask = self.assembly.in_set
        extras = self.assembly.extras
        vertex_bit = [1 << v for v in range(n)]
        switched = False  # set once a child fails
        nodes = 0
        # the nodes this pass may visit, or as good as unbounded
        spare_nodes = sys.maxsize if max_nodes is None else max_nodes - self.nodes

        def most_constrained(remaining: int, desc: list[int]) -> int:
            # the uncovered edge with the fewest live moves (head moves that
            # pass the clique and cycle tests, and its cliques while extras
            # remain), the lowest on ties, or -1 when one has none; stops at
            # an edge with at most one.  h lies in fits and never reaches a
            # tail it has, so the tests read in_mask[h] and desc[h] & add
            spare = len(extras) < budget
            best = fewest = -1
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                ei = low.bit_length() - 1
                live = len(cliques_on[ei]) if spare else 0
                if best >= 0 and live >= fewest:
                    continue
                for h, _, add, _, fits, _ in head_moves[ei]:
                    if not (in_mask[h] & ~fits or desc[h] & add):
                        live += 1
                        if live == fewest:
                            break
                else:
                    if live <= 1:
                        return ei if live else -1
                    best, fewest = ei, live
            return best

        def some_sink_fits(remaining: int, desc: list[int]) -> bool:
            spare = budget - len(extras) + slack
            for v in range(n):
                if not desc[v] and incompatible_count(remaining & incident_mask[v]) <= spare:
                    return True
            return False

        def dfs(covered: int, desc: list[int], perms: tuple, last: int) -> bool:
            # perms fix every move on the path above this node, and last is
            # the key of the move that led here (0, fixed by all, at the root)
            nonlocal switched, nodes
            nodes += 1
            if nodes > spare_nodes:
                raise BudgetExhausted(f"search budget of {max_nodes} nodes exhausted")
            if deadline is not None and monotonic() > deadline:
                raise BudgetExhausted("time budget exhausted before the search finished")
            if covered == all_covered:
                return True
            remaining = all_covered & ~covered
            if not some_sink_fits(remaining, desc):
                return False
            if switched:
                ei = most_constrained(remaining, desc)
                if ei < 0:
                    return False
            else:
                ei = (remaining & -remaining).bit_length() - 1
            if perms:
                perms = tuple(pm for pm in perms if not last & pm[1] or _image(pm[0], last) == last)
            failed: set[int] = set()  # the orbits of failed moves' keys
            for h, hb, add, own, fits, key in head_moves[ei]:
                saved = in_mask[h]
                # saved | own is a clique already and add is one vertex or one
                # edge, so the union is a clique iff saved | own lies in fits
                if (saved | own) & ~fits:
                    continue
                new_tails = add & ~saved
                reach = desc[h]
                if reach & new_tails or key in failed:
                    continue
                # every vertex at or above a new tail now reaches h and below
                gain = hb | reach
                saved_desc = desc[:]
                for x in range(n):
                    if (desc[x] | vertex_bit[x]) & new_tails:
                        desc[x] |= gain
                in_mask[h] = saved | add
                if dfs(covered | pairs_mask(saved | add | own), desc, perms, key):
                    return True
                in_mask[h] = saved
                desc[:] = saved_desc
                switched = True
                if perms:
                    failed |= _orbit_of(key, perms)
            if len(extras) < budget:
                for clique, edge_mask in cliques_on[ei]:
                    if clique in failed:
                        continue
                    extras.append(clique)
                    if dfs(covered | edge_mask, desc, perms, clique):
                        return True
                    extras.pop()
                    switched = True
                    if perms:
                        failed |= _orbit_of(clique, perms)
            return False

        try:
            return dfs(0, [0] * n, self.symmetries, 0)
        finally:
            self.nodes += nodes


def _image(perm: Sequence[int], mask: int) -> int:
    """The image of a mask under a permutation, bit by bit."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _on_keys(perm: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    """A vertex permutation acting on move keys, and the key bits it moves."""
    doubled = (*perm, *(n + w for w in perm))
    moved = 0
    for x, y in enumerate(doubled):
        if x != y:
            moved |= 1 << x
    return doubled, moved


def _orbit_of(key: int, perms: tuple[tuple[tuple[int, ...], int], ...]) -> set[int]:
    """The orbit of a key under the group the permutations generate."""
    seen = {key}
    stack = [key]
    while stack:
        x = stack.pop()
        for perm, moved in perms:
            if x & moved:
                y = _image(perm, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def _canonical_form(graph: Graph) -> tuple[Graph, tuple[int, ...] | None, list[tuple[int, ...]]]:
    """The graph the solvers search, the order that maps it back, and its symmetries.

    That is the canonical relabelling of ``graph``, whose vertex ``i`` is
    ``order[i]`` of ``graph``, or ``graph`` itself and ``None`` when its
    canonical order is the identity.  The symmetries are the generators
    of Aut(``graph``) found by the same labelling, carried onto the
    searched graph: vertex ``i`` goes where ``order[i]`` goes.
    """
    order, generators = _labelling(graph)
    if order == tuple(range(graph.n)):
        return graph, None, list(generators)
    position = [0] * graph.n
    for new, old in enumerate(order):
        position[old] = new
    symmetries = [tuple(position[perm[old]] for old in order) for perm in generators]
    return _relabel(graph.adj, order), order, symmetries


def phylogeny_number_exact(
    graph: Graph,
    max_nodes: int = SEARCH_NODE_BUDGET,
    want_witness: bool = True,
    max_extras: int | None = None,
    deadline: float | None = None,
) -> PhyloResult:
    """Minimum number of extra vertices over all phylogeny digraphs.

    Iterative deepening on the extra count starting from zero guarantees
    minimality without any bound formula; the returned witness is the
    first optimal assignment in the documented branch order on the
    canonical relabelling (on the input itself past ``LABELLING_CAP``
    vertices), mapped back to the input's ids and validated against the
    input, so repeated runs give identical output.  ``max_nodes`` (search
    nodes over all budgets), ``max_extras`` and ``deadline`` (a
    ``time.monotonic`` instant) abort loudly with
    :class:`BudgetExhausted` instead of truncating.  The witness is
    always built and validated; ``want_witness=False``, which only the
    benchmark's reference builder passes, leaves it off the result.
    """
    if graph.n > LABELLING_CAP:
        searched, order, symmetries = graph, None, []
    else:
        searched, order, symmetries = _canonical_form(graph)
    search = _HeadSearch(searched, head_joins=True, symmetries=symmetries)
    value = search.deepen(0, max_extras, deadline, max_nodes)
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


def competition_number_exact(graph: Graph) -> int:
    """Fewest isolated vertices to add so the result is a competition graph.

    Connected triangle-free graphs take the classical closed form
    ``m - n + 2``; everything else runs the head-assignment search on the
    canonical relabelling, deepening from :func:`_competition_start`.
    The search branches fail-first once a run has backtracked (see
    :class:`_HeadSearch`): most of the work is in proving the budget
    k - 1 infeasible, where the most constrained edge fails soonest.
    """
    if graph.n > THETA_CAP_DEFAULT:
        raise TooLarge(f"competition solver capped at {THETA_CAP_DEFAULT} vertices (got {graph.n})")
    if graph.m == 0:
        return 0
    if not triangle_edges(graph) and len(connected_components(graph)) == 1:
        return graph.m - graph.n + 2
    searched, _, symmetries = _canonical_form(graph)
    search = _HeadSearch(searched, head_joins=False, symmetries=symmetries)
    return search.deepen(_competition_start(graph, search.table))


def _competition_start(graph: Graph, table: EdgeCliqueTable) -> int:
    """The budget the competition search deepens from.

    Opsut's bound ``theta_e - n + 2``, with theta_e read off ``table``,
    and at least 1 for a connected graph on two or more vertices: an
    acyclic digraph has a vertex without prey, which is isolated in its
    competition graph.
    """
    start = max(0, table.cover_number() - graph.n + 2)
    if graph.n >= 2 and len(connected_components(graph)) == 1:
        start = max(start, 1)
    return start
