"""Exception hierarchy shared by all phylokit modules."""


class PhylokitError(Exception):
    """Base class for all phylokit errors."""


class ParseError(PhylokitError):
    """Malformed input: an edge list, a graph6 line or a command-line value.

    An edge list fails on bad counts, duplicates, loops or bad ids, and a
    command-line value when it lies outside its range.
    """


class CyclicDigraph(PhylokitError):
    """An operation that requires an acyclic digraph was given a cyclic one."""


class UnknownVertex(PhylokitError):
    """A vertex id outside the graph's vertex range."""


class UnknownName(PhylokitError):
    """A catalog name that is not recognised."""


class TooLarge(PhylokitError):
    """Input exceeds a size cap: an exact (exponential-time) routine's or the family's."""


class BudgetExhausted(TooLarge):
    """An exact search ran out of its extra-count or time budget.

    A :class:`TooLarge` that lifting a size cap cannot cure.
    """


class Infeasible(PhylokitError):
    """The brute-force oracle found no certificate within its budget."""


class NotTriangleFree(PhylokitError):
    """A triangle-free-only construction was given a graph with a triangle."""


class Disconnected(PhylokitError):
    """A connected-only operation was given a disconnected graph."""


class HypothesisViolated(PhylokitError):
    """The structural hypotheses of a bound or construction do not hold.

    Raised when a routine that requires a connected, K4-free graph with
    pairwise edge-disjoint diamonds is handed anything else.
    """


class CrossCheckFailed(PhylokitError):
    """An internal consistency check failed, so phylokit has a bug.

    Raised when two independent derivations of one number disagree, or
    when an invariant a construction or search relies on does not hold.

    A class rather than an ``assert``, which ``python -O`` removes.
    """


class ConditionViolated(PhylokitError):
    """A decomposition verifier rejected its parts.

    ``condition`` names the failed clause ("i", "ii", "iii", ...) and
    ``detail`` carries the offending cliques or parts.
    """

    def __init__(self, condition: str, message: str, detail=None):
        super().__init__(f"condition ({condition}) violated: {message}")
        self.condition = condition
        self.detail = detail


class CertificateError(PhylokitError):
    """A candidate phylogeny digraph failed validation.

    ``clause`` is a stable machine-readable token used by the CLI.
    """

    clause = "Invalid"


class NotAcyclic(CertificateError):
    clause = "NotAcyclic"


class ArcIntoBase(CertificateError):
    """An arc enters the base vertex set from outside it."""

    clause = "ArcIntoBase"

    def __init__(self, arc):
        super().__init__(f"arc {arc[0]}->{arc[1]} enters the base set from outside")
        self.arc = arc


class NotInduced(CertificateError):
    """The phylogeny graph restricted to the base differs from the target.

    ``edge`` is the first offending pair in lexicographic order and
    ``missing`` tells whether the edge is absent from the phylogeny graph
    (True) or spurious in it (False).
    """

    clause = "NotInduced"

    def __init__(self, edge, missing: bool):
        kind = "missing from" if missing else "spurious in"
        super().__init__(f"edge {edge[0]}-{edge[1]} is {kind} the phylogeny graph on the base")
        self.edge = edge
        self.missing = missing


class ArcRuleViolated(CertificateError):
    """A target edge on no triangle is realized against the forced-arc rules."""

    clause = "ArcRuleViolated"
