"""Command-line interface.

Subcommands: ``compute`` (value with optional witness file), ``verify``
(check a digraph certifies a graph), ``bounds``, ``census``, ``sweep``
(exhaustive small-graph verification), ``family`` (the p - k + 1 = l
graphs), ``catalog`` (worked examples) and ``export-dot``.

Exit codes: 0 success, 1 invalid certificate in ``verify`` or
``export-dot --kind certificate``, 2 unreadable or malformed input, an
option value out of range or an unwritable output path, 3 size cap or
search budget exceeded, 4 sweep found a disagreement.  Commands raise;
:func:`main` alone maps the exception to its exit code and a one-line
stderr message.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, TypeVar

from .derived import certificate_to_dot, digraph_to_dot, graph_to_dot, validate_phylogeny_digraph
from .errors import BudgetExhausted, CertificateError, ParseError, PhylokitError, TooLarge
from .exact import SOLVER_CAP_DEFAULT
from .formulas import (
    bounds_k4free,
    difference_family,
    lower_bound_clique_cover,
    phylogeny_number_auto,
)
from .generate import GENERATOR_CAP, graph6_decode, graph6_encode
from .graphs import (
    Graph,
    format_digraph,
    format_graph,
    parse_digraph,
    parse_graph,
)
from .structure import census_json
from .sweep import SweepOptions, run_sweep, sweep_graphs
from .witness import FIGURE_NAMES, figure_catalog

EXIT_OK = 0
EXIT_INVALID_CERTIFICATE = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_SWEEP_DISAGREEMENT = 4

T = TypeVar("T")


def _read(path: str, parse: Callable[[str], T]) -> T:
    return parse(Path(path).read_text())


def _at_least(value: int | None, least: int, flag: str) -> None:
    if value is not None and value < least:
        raise ParseError(f"{flag} must be at least {least}")


def cmd_compute(args: argparse.Namespace) -> int:
    _at_least(args.max_n, 0, "--max-n")
    _at_least(args.max_extras, 0, "--max-extras")
    _at_least(args.time_budget_ms, 0, "--time-budget-ms")
    graph = _read(args.file, parse_graph)
    cap = graph.n if args.force else args.max_n
    deadline = None
    if args.time_budget_ms is not None:
        deadline = time.monotonic() + args.time_budget_ms / 1000.0
    started = time.perf_counter()
    result = phylogeny_number_auto(
        graph,
        cap=cap,
        want_witness=args.witness is not None,
        max_extras=args.max_extras,
        deadline=deadline,
    )
    payload = result.to_json()
    payload["graph"] = {"n": graph.n, "m": graph.m}
    payload["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    if args.witness is not None:
        witness = result.witness
        text = format_digraph(
            witness.digraph,
            trailing=f"base 0..{graph.n - 1}",
        )
        Path(args.witness).write_text(text)
        payload["witness_file"] = args.witness
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    graph = _read(args.graph, parse_graph)
    digraph = _read(args.digraph, parse_digraph)
    if digraph.n < graph.n:
        print(
            f"NotInduced: digraph has {digraph.n} vertices, fewer than the graph's {graph.n}",
            file=sys.stderr,
        )
        return EXIT_INVALID_CERTIFICATE
    cert = validate_phylogeny_digraph(digraph, range(graph.n), graph)
    print(json.dumps({"valid": True, "extra_count": cert.extra_count}))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    _at_least(args.max_n, 0, "--max-n")
    graph = _read(args.file, parse_graph)
    payload: dict = {"graph": {"n": graph.n, "m": graph.m}}
    try:
        payload["clique_cover_lower"] = lower_bound_clique_cover(graph, cap=args.max_n).value
    except TooLarge:
        payload["clique_cover_lower"] = None
    try:
        outcome = bounds_k4free(graph)
        entry: dict = {"method": outcome.method}
        if outcome.kind == "exact":
            entry["exact"] = outcome.value
        else:
            entry["lower"] = outcome.lower
            entry["upper"] = outcome.upper
        payload["k4free_sandwich"] = entry
    except PhylokitError as exc:
        payload["k4free_sandwich"] = {"error": str(exc)}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    _at_least(args.max_n, 0, "--max-n")
    graph = _read(args.file, parse_graph)
    print(json.dumps(census_json(graph, theta_cap=args.max_n)))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _at_least(args.max_n, 1, "--max-n")
    _at_least(args.threads, 1, "--threads")
    most = os.cpu_count() or 1
    if args.threads > most:
        raise ParseError(f"--threads must be at most {most}")
    if args.max_n > GENERATOR_CAP and args.graph6 is None:
        raise ParseError(f"the native generator is capped at --max-n {GENERATOR_CAP}")
    lines = None
    if args.graph6 == "-":
        lines = sys.stdin.read().splitlines()
    elif args.graph6 is not None:
        lines = Path(args.graph6).read_text().splitlines()
    options = SweepOptions(
        only_k4free_diamond_scope=args.only_k4free_diamond_scope,
        with_oracle=args.with_oracle,
        solver_cap=max(args.max_n, SOLVER_CAP_DEFAULT),
    )
    graphs = list(sweep_graphs(args.max_n, lines))
    for record in run_sweep(graphs, options, threads=args.threads):
        print(json.dumps(record.to_json()))
        if not record.ok:
            bad = [name for name, ok in record.checks.items() if not ok]
            print(f"disagreement on {record.graph_id}: {', '.join(bad)}", file=sys.stderr)
            print(f"graph6: {record.graph_id}", file=sys.stderr)
            print(format_graph(graph6_decode(record.graph_id)), file=sys.stderr)
            return EXIT_SWEEP_DISAGREEMENT
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    _at_least(args.l, 0, "--l")
    graph, p_result, k = difference_family(args.l, verify_k=args.verify_k)
    payload = {
        "l": args.l,
        "n": graph.n,
        "m": graph.m,
        "p": p_result.value,
        "p_method": p_result.method,
        "k": k,
        "k_verified_exactly": bool(args.verify_k or args.l == 0),
        "identity": p_result.value - k + 1,
        "identity_ok": p_result.value - k + 1 == args.l,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"family_{args.l}.graph"
        path.write_text(format_graph(graph, comment=f"difference family member l={args.l}"))
        payload["file"] = str(path)
    print(json.dumps(payload))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    item = figure_catalog(args.name)
    if isinstance(item, Graph):
        text = format_graph(item, comment=f"catalog {args.name}")
        extra = {"kind": "graph", "n": item.n, "m": item.m, "graph6": graph6_encode(item)}
    else:
        digraph, base = item
        text = format_digraph(
            digraph,
            comment=f"catalog {args.name}",
            trailing=f"base 0..{len(base) - 1}",
        )
        extra = {"kind": "digraph", "n": digraph.n, "arcs": digraph.m}
    if args.out:
        Path(args.out).write_text(text)
        print(json.dumps({**extra, "file": args.out}))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    if args.kind == "graph":
        dot = graph_to_dot(_read(args.file, parse_graph))
    elif args.kind == "digraph":
        dot = digraph_to_dot(_read(args.file, parse_digraph))
    else:
        digraph = _read(args.file, parse_digraph)
        if args.base_size is None or not 0 <= args.base_size <= digraph.n:
            raise ParseError(f"--base-size in 0..{digraph.n} is required for kind=certificate")
        dot = certificate_to_dot(digraph, range(args.base_size))
    if args.out:
        Path(args.out).write_text(dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylokit",
        description="Phylogeny (moral) graphs and exact phylogeny numbers of small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the phylogeny number of an edge-list file")
    p.add_argument("file")
    p.add_argument("--witness", metavar="OUT", help="write a certifying digraph here")
    p.add_argument("--force", action="store_true", help="ignore the solver size cap")
    p.add_argument("--max-n", type=int, default=SOLVER_CAP_DEFAULT, help="solver size cap")
    p.add_argument("--max-extras", type=int, default=None, help="fail when the phylogeny number exceeds this")
    p.add_argument("--time-budget-ms", type=int, default=None, help="fail when the search exceeds this")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check that a digraph certifies a graph")
    p.add_argument("graph")
    p.add_argument("digraph")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="lower/upper bounds without full search")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=SOLVER_CAP_DEFAULT)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("census", help="triangle/diamond census as JSON")
    p.add_argument("file")
    p.add_argument("--max-n", type=int, default=SOLVER_CAP_DEFAULT)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("sweep", help="verify all claims over all small connected graphs")
    p.add_argument(
        "--max-n",
        type=int,
        required=True,
        help="largest vertex count to generate; with --graph6 it filters no lines "
        f"and only raises the solver cap above {SOLVER_CAP_DEFAULT}",
    )
    p.add_argument("--graph6", metavar="FILE", help="read graph6 lines from FILE ('-' = stdin)")
    p.add_argument(
        "--only-k4free-diamond-scope",
        action="store_true",
        help="restrict to K4-free graphs with pairwise edge-disjoint diamonds",
    )
    p.add_argument("--with-oracle", action="store_true", help="cross-check with the brute-force oracle")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("family", help="emit the graph with p - k + 1 = l")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--verify-k", action="store_true", help="recompute the competition number exactly")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("catalog", help="print a worked-example graph or digraph")
    p.add_argument("name", choices=list(FIGURE_NAMES))
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("export-dot", help="DOT rendering of a graph, digraph or certificate")
    p.add_argument("file")
    p.add_argument("out", nargs="?", default=None)
    p.add_argument("--kind", choices=["graph", "digraph", "certificate"], default="graph")
    p.add_argument("--base-size", type=int, default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an exception becomes an exit code.

    Argparse usage errors still exit 2 from inside ``parse_args``.
    """
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None:  # Python's stdout when fd 1 was closed at startup
            raise OSError(errno.EBADF, "standard output is closed")
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except CertificateError as exc:
        print(f"{exc.clause}: {exc}", file=sys.stderr)
        return EXIT_INVALID_CERTIFICATE
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # drop what stdout still buffers, or the exit-time flush fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    except TooLarge as exc:
        # --force lifts the solver's size cap, not a search budget
        size_cap = args.command == "compute" and not isinstance(exc, BudgetExhausted)
        hint = " (pass --force to search anyway)" if size_cap else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
