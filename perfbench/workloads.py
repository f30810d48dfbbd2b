"""The four workloads: inputs, one timed pass, and the check of a pass.

Every workload is a closed loop with one caller: an item starts only
after the previous one returned.  A pass runs every item of the workload
once; ``run.py`` repeats passes until the run's time is used.

``setup`` builds the inputs with phylokit and is what ``setup_s`` times.
``prepare`` derives the expected outputs from the stored reference
without phylokit, untimed.  ``run_pass`` resolves phylokit's entry points
at call time, so a traced pass goes through the tracer's wrappers.
``check`` sorts every item into ok, failed (by class) or wrong; a single
wrong item makes the whole run incorrect.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import reference as ref
from tracing import ERROR_CLASSES

SMALL_PER_N = 67  # 6 values of n, so 402 small graphs
CATALOG = tuple(ref.PAPER_FIGURES)


@dataclass
class Check:
    attempted: int
    ok: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    ok_latencies: dict[object, float] = field(default_factory=dict)  # item -> latency
    ok_results: int = 0  # what ok_per_s counts

    def fail(self, cls: str) -> None:
        self.failed[cls] = self.failed.get(cls, 0) + 1


def error_class(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in ERROR_CLASSES else "other"


def _timed_items(call, inputs) -> tuple[float, list[tuple[float, object]]]:
    """Run ``call`` on each input in turn; keep each latency and result or error."""
    items = []
    clock = time.perf_counter
    started = clock()
    for item in inputs:
        t0 = clock()
        try:
            result = call(item)
        except Exception as exc:  # counted by class as a failed item
            result = exc
        items.append((clock() - t0, result))
    return clock() - started, items


def seeded_order(items: list, seed: int) -> list:
    """``items`` in an order set by ``seed``, the same for every list of that length."""
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    return [items[i] for i in order]


class SweepN7:
    """``phylokit sweep --max-n 7``: native generation, then ``sweep_one``."""

    name = "sweep_n7"

    def setup(self, pk, seed: int):
        return None  # exhaustive: generation is part of the timed pass

    def prepare(self, pk, inputs, reference: dict, seed: int):
        self.table = reference["phylogeny_connected_upto7"]
        self.keys: dict[str, str] = {}
        return None

    def run_pass(self, pk, inputs):
        sweep = pk.sweep
        items = []
        clock = time.perf_counter
        started = last = clock()
        try:
            records = sweep.run_sweep(sweep.sweep_graphs(7), sweep.SweepOptions(), threads=1)
            for record in records:
                now = clock()
                items.append((now - last, record))
                last = now
        except Exception as exc:  # the sweep stops; the missing records are caught by check
            items.append((clock() - last, exc))
        return clock() - started, items

    def check(self, items, inputs, expected, pk) -> Check:
        out = Check(attempted=len(items))
        seen = set()
        for latency, record in items:
            if isinstance(record, Exception):
                out.fail(error_class(record))
                continue
            key = self.keys.get(record.graph_id)
            if key is None:
                key = self.keys[record.graph_id] = ref.canonical_key(ref.graph6_decode(record.graph_id))
            if key in seen or key not in self.table:
                out.wrong.append(f"sweep emitted {record.graph_id}, a duplicate or unknown graph")
                continue
            seen.add(key)
            if record.exact != self.table[key]:
                out.wrong.append(f"{record.graph_id}: exact {record.exact}, reference {self.table[key]}")
            elif not record.ok:
                failing = sorted(name for name, held in record.checks.items() if not held)
                out.wrong.append(f"{record.graph_id}: record checks fail: {', '.join(failing)}")
            else:
                out.ok += 1
                out.ok_results += 1
                out.ok_latencies[key] = latency
        if len(seen) != len(self.table):
            out.wrong.append(f"sweep covered {len(seen)} of {len(self.table)} graphs")
        return out


class ComputeMix:
    """``phylokit compute g --witness w`` on a seeded mix of graphs."""

    name = "compute_mix"

    def setup(self, pk, seed: int):
        reference = ref.load()  # the stored large graphs are inputs too
        graphs = [pk.Graph(n, edges) for n, edges in ref.small_labelled_graphs(seed, SMALL_PER_N)]
        for line, _ in reference["dense_labelled_n7"] + reference["large_k4free"]:
            graphs.append(pk.generate.graph6_decode(line))
        graphs.extend(pk.witness.figure_catalog(name) for name in CATALOG)
        return seeded_order(graphs, seed)  # spread each kind of graph over the pass

    def prepare(self, pk, graphs, reference: dict, seed: int):
        self.validate = pk.derived.validate_phylogeny_digraph  # the untraced binding
        table = reference["phylogeny_connected_upto7"]
        expected = []
        for n, edges in ref.small_labelled_graphs(seed, SMALL_PER_N):
            expected.append(ref.component_sum(table, ref.adjacency(n, edges)))
        for line, value in reference["dense_labelled_n7"]:
            if ref.component_sum(table, ref.graph6_decode(line)) != value:
                raise SystemExit(f"reference.json: stored value of {line} disagrees with the table")
            expected.append(value)
        expected.extend(value for _, value in reference["large_k4free"])
        expected.extend(reference["catalog"][name] for name in CATALOG)
        if len(expected) != len(graphs):
            raise SystemExit("compute_mix inputs and expectations differ in length")
        return seeded_order(expected, seed)

    def run_pass(self, pk, graphs):
        auto = pk.formulas.phylogeny_number_auto
        return _timed_items(lambda g: auto(g, want_witness=True), graphs)

    def check(self, items, graphs, expected, pk) -> Check:
        out = Check(attempted=len(items))
        validate = self.validate
        certificate_error = pk.errors.CertificateError
        for index, ((latency, result), g, value) in enumerate(zip(items, graphs, expected)):
            if isinstance(result, Exception):
                out.fail(error_class(result))
                continue
            if result.kind != "exact" or result.value != value:
                out.wrong.append(f"{g!r}: got {result.kind} {result.value}, reference {value}")
                continue
            witness = result.witness
            if witness is None:
                out.wrong.append(f"{g!r}: no witness returned")
                continue
            try:
                validate(witness.digraph, witness.base, g, order=witness.base)
            except certificate_error as exc:
                out.wrong.append(f"{g!r}: witness invalid ({exc.clause})")
                continue
            if witness.extra_count != result.value or witness.digraph.n - g.n != result.value:
                out.wrong.append(f"{g!r}: witness adds {witness.digraph.n - g.n}, value {result.value}")
                continue
            out.ok += 1
            out.ok_results += 1
            out.ok_latencies[index] = latency
        return out


class CompetitionN7:
    """``competition_number_exact`` on the 7-vertex connected graphs with a triangle."""

    name = "competition_n7"

    def setup(self, pk, seed: int):
        graphs = [g for g in pk.generate.connected_graphs(7) if pk.structure.triangle_edges(g)]
        return seeded_order(graphs, seed)

    def prepare(self, pk, graphs, reference: dict, seed: int):
        table = reference["competition_n7"]
        if len(graphs) != len(table):
            raise SystemExit(f"competition_n7 has {len(graphs)} inputs, reference {len(table)}")
        return [table[ref.canonical_key(list(g.adj))] for g in graphs]

    def run_pass(self, pk, graphs):
        return _timed_items(pk.exact.competition_number_exact, graphs)

    def check(self, items, graphs, expected, pk) -> Check:
        out = Check(attempted=len(items))
        for index, ((latency, result), g, want) in enumerate(zip(items, graphs, expected)):
            if isinstance(result, Exception):
                out.fail(error_class(result))
            elif result != want:
                out.wrong.append(f"{g!r}: competition number {result}, reference {want}")
            else:
                out.ok += 1
                out.ok_results += 1
                out.ok_latencies[index] = latency
        return out


class EnumerateN8:
    """``connected_graphs(8)``: one call, checked against the published count."""

    name = "enumerate_n8"

    def setup(self, pk, seed: int):
        return [8]

    def prepare(self, pk, inputs, reference: dict, seed: int):
        self.first_pass: list[str] | None = None
        return reference

    def run_pass(self, pk, inputs):
        return _timed_items(pk.generate.connected_graphs, inputs)

    def check(self, items, inputs, reference, pk) -> Check:
        out = Check(attempted=len(items))
        (latency, graphs), = items
        if isinstance(graphs, Exception):
            out.fail(error_class(graphs))
            return out
        want = reference["published_connected_counts"][7]
        adjs = [list(g.adj) for g in graphs]
        lines = [ref.graph6_encode(adj) for adj in adjs]
        if self.first_pass is None:
            problems = []
            if len(graphs) != want:
                problems.append(f"{len(graphs)} graphs, published count {want}")
            if any(len(adj) != 8 or len(ref.components(adj)) != 1 for adj in adjs):
                problems.append("a graph is not connected on 8 vertices")
            if len(set(lines)) != len(lines):
                problems.append("a graph is emitted twice")
            if ref.invariant_digest(adjs) != reference["connected_n8_invariant_digest"]:
                problems.append("refinement invariants differ from the reference")
            elif ref.isomorphic_pairs(adjs):
                problems.append("two graphs are isomorphic")
            if problems:
                out.wrong.extend(problems)
                return out
            self.first_pass = lines
        elif lines != self.first_pass:
            out.wrong.append("connected_graphs(8) changed between passes")
            return out
        out.ok += 1
        out.ok_results += len(graphs)
        out.ok_latencies[0] = latency
        return out


WORKLOADS = {w.name: w for w in (SweepN7, ComputeMix, CompetitionN7, EnumerateN8)}
