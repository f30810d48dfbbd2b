"""The command-line interface end to end."""

import io
import json
import os
import subprocess
import sys

import pytest

from phylokit.cli import main
from phylokit.derived import digraph_to_dot, graph_to_dot
from phylokit.formulas import FAMILY_CAP
from phylokit.generate import GENERATOR_CAP, graph6_decode
from phylokit.graphs import Graph, format_graph, cycle_graph, parse_digraph, parse_graph
from phylokit.witness import figure_catalog
from conftest import diamond_necklace


def write_catalog(tmp_path, name):
    path = tmp_path / f"{name}.graph"
    assert main(["catalog", name, "--out", str(path)]) == 0
    return path


class TestCompute:
    def test_grid_value(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig2_G")
        capsys.readouterr()
        assert main(["compute", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exact" and payload["value"] == 2
        assert payload["method"] == "formula:triangle-free"
        assert payload["graph"] == {"n": 6, "m": 7}

    def test_complete_graph(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["compute", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0

    def test_hub_graph_via_bounds_equality(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig3_G1")
        capsys.readouterr()
        assert main(["compute", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 4
        assert "lower-equality" in payload["method"]

    def test_witness_roundtrips_through_verify(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig1_G")
        witness = tmp_path / "fig1.wit"
        assert main(["compute", str(path), "--witness", str(witness)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), str(witness)]) == 0
        assert json.loads(capsys.readouterr().out)["extra_count"] == 1

    @pytest.mark.parametrize("k", [4, 8])
    def test_diamond_necklace_witness_without_search(self, tmp_path, capsys, k):
        path = tmp_path / "necklace.graph"
        path.write_text(format_graph(diamond_necklace(k)))
        witness = tmp_path / "necklace.wit"
        assert main(["compute", str(path), "--force", "--witness", str(witness)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == k - 1
        assert main(["verify", str(path), str(witness)]) == 0

    def test_size_cap_exit(self, tmp_path, capsys):
        # a 13-cycle with a K4 chorded in stays irreducible and defeats
        # every closed form, so only the (capped) search remains
        g = Graph(13, list(cycle_graph(13).edges) + [(0, 2), (0, 3), (1, 3)])
        path = tmp_path / "chorded13.graph"
        path.write_text(format_graph(g))
        assert main(["compute", str(path)]) == 3
        capsys.readouterr()
        assert main(["compute", str(path), "--force"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "exact"

    def test_parse_error_exit(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 9\n0 1\n")
        assert main(["compute", str(path)]) == 2

    def test_unwritable_witness_exit(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig1_G")
        assert main(["compute", str(path), "--witness", str(tmp_path / "no_such_dir" / "w")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_binary_input_exit(self, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["compute", str(path)]) == 2

    def test_extras_cap_fails_loudly(self, tmp_path, capsys):
        # the octahedron defeats every closed form and needs one extra, so
        # only the search can answer and a cap of zero must abort loudly
        edges = [
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if {a, b} not in ({0, 1}, {2, 3}, {4, 5})
        ]
        path = tmp_path / "octahedron.graph"
        path.write_text(format_graph(Graph(6, edges)))
        assert main(["compute", str(path), "--max-extras", "0"]) == 3
        assert "0 extra" in capsys.readouterr().err
        assert main(["compute", str(path), "--max-extras", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1

    @pytest.mark.parametrize("witness", [False, True])
    def test_extras_cap_below_a_closed_form_value(self, tmp_path, capsys, witness):
        # DNw has p = 1 by formula:two-triangles-sharing-edge; whether the
        # value exceeds --max-extras does not depend on --witness
        path = tmp_path / "dnw.graph"
        path.write_text(format_graph(graph6_decode("DNw")))
        argv = ["compute", str(path), "--max-extras", "0"]
        if witness:
            argv += ["--witness", str(tmp_path / "dnw.wit")]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: no certificate within 0 extra vertices\n"

    def test_closed_form_witness_past_the_cap(self, tmp_path, capsys):
        # the triangle 012, the path 0-3-4-5-6-1 and the cycle
        # 2-7-8-9-10-11-12-2: p = 1 by formula:one-triangle, and no clause
        # of the sandwich [1, 2] fires, so only the search gives a witness
        g = Graph(13, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                       (2, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 2)])
        path = tmp_path / "kernel13.graph"
        path.write_text(format_graph(g))
        witness = tmp_path / "kernel13.wit"
        assert main(["compute", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1 and payload["method"] == "formula:one-triangle"
        assert main(["compute", str(path), "--witness", str(witness)]) == 3
        assert capsys.readouterr().err == (
            "error: exact solver capped at 12 vertices (got 13) (pass --force to search anyway)\n"
        )
        assert main(["compute", str(path), "--force", "--witness", str(witness)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1
        assert main(["verify", str(path), str(witness)]) == 0
        assert json.loads(capsys.readouterr().out)["extra_count"] == 1

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig4_G2")
        capsys.readouterr()
        main(["compute", str(path)])
        first = json.loads(capsys.readouterr().out)
        main(["compute", str(path)])
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second


class TestVerify:
    def test_catalog_pair(self, tmp_path):
        g = write_catalog(tmp_path, "fig1_G")
        d = write_catalog(tmp_path, "fig1_D")
        assert main(["verify", str(g), str(d)]) == 0

    def test_cycle_rejected(self, tmp_path, capsys):
        g = write_catalog(tmp_path, "fig1_G")
        digraph, _ = figure_catalog("fig1_D")
        arcs = set(digraph.arcs)
        arcs.remove((0, 1))
        arcs.add((1, 0))
        arcs.add((2, 0))  # 0->2 exists, so 2->0 closes a directed cycle
        bad = tmp_path / "bad.digraph"
        bad.write_text("7 8\n" + "".join(f"{t} {h}\n" for t, h in sorted(arcs)))
        assert main(["verify", str(g), str(bad)]) == 1
        assert "NotAcyclic" in capsys.readouterr().err

    def test_missing_edges_rejected(self, tmp_path, capsys):
        g = write_catalog(tmp_path, "fig1_G")
        empty = tmp_path / "empty.digraph"
        empty.write_text("6 0\n")
        assert main(["verify", str(g), str(empty)]) == 1
        assert "NotInduced" in capsys.readouterr().err


class TestReports:
    def test_census(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig3_G2")
        capsys.readouterr()
        assert main(["census", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == 3 and payload["d"] == 1
        assert payload["theta_e"] == 9 - 2 * 3 + 1
        assert len(payload["gminus_components"]) == 6

    def test_bounds(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig3_G2")
        capsys.readouterr()
        assert main(["bounds", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k4free_sandwich"]["exact"] == 0

    def test_bounds_interval(self, tmp_path, capsys):
        # the house: a triangle sharing an edge with a four-cycle; neither sandwich end is exact
        path = tmp_path / "interval.graph"
        path.write_text("5 6\n0 1\n0 2\n1 2\n0 3\n3 4\n1 4\n")
        assert main(["bounds", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k4free_sandwich"] == {"method": "k4free-bounds", "lower": 0, "upper": 1}

    def test_theta_e_past_the_cap_is_null(self, tmp_path, capsys):
        # C13 has one vertex more than the default cap on the clique cover
        path = tmp_path / "c13.graph"
        path.write_text(format_graph(cycle_graph(13)))
        assert main(["census", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["theta_e"] is None
        assert main(["bounds", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clique_cover_lower"] is None
        assert payload["k4free_sandwich"] == {"method": "k4free-bounds:both-equalities", "exact": 1}

    def test_bounds_out_of_scope(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["bounds", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload["k4free_sandwich"]


class TestSweep:
    def test_small_sweep_clean(self, capsys):
        assert main(["sweep", "--max-n", "4", "--with-oracle"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 1 + 2 + 6
        assert all(json.loads(line)["ok"] for line in lines)

    def test_graph6_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\nC]\n"))
        assert main(["sweep", "--max-n", "4", "--graph6", "-"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [r["n"] for r in records] == [4, 4] and all(r["ok"] for r in records)

    def test_graph6_ingestion(self, tmp_path, capsys):
        stream = tmp_path / "graphs.g6"
        stream.write_text("C~\nC]\n")
        assert main(["sweep", "--max-n", "4", "--graph6", str(stream)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_empty_graph_sweep_clean(self, tmp_path, capsys):
        stream = tmp_path / "empty.g6"
        stream.write_text("?\n")
        assert main(["sweep", "--max-n", "3", "--graph6", str(stream)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["clique_cover_bound"] == 0 and record["ok"]

    def test_too_large_graph6_exit(self, tmp_path, capsys, monkeypatch):
        # canonical labelling has no budget, so the solver's cap must fire first
        import phylokit.sweep as sweep_module

        def refuse(graph):
            raise AssertionError("canonical_graph6 called before the size cap")

        monkeypatch.setattr(sweep_module, "canonical_graph6", refuse)
        stream = tmp_path / "c13.g6"
        stream.write_text("LhCGGC@?G?_@_@\n")
        assert main(["sweep", "--max-n", "6", "--graph6", str(stream)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_graph6_file_exit(self, tmp_path, capsys):
        missing = tmp_path / "no_such.g6"
        assert main(["sweep", "--max-n", "3", "--graph6", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_scoped_sweep(self, capsys):
        assert main(["sweep", "--max-n", "4", "--only-k4free-diamond-scope"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert all(not r["has_k4"] for r in records)

    def test_parallel_sweep_preserves_order(self, capsys):
        assert main(["sweep", "--max-n", "4", "--threads", "2"]) == 0
        parallel = [json.loads(l)["id"] for l in capsys.readouterr().out.strip().splitlines()]
        assert main(["sweep", "--max-n", "4", "--threads", "1"]) == 0
        sequential = [json.loads(l)["id"] for l in capsys.readouterr().out.strip().splitlines()]
        assert parallel == sequential

    def test_disagreement_exits_four(self, capsys, monkeypatch):
        import phylokit.cli as cli_module
        from phylokit.sweep import SweepRecord

        def fake_run_sweep(graphs, options, threads=None):
            yield SweepRecord({"id": "C~", "n": 4, "m": 6, "exact": 0}, {"witness_valid": False})

        monkeypatch.setattr(cli_module, "run_sweep", fake_run_sweep)
        assert main(["sweep", "--max-n", "4"]) == 4
        err = capsys.readouterr().err
        assert "witness_valid" in err and "C~" in err


class TestFamilyCommand:
    def test_l1(self, tmp_path, capsys):
        assert main(["family", "--l", "1", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 1 and payload["k"] == 1 and payload["identity_ok"]
        emitted = parse_graph((tmp_path / "family_1.graph").read_text())
        assert emitted.n == 6

    def test_l0(self, capsys):
        assert main(["family", "--l", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identity"] == 0 and payload["k_verified_exactly"]

    def test_every_l_up_to_the_cap(self, capsys):
        for l in range(FAMILY_CAP + 1):
            assert main(["family", "--l", str(l)]) == 0
            assert json.loads(capsys.readouterr().out)["identity_ok"]

    def test_cap(self, capsys):
        assert main(["family", "--l", "99"]) == 3

    def test_verify_k_past_the_solver_cap_exit(self, capsys):
        assert main(["family", "--l", "4", "--verify-k"]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_out_below_regular_file_exit(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["family", "--l", "1", "--out", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCatalogAndDot:
    def test_catalog_to_stdout(self, capsys):
        assert main(["catalog", "fig2_G"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[-8] == "6 7"

    def test_catalog_digraph_has_base_comment(self, capsys):
        assert main(["catalog", "fig1_D"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("# base 0..5")
        parse_digraph(out)

    def test_export_graph_dot(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig2_G")
        out = tmp_path / "g.dot"
        assert main(["export-dot", str(path), str(out)]) == 0
        assert out.read_text().startswith("graph G {")

    def test_export_dot_to_stdout(self, tmp_path, capsys):
        path = write_catalog(tmp_path, "fig2_G")
        capsys.readouterr()
        assert main(["export-dot", str(path)]) == 0
        assert capsys.readouterr().out == graph_to_dot(figure_catalog("fig2_G"))

    def test_export_digraph_dot(self, tmp_path, capsys):
        d = write_catalog(tmp_path, "fig1_D")
        capsys.readouterr()
        out = tmp_path / "d.dot"
        assert main(["export-dot", str(d), str(out), "--kind", "digraph"]) == 0
        assert out.read_text() == digraph_to_dot(figure_catalog("fig1_D")[0])
        assert capsys.readouterr().out == ""

    def test_export_certificate_dot(self, tmp_path):
        d = write_catalog(tmp_path, "fig1_D")
        out = tmp_path / "d.dot"
        assert (
            main(
                ["export-dot", str(d), str(out), "--kind", "certificate", "--base-size", "6"]
            )
            == 0
        )
        assert "shape=box" in out.read_text()

    @pytest.mark.parametrize(
        "text, base_size, clause",
        [("3 3\n0 1\n1 2\n2 0\n", "3", "NotAcyclic"), ("3 1\n2 0\n", "2", "ArcIntoBase")],
    )
    def test_export_invalid_certificate_exits_one(self, tmp_path, capsys, text, base_size, clause):
        path = tmp_path / "bad.digraph"
        path.write_text(text)
        args = ["export-dot", str(path), "--kind", "certificate", "--base-size", base_size]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{clause}: ") and captured.out == ""

    @pytest.mark.parametrize("base_size", ["9", "-2", None])
    def test_export_base_size_out_of_range_exits_two(self, tmp_path, capsys, base_size):
        path = tmp_path / "p3.digraph"
        path.write_text("3 2\n0 1\n1 2\n")
        flag = [] if base_size is None else [f"--base-size={base_size}"]
        assert main(["export-dot", str(path), "--kind", "certificate", *flag]) == 2
        assert capsys.readouterr().err == "error: --base-size in 0..3 is required for kind=certificate\n"


class TestExitPaths:
    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["compute", "{missing}"], 2, "error: "),
            (["verify", "{missing}", "{digraph}"], 2, "error: "),
            (["verify", "{graph}", "{missing}"], 2, "error: "),
            (["bounds", "{missing}"], 2, "error: "),
            (["census", "{missing}"], 2, "error: "),
            (["export-dot", "{missing}"], 2, "error: "),
            (["verify", "{graph}", "{small}"], 1, "NotInduced: "),
            (["sweep", "--max-n", "6", "--graph6", "{bad_g6}"], 2, "error: invalid graph6"),
            (["sweep", "--max-n", "9"], 2, f"error: the native generator is capped at --max-n {GENERATOR_CAP}\n"),
            (["catalog", "fig2_G", "--out", "{unwritable}"], 2, "error: "),
            (["export-dot", "{graph}", "{unwritable}"], 2, "error: "),
            (["sweep", "--max-n", "0"], 2, "error: --max-n must be at least 1\n"),
            (["sweep", "--max-n", "-3"], 2, "error: --max-n must be at least 1\n"),
            (["sweep", "--max-n", "3", "--threads", "0"], 2, "error: --threads must be at least 1\n"),
            (["sweep", "--max-n", "3", "--threads", "-2"], 2, "error: --threads must be at least 1\n"),
            (["compute", "{graph}", "--max-n", "-1"], 2, "error: --max-n must be at least 0\n"),
            (["compute", "{graph}", "--max-extras", "-1"], 2, "error: --max-extras must be at least 0\n"),
            (
                ["compute", "{graph}", "--time-budget-ms", "-5"],
                2,
                "error: --time-budget-ms must be at least 0\n",
            ),
            (["bounds", "{graph}", "--max-n", "-1"], 2, "error: --max-n must be at least 0\n"),
            (["census", "{graph}", "--max-n", "-1"], 2, "error: --max-n must be at least 0\n"),
            # only the size cap takes the --force hint; a search budget does not
            (
                ["compute", "{s6}", "--max-n", "3"],
                3,
                "error: exact solver capped at 3 vertices (got 6) (pass --force to search anyway)\n",
            ),
            (["compute", "{s6}", "--max-extras", "0"], 3, "error: no certificate within 0 extra vertices\n"),
            (
                ["compute", "{s6}", "--max-extras", "0", "--force"],
                3,
                "error: no certificate within 0 extra vertices\n",
            ),
            (
                ["compute", "{s6}", "--time-budget-ms", "0", "--force"],
                3,
                "error: time budget exhausted before the search finished\n",
            ),
            (["family", "--l", "-1"], 2, "error: --l must be at least 0\n"),
            # an edge-list file where graph6 lines are expected
            (["sweep", "--max-n", "3", "--graph6", "{edge_list}"], 2, "error: invalid graph6 character '0'\n"),
        ],
    )
    def test_exit_code_and_stderr(self, tmp_path, capsys, argv, code, prefix):
        paths = {
            "missing": tmp_path / "no_such.graph",
            "graph": write_catalog(tmp_path, "fig1_G"),
            "digraph": write_catalog(tmp_path, "fig1_D"),
            "small": tmp_path / "small.digraph",
            "bad_g6": tmp_path / "bad.g6",
            "unwritable": tmp_path / "no_such_dir" / "out",
            "s6": tmp_path / "s6.graph",
            "edge_list": tmp_path / "edges.g6",
        }
        paths["small"].write_text("3 0\n")
        # p = 1, and no closed form or sandwich gives it, so only the search does
        paths["s6"].write_text("6 10\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n3 5\n4 5\n")
        paths["bad_g6"].write_text("C~\nC!\n")
        paths["edge_list"].write_text("0 0\n")
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix) and captured.out == ""

    def test_threads_above_cpu_count(self, monkeypatch, capsys):
        # a wrong bound fails here instead of starting the workers
        import multiprocessing

        import phylokit.cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("sweep started before checking --threads")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(cli_module, "sweep_graphs", refuse)
        assert main(["sweep", "--max-n", "3", "--threads", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --threads must be at most 2\n" and captured.out == ""


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "c4.graph"
        path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "phylokit.cli", "compute", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 1

    def test_closed_stdout_exits_two(self):
        # buffered stdout, so the write fails at main's flush, not at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "phylokit.cli", "catalog", "fig2_G"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["catalog", "fig2_G"], ["compute", "{graph}"]])
    def test_closed_fd1_exits_two(self, tmp_path, argv):
        # with fd 1 closed at startup Python's sys.stdout is None
        graph = write_catalog(tmp_path, "fig2_G")
        proc = subprocess.run(
            [sys.executable, "-m", "phylokit.cli", *(a.format(graph=graph) for a in argv)],
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
