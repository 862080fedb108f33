"""Command-line surface: reports, file handling, exit codes, determinism."""

from __future__ import annotations

import pytest

from lcsgame.cli import main
from lcsgame.graphs import read_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_writes_graph_file(self, capsys, tmp_path):
        out = tmp_path / "c5.g"
        code, text, _ = run(capsys, "generate", "cycle", "n=5", "--out", str(out))
        assert code == 0 and out.exists()
        assert read_graph(out).graph.n == 5

    def test_round_trip_identical(self, capsys, tmp_path):
        out = tmp_path / "k.g"
        run(capsys, "generate", "king_grid_2rows", "cols=4", "--out", str(out))
        first = out.read_text()
        doc = read_graph(out)
        from lcsgame.graphs import format_graph
        assert format_graph(doc.graph, roles=doc.roles, meta=doc.meta,
                            header=doc.header) == first

    def test_stdout_when_no_out(self, capsys):
        code, text, _ = run(capsys, "generate", "path", "n=3")
        assert code == 0 and "n 3" in text and "e 0 1" in text

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "cycle", "n=oops")
        assert code == 2
        assert err == "error: parameter n must be an integer, got 'oops'\n"

    def test_negative_seed_still_parses(self, capsys):
        code, text, _ = run(capsys, "generate", "gnm", "n=5", "m=6", "seed=-3")
        assert code == 0 and "n 5" in text

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "clique_chain", "d=1", "nchain=2")
        assert code == 2 and "error" in err

    def test_emit_tree(self, capsys, tmp_path):
        g = tmp_path / "sp.g"
        t = tmp_path / "sp.t"
        code, _, _ = run(capsys, "generate", "spider_matched", "k=3", "r=1",
                         "--out", str(g), "--emit-tree", str(t))
        assert code == 0 and t.read_text().startswith("q ")

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_emit_tree_rejected_before_any_output(self, capsys, tmp_path, to_file):
        g, t = tmp_path / "p.g", tmp_path / "p.t"
        argv = ["generate", "path", "n=5", "--emit-tree", str(t)]
        code, text, err = run(capsys, *argv, *(["--out", str(g)] if to_file else []))
        assert code == 2 and "--emit-tree only applies to spider families" in err
        assert text == "" and not g.exists() and not t.exists()


class TestSolve:
    def test_c5_report(self, capsys, tmp_path):
        f = tmp_path / "c5.g"
        run(capsys, "generate", "cycle", "n=5", "--out", str(f))
        code, text, _ = run(capsys, "solve", "--graph", str(f))
        assert code == 0 and "c_g = 2" in text

    def test_connected_variant(self, capsys, tmp_path):
        f = tmp_path / "k.g"
        run(capsys, "generate", "king_grid_2rows", "cols=4", "--out", str(f))
        code, text, _ = run(capsys, "solve", "--graph", str(f),
                            "--variant", "connected")
        assert code == 0 and text.startswith("c_g = ")

    def test_target_variant(self, capsys, tmp_path):
        f = tmp_path / "p4.g"
        xf = tmp_path / "x.txt"
        run(capsys, "generate", "path", "n=4", "--out", str(f))
        xf.write_text("0 3\n")
        code, text, _ = run(capsys, "solve", "--graph", str(f),
                            "--variant", f"target:{xf}")
        assert code == 0

    def test_pv_line_replayable(self, capsys, tmp_path):
        f = tmp_path / "c4.g"
        run(capsys, "generate", "cycle", "n=4", "--out", str(f))
        code, text, _ = run(capsys, "solve", "--graph", str(f), "--pv")
        assert code == 0 and "pv = v" in text

    def test_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "c10.g"
        run(capsys, "generate", "cycle", "n=10", "--out", str(f))
        code, _, err = run(capsys, "solve", "--graph", str(f),
                           "--max-states", "2")
        assert code == 3 and "budget" in err

    def test_no_pruning_flag(self, capsys, tmp_path):
        f = tmp_path / "c6.g"
        run(capsys, "generate", "cycle", "n=6", "--out", str(f))
        _, a, _ = run(capsys, "solve", "--graph", str(f))
        _, b, _ = run(capsys, "solve", "--graph", str(f), "--no-pruning")
        assert a.splitlines()[0] == b.splitlines()[0] == "c_g = 2"

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--graph", "/no/such/file.g")
        assert code == 2


class TestVerify:
    def test_alice_strategy(self, capsys, tmp_path):
        f = tmp_path / "k5.g"
        run(capsys, "generate", "king_grid_2rows", "cols=5", "--out", str(f))
        code, text, _ = run(capsys, "verify", "--graph", str(f),
                            "--alice", "king_mirror_alice")
        assert code == 0 and "guarantees at least 5" in text

    def test_bob_strategy(self, capsys, tmp_path):
        f = tmp_path / "cc.g"
        run(capsys, "generate", "clique_chain", "d=3", "nchain=2", "--out", str(f))
        code, text, _ = run(capsys, "verify", "--graph", str(f),
                            "--bob", "clique_chain_bob")
        assert code == 0 and "concedes at most" in text

    def test_time_limit_exit_3(self, capsys, tmp_path):
        # lowest-index Alice on C16 has more than 2048 adversary states
        f = tmp_path / "c16.g"
        run(capsys, "generate", "cycle", "n=16", "--out", str(f))
        code, _, err = run(capsys, "verify", "--graph", str(f),
                            "--alice", "lowest", "--time-limit", "0")
        assert code == 3 and "time limit" in err

    def test_unknown_strategy_exit_2(self, capsys, tmp_path):
        f = tmp_path / "p.g"
        run(capsys, "generate", "path", "n=4", "--out", str(f))
        code, _, err = run(capsys, "verify", "--graph", str(f),
                           "--alice", "wizardry")
        assert code == 2


class TestQgraphCommand:
    def test_spider_evaluation(self, capsys, tmp_path):
        g = tmp_path / "sp.g"
        t = tmp_path / "sp.t"
        run(capsys, "generate", "spider_matched", "k=4", "r=0",
            "--out", str(g), "--emit-tree", str(t))
        code, text, _ = run(capsys, "qgraph", "--graph", str(g),
                            "--tree", str(t))
        assert code == 0 and "tree valid" in text and "c_g = 3" in text

    def test_time_limit_exit_3(self, capsys, tmp_path):
        # the one-leaf tree makes an exact solve of C14: over 2048 states
        g = tmp_path / "c14.g"
        t = tmp_path / "c14.t"
        run(capsys, "generate", "cycle", "n=14", "--out", str(g))
        t.write_text("q 14\n(leaf " + " ".join(map(str, range(14))) + ")\n")
        code, text, err = run(capsys, "qgraph", "--graph", str(g),
                              "--tree", str(t), "--time-limit", "0")
        assert code == 3 and "tree valid" in text and "time limit" in err

    def test_invalid_tree_diagnosed(self, capsys, tmp_path):
        g = tmp_path / "p.g"
        t = tmp_path / "bad.t"
        run(capsys, "generate", "path", "n=3", "--out", str(g))
        t.write_text("q 4\n(leaf 0 1)\n")
        code, text, _ = run(capsys, "qgraph", "--graph", str(g),
                            "--tree", str(t))
        assert code == 2 and "tree invalid" in text

    @pytest.mark.parametrize("body", ["(", "(spider"])
    def test_truncated_tree_exit_2(self, capsys, tmp_path, body):
        g = tmp_path / "p.g"
        t = tmp_path / "cut.t"
        run(capsys, "generate", "path", "n=3", "--out", str(g))
        t.write_text(f"q 4\n{body}\n")
        code, _, err = run(capsys, "qgraph", "--graph", str(g), "--tree", str(t))
        assert code == 2 and "error: unexpected end of tree" in err


class TestReduceCommand:
    def test_bipartite_report(self, capsys, tmp_path):
        f = tmp_path / "phi.cnf"
        f.write_text("p poscnf 2 1\n1 2 0\n")
        code, text, _ = run(capsys, "reduce", "--kind", "bipartite",
                            "--in", str(f))
        assert code == 0 and "k = 3, |V| = 6" in text

    def test_split_with_output(self, capsys, tmp_path):
        f = tmp_path / "phi.cnf"
        out = tmp_path / "red.g"
        f.write_text("p poscnf 2 1\n1 2 0\n")
        code, text, _ = run(capsys, "reduce", "--kind", "split",
                            "--in", str(f), "--out", str(out))
        assert code == 0 and read_graph(out).graph.n == 4

    def test_planar_from_hex_file(self, capsys, tmp_path):
        f = tmp_path / "hex.g"
        f.write_text("n 4\ne 0 2\ne 2 3\ne 1 3\ns 0\nt 1\n")
        code, text, _ = run(capsys, "reduce", "--kind", "planar",
                            "--in", str(f))
        assert code == 0 and "k = 9, |V| = 58" in text

    def test_malformed_cnf_exit_2(self, capsys, tmp_path):
        f = tmp_path / "phi.cnf"
        f.write_text("p poscnf 2 1\n1 2\n")
        code, _, err = run(capsys, "reduce", "--kind", "split", "--in", str(f))
        assert code == 2

    def test_non_integer_count_exit_2_with_line(self, capsys, tmp_path):
        f = tmp_path / "phi.cnf"
        f.write_text("p poscnf x 1\n1 0\n")
        code, _, err = run(capsys, "reduce", "--kind", "split", "--in", str(f))
        assert code == 2 and "line 1: a problem-line count" in err


class TestBench:
    def test_single_fast_criterion(self, capsys):
        code, text, _ = run(capsys, "bench", "--suite", "desk",
                            "--criteria", "1,2")
        assert code == 0
        assert "[PASS] criterion  1" in text
        assert "2/2 criteria passed" in text

    def test_non_integer_criterion_exit_2(self, capsys):
        code, text, err = run(capsys, "bench", "--criteria", "1,x")
        assert code == 2 and "criteria passed" not in text
        assert err == "error: each --criteria entry must be an integer, got 'x'\n"

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "bench", "--suite", "mountain")
        assert code == 2

    @pytest.mark.parametrize("criteria", ["99", "0", "1,99"])
    def test_unknown_criterion_exit_2(self, capsys, criteria):
        # a mistyped number must not pass by checking nothing
        code, text, err = run(capsys, "bench", "--criteria", criteria)
        assert code == 2 and "criteria passed" not in text
        assert err.startswith("error: unknown criteria") and "1 to 12" in err


class TestParameterValidation:
    def test_missing_family_params_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "spider_matched")
        assert code == 2 and err.startswith("error: ") and "'k'" in err

    def test_skip_variant_parsing(self, capsys, tmp_path):
        f = tmp_path / "k2.g"
        xf = tmp_path / "x.txt"
        run(capsys, "generate", "complete", "n=2", "--out", str(f))
        xf.write_text("0 1\n")
        code, text, _ = run(capsys, "solve", "--graph", str(f),
                            "--variant", f"skip:1,1,target:{xf}")
        assert code == 0 and text.startswith("c_g = ")

    @pytest.mark.parametrize("vertex", ["7", "-1"])
    @pytest.mark.parametrize("command", [["solve"], ["verify", "--alice", "lowest"]])
    @pytest.mark.parametrize("spec", ["target:{}", "skip:1,1,target:{}"])
    def test_target_vertex_outside_graph_exit_2(self, capsys, tmp_path,
                                                vertex, command, spec):
        f = tmp_path / "p3.g"
        xf = tmp_path / "x.txt"
        run(capsys, "generate", "path", "n=3", "--out", str(f))
        xf.write_text(f"0 {vertex}\n")
        code, text, err = run(capsys, command[0], "--graph", str(f),
                              "--variant", spec.format(xf), *command[1:])
        assert code == 2 and text == ""
        # a sign is not part of a vertex field, so -1 fails as a field
        frag = {"7": "vertex 7 is not in the graph's range",
                "-1": "line 1: a vertex of {} must be a non-negative integer, "
                      "got '-1'"}[vertex]
        assert err.startswith("error: ") and frag.format(xf) in err

    @pytest.mark.parametrize("variant,frag", [
        ("target:{}", "line 2: a vertex of {} must be a non-negative integer, "
                      "got 'x'"),
        ("skip:1,z,target:{}", "a skip budget <a> or <b> must be a non-negative "
                               "integer, got 'z'"),
    ], ids=["target-file-token", "skip-budget"])
    def test_non_integer_variant_field_exit_2(self, capsys, tmp_path, variant, frag):
        f = tmp_path / "p3.g"
        xf = tmp_path / "x.txt"
        run(capsys, "generate", "path", "n=3", "--out", str(f))
        xf.write_text("0\n1 x\n")
        code, text, err = run(capsys, "solve", "--graph", str(f),
                              "--variant", variant.format(xf))
        assert code == 2 and text == "" and err == f"error: {frag.format(xf)}\n"

    def test_bad_variant_exit_2(self, capsys, tmp_path):
        f = tmp_path / "c.g"
        run(capsys, "generate", "cycle", "n=4", "--out", str(f))
        code, _, _ = run(capsys, "solve", "--graph", str(f),
                         "--variant", "quantum")
        assert code == 2

    def test_time_limit_flag(self, capsys, tmp_path):
        f = tmp_path / "c.g"
        run(capsys, "generate", "cycle", "n=6", "--out", str(f))
        code, text, _ = run(capsys, "solve", "--graph", str(f),
                            "--time-limit", "30")
        assert code == 0 and "c_g = 2" in text

    @pytest.mark.parametrize("budget", [["--max-states", "-5"],
                                        ["--time-limit", "-1"],
                                        ["--time-limit", "nan"]])
    @pytest.mark.parametrize("command", ["solve", "verify", "qgraph"])
    def test_negative_or_nan_budget_exit_2(self, capsys, tmp_path, budget, command):
        f = tmp_path / "p3.g"
        t = tmp_path / "p3.t"
        run(capsys, "generate", "path", "n=3", "--out", str(f))
        t.write_text("q 3\n(leaf 0 1 2)\n")
        extra = {"solve": [], "verify": ["--alice", "lowest"],
                 "qgraph": ["--tree", str(t)]}[command]
        code, text, err = run(capsys, command, "--graph", str(f), *extra, *budget)
        assert code == 2 and text == ""
        assert err.startswith("error: ") and "must be >= 0" in err

    def test_colon_parameterised_strategy(self, capsys, tmp_path):
        f = tmp_path / "p3.g"
        run(capsys, "generate", "path", "n=3", "--out", str(f))
        code, text, _ = run(capsys, "verify", "--graph", str(f),
                            "--alice", "first:1")
        assert code == 0 and "guarantees at least 2" in text

    def test_non_integer_first_vertex_exit_2(self, capsys, tmp_path):
        f = tmp_path / "p3.g"
        run(capsys, "generate", "path", "n=3", "--out", str(f))
        code, text, err = run(capsys, "verify", "--graph", str(f),
                              "--alice", "first:x")
        assert code == 2 and text == ""
        assert err == ("error: the vertex of first:<v> must be a non-negative "
                       "integer, got 'x'\n")

    def test_dot_export(self, capsys, tmp_path):
        g = tmp_path / "c4.g"
        d = tmp_path / "c4.dot"
        code, _, _ = run(capsys, "generate", "cycle", "n=4",
                         "--out", str(g), "--dot", str(d))
        assert code == 0
        body = d.read_text()
        assert body.startswith("graph g {") and "v0 -- v1;" in body


class TestReportStability:
    def test_reports_byte_identical_across_runs(self, capsys, tmp_path):
        f = tmp_path / "g.g"
        t = tmp_path / "g.t"
        run(capsys, "generate", "spider_matched", "k=3", "r=1",
            "--out", str(f), "--emit-tree", str(t))
        first_graph = f.read_text()
        outputs = []
        for _ in range(2):
            _, a, _ = run(capsys, "solve", "--graph", str(f), "--pv")
            _, b, _ = run(capsys, "qgraph", "--graph", str(f), "--tree", str(t))
            _, c, _ = run(capsys, "verify", "--graph", str(f),
                          "--alice", "spider_exhaust_alice")
            outputs.append((a, b, c))
        assert outputs[0] == outputs[1]
        run(capsys, "generate", "spider_matched", "k=3", "r=1",
            "--out", str(f))
        assert f.read_text() == first_graph


class TestExitCodes:
    """One test per exit path of ``main``: 0, 2, 3 and 4."""

    def _c5(self, capsys, tmp_path):
        f = tmp_path / "c5.g"
        run(capsys, "generate", "cycle", "n=5", "--out", str(f))
        return str(f)

    def test_success_exit_0(self, capsys, tmp_path):
        code, text, err = run(capsys, "solve", "--graph", self._c5(capsys, tmp_path))
        assert code == 0 and text.startswith("c_g = ") and err == ""

    def test_bad_input_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.g"
        f.write_text("n 3\ne 0 7\n")
        code, _, err = run(capsys, "solve", "--graph", str(f))
        assert code == 2 and err.startswith("error: ")

    def test_illegal_strategy_move_exit_2(self, capsys, tmp_path):
        # the mirror strategy answers across the board, which the Connected
        # variant forbids: the strategy does not apply, it is no bug
        f = tmp_path / "king5.g"
        run(capsys, "generate", "king_grid_2rows", "cols=5", "--out", str(f))
        code, _, err = run(capsys, "verify", "--graph", str(f),
                           "--alice", "king_mirror_alice", "--variant", "connected")
        assert code == 2 and err.startswith("error: ")
        assert "'king_mirror_alice' returned illegal move" in err

    def test_budget_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--graph", self._c5(capsys, tmp_path),
                           "--max-states", "1")
        assert code == 3 and err.startswith("budget exceeded: ")

    def test_internal_error_exit_4(self, capsys, tmp_path, monkeypatch):
        # a core that claims an impossible value leaves best_move with no
        # value-preserving move, which is a solver bug, not bad input
        from lcsgame.solver import _Core
        monkeypatch.setattr(_Core, "exact", lambda self, *pos: self.g.n + 1)
        code, _, err = run(capsys, "solve", "--graph", self._c5(capsys, tmp_path),
                           "--pv")
        assert code == 4 and err.startswith("internal error: ")
        assert "solver bug" in err

    def test_type_error_is_not_exit_2(self, capsys, monkeypatch):
        # a TypeError is a bug in lcsgame, not bad input: main lets it out
        import lcsgame.cli

        def broken(family, **params):
            raise TypeError("broken generator")

        monkeypatch.setattr(lcsgame.cli, "generate", broken)
        with pytest.raises(TypeError, match="broken generator"):
            main(["generate", "cycle", "n=5"])

    def test_failed_output_check_exit_4(self, capsys, tmp_path, monkeypatch):
        # a reduction whose own output check fails is an internal error
        import lcsgame.graphs
        monkeypatch.setattr(lcsgame.graphs, "diameter", lambda g: 5)
        f = tmp_path / "phi.cnf"
        f.write_text("p poscnf 2 1\n1 2 0\n")
        code, _, err = run(capsys, "reduce", "--kind", "bipartite", "--in", str(f))
        assert code == 4 and err.startswith("internal error: ")
        assert "bipartite of diameter <= 4" in err
