"""CLI behavior: exit codes, JSON schemas, stream handling."""

import json
import os
import subprocess
import sys

import pytest

import balanced_coloring as bc
from balanced_coloring import graph6 as g6
from balanced_coloring import solver
from balanced_coloring.cli import main

from conftest import H6_EDGES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jline(out):
    return json.loads(out.strip().splitlines()[0])


class TestVerify:
    def test_k2_valid(self, capsys):
        code, out, _ = run(capsys, "verify", "complete", "2", "--coloring", "RB")
        assert code == 0
        data = jline(out)
        assert data["valid"] is True
        assert data["rb"] == 1 and data["rr"] == 0 and data["bb"] == 0

    def test_h6_edge_list(self, capsys, tmp_path):
        g = bc.Graph.from_edges(6, H6_EDGES)
        p = tmp_path / "h6.txt"
        p.write_text(g6.format_edge_list(g))
        code, out, _ = run(capsys, "verify", "--edges", str(p),
                           "--coloring", "BRBRRR", "--mode", "cnb")
        assert code == 0

    def test_c5_nb_invalid_reports_vertex(self, capsys):
        code, out, _ = run(capsys, "verify", "cycle", "5",
                           "--coloring", "RBRBR", "--mode", "nb")
        assert code == 1
        data = jline(out)
        assert data["valid"] is False
        assert isinstance(data["first_violation"], int)

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "complete", "2", "--coloring", "RBB")
        assert code == 2 and "error" in err

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "complete", "2",
                           "--coloring", "RB", "--format", "tsv")
        assert code == 0
        assert "valid\tTrue" in out


class TestSolve:
    def test_gp_unsat(self, capsys):
        code, out, _ = run(capsys, "solve", "gp", "10", "2", "--mode", "cnb")
        assert code == 1
        data = jline(out)
        assert data["status"] == "unsat" and data["witness"] is None

    def test_gp_sat_witness_reverifies(self, capsys):
        code, out, _ = run(capsys, "solve", "gp", "8", "3")
        assert code == 0
        data = jline(out)
        g = bc.gen_petersen(8, 3)
        assert bc.verify_cnb(g, bc.Coloring.from_text(data["witness"]))
        assert {"status", "witness", "nodes", "propagations", "millis"} <= set(data)
        # the printed witness round-trips through the verify command
        code2, out2, _ = run(capsys, "verify", "gp", "8", "3",
                             "--coloring", data["witness"], "--mode", "cnb")
        assert code2 == 0

    def test_budget_must_be_positive(self, capsys):
        code, _, err = run(capsys, "solve", "gp", "8", "3", "--budget-nodes", "0")
        assert code == 2

    def test_graph6_input(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(g6.encode(bc.complete(4)) + "\n")
        code, out, _ = run(capsys, "solve", "--input", str(p))
        assert code == 0 and jline(out)["status"] == "sat"

    def test_requires_one_source(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text("A_\n")
        code, _, err = run(capsys, "solve", "complete", "2", "--input", str(p))
        assert code == 2
        code, _, err = run(capsys, "solve")
        assert code == 2


class TestEnumerate:
    def test_k2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "complete", "2")
        assert code == 0
        data = jline(out)
        assert data["count"] == 2 and data["colorings"] == ["BR", "RB"]

    def test_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "prism", "4", "--cap", "3")
        data = jline(out)
        assert data["capped"] is True and data["count"] == 3
        assert code == 0

    @pytest.mark.parametrize("cap", [[], ["--cap", "20"]])
    def test_budget_cut_exits_3(self, capsys, monkeypatch, cap):
        monkeypatch.setattr(solver, "DEFAULT_MAX_NODES", 10)
        code, out, _ = run(capsys, "enumerate", "hypercube", "4", "--mode", "nb", *cap)
        data = jline(out)
        assert code == 3
        assert data["capped"] is True and 0 < data["count"] < 20


class TestCensus:
    def test_six_vertex_free_trees(self, capsys, tmp_path):
        # the six distinct tree shapes on six vertices, by hand
        trees = [
            bc.path(6),
            bc.star(5),
            bc.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]),
            bc.Graph.from_edges(6, H6_EDGES),
            bc.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]),
            bc.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
        ]
        p = tmp_path / "trees.g6"
        p.write_text("".join(g6.encode(t) + "\n" for t in trees))
        code, out, _ = run(capsys, "census", "--input", str(p))
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 6
        assert sum(1 for entry in lines if entry["status"] == "sat") == 1
        assert lines[3]["status"] == "sat"  # the double star

    def test_empty_input(self, capsys, tmp_path):
        p = tmp_path / "empty.g6"
        p.write_text("")
        code, out, _ = run(capsys, "census", "--input", str(p))
        assert code == 0 and out == ""

    def test_workers_preserve_order(self, capsys, tmp_path):
        graphs = [bc.complete(2), bc.star(4), bc.cycle(8), bc.complete(4)]
        p = tmp_path / "mix.g6"
        p.write_text("".join(g6.encode(g) + "\n" for g in graphs))
        code, out1, _ = run(capsys, "census", "--input", str(p), "--workers", "1")
        code, out2, _ = run(capsys, "census", "--input", str(p), "--workers", "2")
        s1 = [json.loads(l)["status"] for l in out1.strip().splitlines()]
        s2 = [json.loads(l)["status"] for l in out2.strip().splitlines()]
        assert s1 == s2 == ["sat", "unsat", "unsat", "sat"]

    def test_bad_worker_env_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BALANCED_COLORING_WORKERS", "abc")
        p = tmp_path / "one.g6"
        p.write_text(g6.encode(bc.complete(2)) + "\n")
        code, out, err = run(capsys, "census", "--input", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "BALANCED_COLORING_WORKERS" in err

    def test_workers_flag_overrides_bad_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BALANCED_COLORING_WORKERS", "abc")
        p = tmp_path / "one.g6"
        p.write_text(g6.encode(bc.complete(2)) + "\n")
        code, out, _ = run(capsys, "census", "--input", str(p), "--workers", "1")
        assert code == 0 and jline(out)["status"] == "sat"

    def test_bad_worker_env_leaves_solve_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("BALANCED_COLORING_WORKERS", "abc")
        code, out, _ = run(capsys, "solve", "complete", "2")
        assert code == 0 and jline(out)["status"] == "sat"

    def test_tsv(self, capsys, tmp_path):
        p = tmp_path / "one.g6"
        p.write_text(g6.encode(bc.complete(2)) + "\n")
        code, out, _ = run(capsys, "census", "--input", str(p), "--format", "tsv")
        fields = out.strip().split("\t")
        assert fields[0] == "sat" and fields[1] == "RB"


class TestFamily:
    def test_circulant_theorem_yes(self, capsys):
        code, out, _ = run(capsys, "family", "circulant", "12", "1,6")
        assert code == 0
        data = jline(out)
        assert data["verdict"] == "yes"
        assert data["provenance"] == "theorem"
        g = g6.decode(data["graph6"])
        assert bc.verify_cnb(g, bc.Coloring.from_text(data["witness"]))

    def test_wheel_no(self, capsys):
        code, out, _ = run(capsys, "family", "wheel", "5")
        assert code == 1
        assert jline(out)["verdict"] == "no"

    def test_unknown_falls_back_to_solver(self, capsys):
        code, out, _ = run(capsys, "family", "circulant", "16", "1,3,8")
        data = jline(out)
        assert data["provenance"] == "solver"
        assert data["verdict"] in ("yes", "no")
        if data["verdict"] == "yes":
            assert code == 0
            g = g6.decode(data["graph6"])
            assert bc.verify_cnb(g, bc.Coloring.from_text(data["witness"]))

    def test_unknown_bipartite_resolved_by_solver(self, capsys):
        # even-by-even complete bipartite graphs carry no cited criterion,
        # so the solver supplies the witness
        code, out, _ = run(capsys, "family", "complete-bipartite", "2", "2",
                           "--mode", "nb")
        assert code == 0
        data = jline(out)
        assert data["verdict"] == "yes" and data["provenance"] == "solver"
        g = g6.decode(data["graph6"])
        assert bc.verify_nb(g, bc.Coloring.from_text(data["witness"]))

    def test_empty_side_bipartite_is_edgeless(self, capsys):
        code, out, _ = run(capsys, "family", "complete-bipartite", "3", "0",
                           "--mode", "nb")
        assert code == 0
        data = jline(out)
        assert data["verdict"] == "yes" and data["theorem"] == "edgeless"
        assert data["provenance"] == "theorem" and data["witness"] == "BBB"

    def test_witness_round_trips_through_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "gp", "8", "3")
        data = jline(out)
        p = tmp_path / "w.g6"
        p.write_text(data["graph6"] + "\n")
        code2, out2, _ = run(capsys, "verify", "--input", str(p),
                             "--coloring", data["witness"], "--mode", data["mode"])
        assert code2 == 0

    def test_circulant_single_length_needs_no_comma(self, capsys):
        code, out, err = run(capsys, "family", "circulant", "12", "6")
        code_comma, out_comma, _ = run(capsys, "family", "circulant", "12", "6,")
        assert (code, err) == (0, "")
        assert out == out_comma and code == code_comma

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "nonesuch", "3")
        assert code == 2


class TestTree:
    def test_check_and_decompose_h6(self, capsys, tmp_path):
        g = bc.Graph.from_edges(6, H6_EDGES)
        p = tmp_path / "h6.g6"
        p.write_text(g6.encode(g) + "\n")
        code, out, _ = run(capsys, "tree", "check", "--input", str(p))
        assert code == 0 and jline(out)["cnbc_tree"] is True
        code, out, _ = run(capsys, "tree", "decompose", "--input", str(p))
        assert code == 0
        script = jline(out)["script"]
        assert len(script["steps"]) == 1

    def test_check_rejects_p6(self, capsys):
        code, out, _ = run(capsys, "tree", "check", "path", "6")
        assert code == 1 and jline(out)["cnbc_tree"] is False

    def test_non_tree_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tree", "check", "cycle", "4")
        assert code == 2

    def test_replay_round_trip(self, capsys, tmp_path):
        g = bc.Graph.from_edges(6, H6_EDGES)
        p = tmp_path / "h6.g6"
        p.write_text(g6.encode(g) + "\n")
        code, out, _ = run(capsys, "tree", "decompose", "--input", str(p))
        script = jline(out)["script"]
        sp = tmp_path / "script.json"
        sp.write_text(json.dumps(script))
        code, out, _ = run(capsys, "tree", "replay", "--script", str(sp))
        assert code == 0
        data = jline(out)
        assert g6.decode(data["graph6"]) == g
        assert bc.verify_cnb(g, bc.Coloring.from_text(data["coloring"]))

    def test_replay_requires_script(self, capsys):
        code, _, err = run(capsys, "tree", "replay")
        assert code == 2

    @pytest.mark.parametrize(
        "payload", [[], "x", {"base": [0, None], "steps": []}],
    )
    def test_replay_malformed_payload_is_usage_error(self, capsys, tmp_path, payload):
        sp = tmp_path / "script.json"
        sp.write_text(json.dumps(payload))
        code, out, err = run(capsys, "tree", "replay", "--script", str(sp))
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestBrokenPipe:
    def test_closed_stdout_exits_2_without_traceback(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(bc.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "balanced_coloring", "family", "gp", "8", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == b""
