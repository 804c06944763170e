"""End-to-end CLI checks: every subcommand exercised in-process via main()."""

import json

import pytest

from treepack import cli
from treepack.cli import EXIT_CHECK_FAILED, EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from treepack.graphs import (
    complete_graph,
    disjoint_union,
    cycle_graph,
    parse_edge_list,
    to_edge_list,
)
from treepack.randgen import Counterexample, TheoremReport


def write_graph(tmp_path, g, name="g.el"):
    path = tmp_path / name
    path.write_text(to_edge_list(g))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_k5_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(5))
        code, out = run(capsys, ["analyze", path])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["sigma"] == 2
        assert doc["kappa_prime"] == 4
        assert doc["lambda2"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["degree"] == 4
        assert doc["certificate_valid"] is True
        assert doc["spanning_trees"] == 125
        k2 = doc["theorems"]["k2"]
        assert k2["consistent"] is True

    def test_disconnected_graph(self, tmp_path, capsys):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        code, out = run(capsys, ["analyze", write_graph(tmp_path, g)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["sigma"] == 0
        assert doc["kappa_prime"] == 0
        assert doc["spanning_trees"] == 0

    def test_json_sidecar_round_trips_exactly(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(4))
        sidecar = tmp_path / "report.json"
        code, out = run(capsys, ["analyze", path, "--json", str(sidecar)])
        assert code == EXIT_OK
        text = sidecar.read_text()
        assert out == text
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["analyze", "/nonexistent/graph.el"])
        assert code == EXIT_USAGE

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text("3 2\n0 1\n0 two\n")
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "line 3" in err

    @pytest.mark.parametrize("text", ["3 3\n0 1\n0 1\n1 2\n", "3 2\n0 1\n1 0\n"])
    def test_duplicate_edge_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "dup.el"
        path.write_text(text)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "line 3: duplicate edge" in captured.err
        assert captured.out == ""


class TestConstruct:
    def test_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "g4.el"
        code, out = run(capsys, ["construct", "Gd", "--d", "4", "-o", str(out_path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 15 and doc["m"] == 30
        code2, out2 = run(capsys, ["analyze", str(out_path)])
        assert code2 == EXIT_OK
        doc2 = json.loads(out2)
        assert doc2["sigma"] == 1
        assert doc2["kappa_prime"] == 2
        assert doc2["lambda2"] == pytest.approx(3.569, abs=1e-3)

    def test_d_out_of_range(self, tmp_path, capsys):
        code, _ = run(capsys, ["construct", "Gd", "--d", "3",
                               "-o", str(tmp_path / "x.el")])
        assert code == EXIT_USAGE

    def test_unknown_family_rejected(self, tmp_path, capsys):
        code, _ = run(capsys, ["construct", "Zd", "--d", "4",
                               "-o", str(tmp_path / "x.el")])
        assert code == EXIT_USAGE


class TestVerifyFamily:
    def test_gd_range_passes(self, capsys):
        code, out = run(capsys, ["verify-family", "Gd", "--d-min", "4", "--d-max", "6"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert [r["d"] for r in doc["reports"]] == [4, 5, 6]

    def test_exact_range_flag(self, capsys):
        code, out = run(capsys, ["verify-family", "Hd", "--d-min", "6", "--d-max", "6",
                                 "--exact-range"])
        assert code == EXIT_OK
        assert json.loads(out)["all_passed"] is True


class TestHunt:
    def test_clean_pass(self, tmp_path, capsys):
        code, out = run(capsys, ["hunt", "--d", "6", "--n", "14", "--k", "2",
                                 "--trials", "10", "--seed", "1",
                                 "--out", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["counterexamples"] == []

    def test_k4_no_finding_exit(self, tmp_path, capsys):
        code, out = run(capsys, ["hunt", "--d", "8", "--n", "18", "--k", "4",
                                 "--trials", "5", "--seed", "2",
                                 "--out", str(tmp_path)])
        doc = json.loads(out)
        assert doc["verdict"] in ("no finding", "finding")
        assert code in (EXIT_OK, 3)

    def test_round_trip_output(self, tmp_path, capsys):
        _, out = run(capsys, ["hunt", "--d", "6", "--n", "14", "--k", "2",
                              "--trials", "5", "--out", str(tmp_path)])
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_finding_written_into_new_directory(self, tmp_path, capsys, monkeypatch):
        g = complete_graph(5)
        hit = Counterexample(graph=g, d=4, n=5, k=4, lambda2=-1.0, sigma=2, seed=7)

        def fake_check(d, n, k, trials, seed):
            return TheoremReport(d=d, n=n, k=k, trials=trials, seed=seed,
                                 premise_only=1, counterexamples=(hit,))

        monkeypatch.setattr(cli, "theorem_check", fake_check)
        out_dir = tmp_path / "not" / "yet"
        code, out = run(capsys, ["hunt", "--d", "4", "--n", "5", "--k", "4",
                                 "--trials", "1", "--out", str(out_dir)])
        assert code == EXIT_FINDING
        assert json.loads(out)["verdict"] == "finding"
        stem = out_dir / "counterexample-d4-n5-k4-seed7"
        assert parse_edge_list(stem.with_suffix(".el").read_text()) == g
        assert json.loads(stem.with_suffix(".json").read_text())["sigma"] == 2

    def test_out_path_that_is_a_file_fails_before_compute(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_compute(*args):
            raise AssertionError("theorem_check ran despite a bad --out")

        monkeypatch.setattr(cli, "theorem_check", no_compute)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for target in (blocker, blocker / "sub"):
            code = main(["hunt", "--d", "6", "--n", "14", "--k", "2",
                         "--trials", "1", "--out", str(target)])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert "not a writable directory" in captured.err
            assert captured.out == ""


class TestQuotient:
    def test_gd_natural_partition(self, tmp_path, capsys):
        g_path = tmp_path / "g4.el"
        main(["construct", "Gd", "--d", "4", "-o", str(g_path)])
        capsys.readouterr()
        part = tmp_path / "blocks.txt"
        part.write_text("0 1 2 3 4\n5 6 7 8 9\n10 11 12 13 14\n")
        code, out = run(capsys, ["quotient", str(g_path), str(part)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["t"] == 3
        assert doc["equitable"] is False
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert doc["matrix"][i][j] == "1/5"
        assert doc["interlacing"]["ok"] is True

    def test_bad_partition_file(self, tmp_path, capsys):
        g_path = write_graph(tmp_path, complete_graph(4))
        part = tmp_path / "blocks.txt"
        part.write_text("0 1\n2 x\n")
        code = main(["quotient", g_path, str(part)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_partition_must_cover(self, tmp_path, capsys):
        g_path = write_graph(tmp_path, complete_graph(4))
        part = tmp_path / "blocks.txt"
        part.write_text("0 1\n")
        code, _ = run(capsys, ["quotient", g_path, str(part)])
        assert code == EXIT_USAGE


class TestTopLevel:
    def test_no_args_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_check_failure_exit_code_is_distinct(self):
        assert EXIT_CHECK_FAILED == 2
