"""End-to-end CLI checks: every subcommand exercised in-process via main()."""

import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from builders import add_edges, cycle_graph, disjoint_union

from treepack import cli, packing, randgen
from treepack.cli import EXIT_CHECK_FAILED, EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from treepack.connectivity import edge_connectivity
from treepack.families import FAMILY_MAX_DEGREE, build_Gd, build_Hd
from treepack.graphs import (
    Graph,
    complete_graph,
    crossing_edges,
    make_graph,
    parse_edge_list,
    partition,
    petersen_graph,
    singleton_partition,
    to_edge_list,
)
from treepack.packing import PackResult, pack_trees
from treepack.randgen import (
    Counterexample,
    GenConfig,
    TheoremReport,
    random_regular,
    theorem_threshold,
)

ROOT = Path(__file__).resolve().parents[1]


def write_graph(tmp_path, g, name="g.el"):
    path = tmp_path / name
    path.write_text(to_edge_list(g))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _count_edge_connectivity(monkeypatch) -> list[int]:
    """Count edge_connectivity calls at every treepack module that binds
    it; the list gets the vertex count of each graph it runs on."""
    calls = []

    def counted(g):
        calls.append(g.n)
        return edge_connectivity(g)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "treepack"
                and getattr(module, "edge_connectivity", None) is edge_connectivity):
            monkeypatch.setattr(module, "edge_connectivity", counted)
    return calls


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

    def test_components_are_found_once(self, tmp_path, capsys, monkeypatch):
        # edge_connectivity, pack_trees and count_spanning_trees all read
        # the components of the one graph analyze loaded
        runs = []
        original = Graph.components.func

        def counted(g):
            runs.append(g.n)
            return original(g)

        prop = cached_property(counted)
        prop.__set_name__(Graph, "components")
        monkeypatch.setattr(Graph, "components", prop)
        g = random_regular(GenConfig(10, 80, 1))
        code, _ = run(capsys, ["analyze", write_graph(tmp_path, g)])
        assert code == EXIT_OK
        assert runs == [80]

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

    def test_premise_compares_unrounded_lambda2_with_exact_threshold(
            self, tmp_path, capsys, monkeypatch):
        # float(theta_3) at d = 6 lies below 6 - 5/7, but rounds up past it
        # at 15 significant digits
        theta = theorem_threshold(6, 3)
        lam2 = float(theta)
        assert Fraction(lam2) < theta < float(f"{lam2:.15g}")
        monkeypatch.setattr(cli, "adjacency_spectrum",
                            lambda g: (6.0, lam2) + (-1.0,) * 5)
        code, out = run(capsys, ["analyze", write_graph(tmp_path, complete_graph(7))])
        assert code == EXIT_OK
        assert json.loads(out)["theorems"]["k3"]["premise_lambda2_below_threshold"] is True

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["analyze", "/nonexistent/graph.el"])
        assert code == EXIT_USAGE

    def test_vertex_cap_refuses_at_once(self, tmp_path, capsys, monkeypatch):
        # a header-only edgeless graph is cheap to parse but far over the cap;
        # any compute past the guard would fail the test
        monkeypatch.setattr(cli, "sigma", None)
        path = tmp_path / "huge.el"
        path.write_text(f"{10**7} 0\n")
        t0 = time.perf_counter()
        code = main(["analyze", str(path)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"limited to {cli.ANALYZE_MAX_VERTICES} vertices" in captured.err
        assert f"has {10**7}" in captured.err
        assert elapsed < 1.0

    def test_packing_work_cap_refuses_at_once(self, tmp_path, capsys, monkeypatch):
        # K160: 12,720 edges, up to 80 trees, work 1,017,600
        monkeypatch.setattr(cli, "sigma", None)
        path = write_graph(tmp_path, complete_graph(160))
        t0 = time.perf_counter()
        code = main(["analyze", path])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert (f"limited to packing work m*floor(m/(n-1)) <= "
                f"{cli.ANALYZE_MAX_PACKING_WORK}") in captured.err
        assert "m = 12720, n = 160, work 1017600" in captured.err
        assert elapsed < 1.0

    def test_packing_work_cap_admits_a_graph_under_it(self, tmp_path, monkeypatch):
        # K159: work 992,319 passes the guard and reaches the compute
        class Reached(Exception):
            pass

        def reached(g):
            raise Reached

        monkeypatch.setattr(cli, "sigma", reached)
        g = complete_graph(159)
        assert g.m * (g.m // (g.n - 1)) <= cli.ANALYZE_MAX_PACKING_WORK
        with pytest.raises(Reached):
            main(["analyze", write_graph(tmp_path, g)])

    def test_vertex_cap_admits_the_cap(self, tmp_path, capsys):
        path = tmp_path / "edgeless.el"
        path.write_text(f"{cli.ANALYZE_MAX_VERTICES} 0\n")
        code, out = run(capsys, ["analyze", str(path)])
        assert code == EXIT_OK
        assert json.loads(out)["n"] == cli.ANALYZE_MAX_VERTICES

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text("3 2\n0 1\n0 two\n")
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "line 3" in err

    def test_packer_failure_above_k1_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # K5 has kappa' 4, so sigma's first pack is at k = 2; a packer that
        # fails there leaves sigma 1 without its tree, and the certificate
        # check rejects it
        real = packing.pack_trees

        def broken(g, k):
            return real(g, k) if k < 2 else PackResult(k, False, None, singleton_partition(g.n))

        monkeypatch.setattr(packing, "pack_trees", broken)
        code, out = run(capsys, ["analyze", write_graph(tmp_path, complete_graph(5))])
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        assert doc["sigma"] == 1 and doc["certificate_valid"] is False

    def test_one_min_cut_per_graph(self, tmp_path, capsys, monkeypatch):
        calls = _count_edge_connectivity(monkeypatch)
        code, out = run(capsys, ["analyze", write_graph(tmp_path, build_Gd(4))])
        assert code == EXIT_OK and json.loads(out)["kappa_prime"] == 2
        assert calls == [15]

    @pytest.mark.parametrize("text", ["3 3\n0 1\n0 1\n1 2\n", "3 2\n0 1\n1 0\n"])
    def test_duplicate_edge_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "dup.el"
        path.write_text(text)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "line 3: duplicate edge" in captured.err
        assert captured.out == ""


ANALYZE_CASES = {
    "K5": lambda: complete_graph(5),
    "Petersen": petersen_graph,
    "G4": lambda: build_Gd(4),
    "H6": lambda: build_Hd(6),
    "C3+C3": lambda: disjoint_union(cycle_graph(3), cycle_graph(3)),
    "rr10-80-s1": lambda: random_regular(GenConfig(10, 80, 1)),
    "rr10-80-s2": lambda: random_regular(GenConfig(10, 80, 2)),
    # n < 2: no kappa', no lambda2, no theorem verdicts
    "K1": lambda: complete_graph(1),
    "empty": lambda: make_graph(0, []),
    # m < n - 1: sigma 0 from the edge count alone, with no witness
    "P2+K1": lambda: make_graph(3, [(0, 1)]),
    # irregular, kappa' 1, sigma 1
    "K5-K8": lambda: add_edges(disjoint_union(complete_graph(5), complete_graph(8)),
                               [(4, 5)]),
}

# SHA-256 of the stdout of `analyze` with the graph path replaced by "G".
# The stdout carries the certificate digest, so these pin the sigma trees
# and witness as well as every reported number.
PINNED_ANALYZE_JSON = {
    "C3+C3":
        "305165b2c0fd36e00ce2bee82007127a78cb5ba3823edecfafa05034ea94e918",
    "G4":
        "8eafb83ec884922988f36d27b1cf17142f6838d13cd93357586648004b373c5e",
    "H6":
        "e4c04ca116dfa7abb5ad90aafee1f69d03ba8946f6dad034d1712e488ad18645",
    "K1":
        "e61244ff4645c0bc2dcd4b171adf3d437364b104ffb1538e5b5afffa23ca9a3d",
    "K5":
        "1d4dec06b4a7dfa520a38640207b1213355b9cc0933ee5b59edd31b96173801c",
    "K5-K8":
        "bdaa1404565ee43ff758c0f794e8dc516b957ddc174af1cf5b7d694e32005503",
    "P2+K1":
        "f0980bc23ef06ff3f8fd1cf231c3a9f57c02858787b0d379e2998c421fcf3e19",
    "Petersen":
        "002e23df74b1b797877195b75c1d61e6fc15d7cf7f02adf9ce0d2225d482640a",
    "rr10-80-s1":
        "478093b269b1203bf7bda2ea7da3b72e7401e36a15c70d6201504023a44ab100",
    "rr10-80-s2":
        "8c8841def1c79e109d47e03e3040fa87ca9514d9fc77587706184b2494fc2712",
    "empty":
        "7b7d713bb4b68c410853f5caa9d4a76dc4981d543d58844afcbdcefee0f7fac5",
}


@pytest.mark.parametrize("name", sorted(PINNED_ANALYZE_JSON))
def test_analyze_output_is_pinned(tmp_path, capsys, name):
    g_path = write_graph(tmp_path, ANALYZE_CASES[name]())
    code, out = run(capsys, ["analyze", g_path])
    assert code == EXIT_OK
    digest = hashlib.sha256(out.replace(g_path, "G").encode()).hexdigest()
    assert digest == PINNED_ANALYZE_JSON[name]


def test_pinned_analyze_cases_are_complete():
    assert sorted(PINNED_ANALYZE_JSON) == sorted(ANALYZE_CASES)


def test_analyze_disconnected_graph_whose_float_product_overflows(tmp_path, capsys):
    g = disjoint_union(complete_graph(100), complete_graph(100))
    code, out = run(capsys, ["analyze", write_graph(tmp_path, g)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["spanning_trees"] == 0
    assert report["spanning_tree_routes_agree"] is not False


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

    def test_degree_cap_refuses_at_once(self, tmp_path, capsys):
        out_path = tmp_path / "x.el"
        t0 = time.perf_counter()
        code = main(["construct", "Hd", "--d", "100000", "-o", str(out_path)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: Hd is limited to d <= {FAMILY_MAX_DEGREE}\n"
        assert not out_path.exists()
        assert elapsed < 1.0

    def test_degree_cap_admits_the_cap(self, tmp_path, capsys):
        code, out = run(capsys, ["construct", "Hd", "--d", str(FAMILY_MAX_DEGREE),
                                 "-o", str(tmp_path / "x.el")])
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 5 * (FAMILY_MAX_DEGREE + 1)

    def test_unknown_family_rejected(self, tmp_path, capsys):
        code, _ = run(capsys, ["construct", "Zd", "--d", "4",
                               "-o", str(tmp_path / "x.el")])
        assert code == EXIT_USAGE


# SHA-256 of the stdout of `verify-family` for one degree; equal to the
# benchmark goldens of the same name.
PINNED_FAMILY_JSON = {
    "Gd-d4-default": "2ea8a3a7aa69110c6c931992a438cf1422d15f0c0912f71f02738610a4bd7d3f",
    "Gd-d4-exact": "46bf83ec7b56b6e515c06bb0e20e5e1653ba7916312c117e323947aef46692d5",
    "Gd-d12-default": "58170661b736b97e5759c87519f73899f74c454fa8c1311bf357e7466653c605",
    "Gd-d12-exact": "6e8d3a718e2b5b27a7ae510d8a785d9ee6a8a223b1a45fc75ca0097c5b012f98",
    "Hd-d6-default": "97bfc38daa76548672bb4bb10d8f82f72cbe8f97b0f1f3e965228f3a66e73f6c",
    "Hd-d6-exact": "681101d56f9f0d5d04cae41347c0ba76fcaf8270cb4edd7aff772bbcbe39cb70",
    "Hd-d16-default": "4f86427a185e887e1501a8e7987e53312f8df6d9bd5d41198759baf3824811ec",
    "Hd-d16-exact": "e4d8656176b4915571de6935f166161f5998b5dfc2832081316c32b0d8056a18",
}


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

    def test_one_min_cut_per_degree(self, capsys, monkeypatch):
        calls = _count_edge_connectivity(monkeypatch)
        code, _ = run(capsys, ["verify-family", "Hd", "--d-min", "6", "--d-max", "7"])
        assert code == EXIT_OK
        assert calls == [35, 40]

    def test_degree_cap_refuses_before_the_first_member(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_family", None)
        code = main(["verify-family", "Gd", "--d-min", "4",
                     "--d-max", str(FAMILY_MAX_DEGREE + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: Gd is limited to d <= {FAMILY_MAX_DEGREE}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("family, d_min, d_max, message", [
        ("Gd", "3", "4", "Gd needs d >= 4"),
        ("Hd", "5", "6", "Hd needs d >= 6"),
        ("Gd", "4", str(FAMILY_MAX_DEGREE + 1), f"Gd is limited to d <= {FAMILY_MAX_DEGREE}"),
    ])
    def test_bad_input_exits_1(self, tmp_path, capsys, family, d_min, d_max, message):
        code = main(["verify-family", family, "--d-min", d_min, "--d-max", d_max,
                     "--json", str(tmp_path / "new" / "sub" / "x.json")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        # both ends of the range are checked before --json's directory is created
        assert not (tmp_path / "new").exists()

    def test_degree_cap_admits_the_cap(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(spec, d, precision):
            raise Reached(d)

        monkeypatch.setattr(cli, "verify_family", reached)
        cap = str(FAMILY_MAX_DEGREE)
        with pytest.raises(Reached):
            main(["verify-family", "Hd", "--d-min", cap, "--d-max", cap])

    def test_empty_degree_range_exits_1(self, capsys):
        code = main(["verify-family", "Gd", "--d-min", "9", "--d-max", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == "error: --d-min must not exceed --d-max\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", sorted(PINNED_FAMILY_JSON))
    def test_output_is_pinned(self, capsys, key):
        family, d, precision = key.split("-")
        argv = ["verify-family", family, "--d-min", d[1:], "--d-max", d[1:]]
        code, out = run(capsys, argv + (["--exact-range"] if precision == "exact" else []))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FAMILY_JSON[key]

    def test_pins_match_benchmark_goldens(self):
        goldens = json.loads((ROOT / "perfbench" / "goldens" / "family.json").read_text())
        assert {k: goldens[k] for k in PINNED_FAMILY_JSON} == PINNED_FAMILY_JSON


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
        hit = Counterexample(graph=g, d=4, n=5, k=4, lambda2=-1.0, sigma=2, seed=7,
                             witness=pack_trees(g, 4).witness)

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
        written = parse_edge_list(stem.with_suffix(".el").read_text())
        assert written == g
        sidecar = json.loads(stem.with_suffix(".json").read_text())
        assert sidecar["sigma"] == 2
        # the sidecar is the stdout entry plus the witness, in the same key order
        entry = json.loads(out)["counterexamples"][0]
        assert list(entry) == ["d", "n", "k", "lambda2", "sigma", "seed"]
        assert list(sidecar) == [*entry, "witness"]
        assert {key: sidecar[key] for key in entry} == entry
        # the two files alone re-check the finding: the witness partition
        # has too few crossing edges for k = 4 spanning trees
        blocks = sidecar["witness"]
        assert blocks == sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        w = partition(written.n, blocks)
        assert crossing_edges(written, w) <= sidecar["k"] * (w.t - 1) - 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_hit_at_proved_k_is_a_bug(self, tmp_path, capsys, monkeypatch, k):
        g = build_Gd(4)   # sigma 1: neither two nor three trees fit
        hit = Counterexample(graph=g, d=4, n=g.n, k=k, lambda2=3.5, sigma=1, seed=7,
                             witness=pack_trees(g, k).witness)

        def fake_check(d, n, k, trials, seed):
            return TheoremReport(d=d, n=n, k=k, trials=trials, seed=seed,
                                 premise_only=1, counterexamples=(hit,))

        monkeypatch.setattr(cli, "theorem_check", fake_check)
        code, out = run(capsys, ["hunt", "--d", "4", "--n", str(g.n), "--k", str(k),
                                 "--trials", "1", "--out", str(tmp_path)])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["verdict"] == "bug"
        stem = tmp_path / f"counterexample-d4-n{g.n}-k{k}-seed7"
        assert parse_edge_list(stem.with_suffix(".el").read_text()) == g

    @pytest.mark.parametrize("d, n, trials", [("3", "5", "-4"), ("6", "14", "0")])
    def test_bad_input_exits_1(self, tmp_path, capsys, d, n, trials):
        code = main(["hunt", "--d", d, "--n", n, "--k", "2", "--trials", trials,
                     "--out", str(tmp_path / "hx" / "new")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        # arguments are checked before --out is created
        assert not (tmp_path / "hx").exists()

    def test_size_cap_refuses_at_once(self, tmp_path, capsys, monkeypatch):
        def no_compute(cfg):
            raise AssertionError("a graph was drawn above the size cap")

        monkeypatch.setattr(randgen, "random_regular", no_compute)
        n = randgen.SWEEP_MAX_VERTICES + 2
        code = main(["hunt", "--d", "10", "--n", str(n), "--k", "2", "--trials", "1",
                     "--out", str(tmp_path / "hx")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (f"error: sweeps are limited to "
                                f"{randgen.SWEEP_MAX_VERTICES} vertices, got n = {n}\n")
        assert captured.out == ""
        assert not (tmp_path / "hx").exists()

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

    def test_pairing_budget_exhausted_exits_1(self, tmp_path, capsys, monkeypatch):
        # 40-regular graphs on 44 vertices are out of the pairing model's
        # reach; with one attempt allowed the failure comes at once
        monkeypatch.setattr(randgen, "MAX_PAIRING_ATTEMPTS", 1)
        out_dir = tmp_path / "out"
        code = main(["hunt", "--d", "40", "--n", "44", "--k", "2",
                     "--trials", "1", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == ("error: no simple 40-regular pairing on 44 "
                                "vertices after 1 attempts\n")
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []


QUOTIENT_CASES = {
    "G4-natural": (build_Gd(4), [range(0, 5), range(5, 10), range(10, 15)]),
    "Petersen-3-7": (petersen_graph(), [range(0, 3), range(3, 10)]),
    "Petersen-1-2-3-4": (petersen_graph(), [[0], [1, 2], [3, 4, 5], range(6, 10)]),
}

# SHA-256 of the stdout of `quotient` with the graph path replaced by "G".
PINNED_QUOTIENT_JSON = {
    "G4-natural":
        "69bf7f1aca21a5e7e5cce63bd3601206c84d938ac684093589e4dc5471267d99",
    "Petersen-3-7":
        "b33b9fd839747d4bb80642a7bb90a0f4a342839296a24c79c0c3466fe7328958",
    "Petersen-1-2-3-4":
        "2c7e738c213a74e8e6bc3b8b13d53682d409ecff2dc2350766d48750a18a14cf",
}


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main builds its parser once; calls with different subcommands, a
    usage error among them, print the pinned bytes in any order."""
    assert cli._build_parser() is cli._build_parser()
    g_path = write_graph(tmp_path, ANALYZE_CASES["G4"]())
    graph, blocks = QUOTIENT_CASES["G4-natural"]
    q_path = write_graph(tmp_path, graph, "q.el")
    part = tmp_path / "blocks.txt"
    part.write_text("".join(" ".join(map(str, b)) + "\n" for b in blocks))

    def digest(argv, graph_path=None):
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        if graph_path:      # the analyze and quotient pins name the graph "G"
            out = out.replace(graph_path, "G")
        return hashlib.sha256(out.encode()).hexdigest()

    for _ in range(2):
        assert digest(["analyze", g_path], g_path) == PINNED_ANALYZE_JSON["G4"]
        assert digest(["verify-family", "Gd", "--d-min", "4", "--d-max", "4"]) \
            == PINNED_FAMILY_JSON["Gd-d4-default"]
        assert main(["quotient", q_path]) == EXIT_USAGE     # no partition file
        capsys.readouterr()
        assert digest(["quotient", q_path, str(part)], q_path) \
            == PINNED_QUOTIENT_JSON["G4-natural"]


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

    @pytest.mark.parametrize("name", sorted(PINNED_QUOTIENT_JSON))
    def test_non_integer_partition_output_is_pinned(self, tmp_path, capsys, name):
        graph, blocks = QUOTIENT_CASES[name]
        g_path = write_graph(tmp_path, graph)
        part = tmp_path / "blocks.txt"
        part.write_text("".join(" ".join(map(str, b)) + "\n" for b in blocks))
        code, out = run(capsys, ["quotient", g_path, str(part)])
        assert code == EXIT_OK
        digest = hashlib.sha256(out.replace(g_path, "G").encode()).hexdigest()
        assert digest == PINNED_QUOTIENT_JSON[name]

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

    @pytest.mark.parametrize("text, missing", [
        ("0 1 2 3 4\n5 6 7 8 9\n10 11 12 13\n", 14),
        ("0 1 2 3 4\n5 6 8 9\n10 11 12 13\n", 7),     # 7 and 14: the smallest
        ("", 0),
    ])
    def test_uncovered_vertex_is_named(self, tmp_path, capsys, text, missing):
        g_path = write_graph(tmp_path, build_Gd(4))
        part = tmp_path / "blocks.txt"
        part.write_text(text)
        code = main(["quotient", g_path, str(part)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: blocks do not cover vertex {missing}\n"
        assert captured.out == ""

    def test_vertex_repeated_on_a_line_is_rejected(self, tmp_path, capsys):
        g_path = write_graph(tmp_path, complete_graph(3))
        part = tmp_path / "blocks.txt"
        part.write_text("0 0 1\n2\n")
        code = main(["quotient", g_path, str(part)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == "error: line 1: vertex 0 repeated\n"
        assert captured.out == ""

    @pytest.mark.parametrize("vertex", [3, 99, -14])
    def test_vertex_out_of_range_names_its_line(self, tmp_path, capsys, vertex):
        g_path = write_graph(tmp_path, complete_graph(3))
        part = tmp_path / "blocks.txt"
        part.write_text(f"0 1\n\n2 {vertex}\n")
        code = main(["quotient", g_path, str(part)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: line 3: vertex {vertex} out of range for n=3\n"
        assert captured.out == ""

    def test_vertex_in_two_blocks_names_the_later_line(self, tmp_path, capsys):
        g_path = write_graph(tmp_path, complete_graph(3))
        part = tmp_path / "blocks.txt"
        part.write_text("0 1\n2\n1\n")
        code = main(["quotient", g_path, str(part)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == "error: line 3: vertex 1 already in an earlier block\n"
        assert captured.out == ""

    def test_block_cap_refuses_before_compute(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "quotient_matrix", None)
        t = cli.QUOTIENT_MAX_BLOCKS + 1
        g_path = write_graph(tmp_path, cycle_graph(t))
        part = tmp_path / "blocks.txt"
        part.write_text("".join(f"{v}\n" for v in range(t)))
        code = main(["quotient", g_path, str(part)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (f"error: quotient is limited to {cli.QUOTIENT_MAX_BLOCKS} "
                                f"blocks, the partition has {t}\n")
        assert captured.out == ""

    def test_block_cap_admits_the_cap(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reached(g, p):
            raise Reached(p.t)

        monkeypatch.setattr(cli, "quotient_matrix", reached)
        t = cli.QUOTIENT_MAX_BLOCKS
        g_path = write_graph(tmp_path, cycle_graph(t))
        part = tmp_path / "blocks.txt"
        part.write_text("".join(f"{v}\n" for v in range(t)))
        with pytest.raises(Reached):
            main(["quotient", g_path, str(part)])

    def test_vertex_cap_refuses_before_reading_the_partition(self, tmp_path, capsys,
                                                             monkeypatch):
        # a header-only edgeless graph is cheap to parse but over the cap; the
        # partition file does not exist, and the eigensolve is stubbed out
        monkeypatch.setattr(cli, "adjacency_spectrum", None)
        n = cli.QUOTIENT_MAX_VERTICES + 1
        path = tmp_path / "edgeless.el"
        path.write_text(f"{n} 0\n")
        code = main(["quotient", str(path), str(tmp_path / "missing.txt")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (f"error: quotient is limited to {cli.QUOTIENT_MAX_VERTICES} "
                                f"vertices, the graph has {n}\n")
        assert captured.out == ""

    def test_graph_without_vertices_is_refused_before_reading_the_partition(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "quotient_matrix", None)
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        code = main(["quotient", str(path), str(tmp_path / "missing.txt")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == ("error: quotient needs a graph with at least one vertex, "
                                "the graph has none\n")
        assert captured.out == ""

    def test_vertex_cap_admits_the_cap(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reached(g):
            raise Reached(g.n)

        monkeypatch.setattr(cli, "adjacency_spectrum", reached)
        n = cli.QUOTIENT_MAX_VERTICES
        path = tmp_path / "edgeless.el"
        path.write_text(f"{n} 0\n")
        part = tmp_path / "blocks.txt"
        part.write_text(" ".join(map(str, range(n // 2))) + "\n"
                        + " ".join(map(str, range(n // 2, n))) + "\n")
        with pytest.raises(Reached):
            main(["quotient", str(path), str(part)])


# each subcommand that takes --json, with its compute stubbed out: a bad
# --json directory must stop it before that compute runs
JSON_COMPUTE = {
    "analyze": ("sigma", lambda tmp: ["analyze", write_graph(tmp, complete_graph(4))]),
    "verify-family": ("verify_family",
                      lambda tmp: ["verify-family", "Gd", "--d-min", "4", "--d-max", "4"]),
    "hunt": ("theorem_check", lambda tmp: ["hunt", "--d", "6", "--n", "14", "--k", "2",
                                           "--trials", "1", "--out", str(tmp / "out")]),
    "quotient": ("quotient_matrix", lambda tmp: [
        "quotient", write_graph(tmp, complete_graph(4)), str(_write_blocks(tmp))]),
}


def _write_blocks(tmp_path):
    path = tmp_path / "blocks.txt"
    path.write_text("0 1\n2 3\n")
    return path


@pytest.mark.parametrize("command", sorted(JSON_COMPUTE))
@pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
def test_bad_json_path_fails_before_compute(tmp_path, capsys, monkeypatch, command, target):
    stub, argv = JSON_COMPUTE[command]

    def no_compute(*args, **kwargs):
        raise AssertionError(f"{stub} ran despite a bad --json")

    monkeypatch.setattr(cli, stub, no_compute)
    blocker = tmp_path / "file"
    blocker.write_text("")
    if target == "under-a-file":
        json_path = blocker / "sub" / "report.json"
        message = f"error: --json {blocker / 'sub'}: not a writable directory"
    else:
        json_path = tmp_path
        message = f"error: --json {tmp_path}: is a directory"
    code = main(argv(tmp_path) + ["--json", str(json_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith(message)
    assert captured.out == ""


def test_json_written_into_new_directory(tmp_path, capsys):
    target = tmp_path / "not" / "yet" / "report.json"
    code, out = run(capsys, ["analyze", write_graph(tmp_path, complete_graph(4)),
                             "--json", str(target)])
    assert code == EXIT_OK
    assert target.read_text() == out


class TestTopLevel:
    def test_no_args_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_check_failure_exit_code_is_distinct(self):
        assert EXIT_CHECK_FAILED == 2
