from fractions import Fraction

import pytest

from treepack import randgen
from treepack.families import build_Gd
from treepack.graphs import complete_graph, crossing_edges
from treepack.packing import CertificateCheck
from treepack.randgen import (
    GenConfig,
    random_regular,
    splitmix64,
    theorem_check,
    theorem_threshold,
)


class TestGenConfig:
    def test_odd_stub_count_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(d=3, n=5, seed=0)

    def test_degree_must_fit(self):
        with pytest.raises(ValueError):
            GenConfig(d=4, n=4, seed=0)
        with pytest.raises(ValueError):
            GenConfig(d=0, n=4, seed=0)


class TestRandomRegular:
    def test_cubic_on_four_vertices_is_k4(self):
        g = random_regular(GenConfig(d=3, n=4, seed=123))
        assert g.edges == complete_graph(4).edges

    def test_deterministic_for_fixed_seed(self):
        a = random_regular(GenConfig(d=4, n=10, seed=99))
        b = random_regular(GenConfig(d=4, n=10, seed=99))
        assert a.edges == b.edges

    def test_different_seeds_vary(self):
        seen = {random_regular(GenConfig(d=3, n=12, seed=s)).edges for s in range(6)}
        assert len(seen) > 1

    @pytest.mark.parametrize("d,n", [(3, 8), (4, 9), (5, 12), (7, 16), (10, 44)])
    def test_output_is_simple_and_regular(self, d, n):
        for seed in (0, 1, 2):
            g = random_regular(GenConfig(d=d, n=n, seed=seed))
            assert g.n == n
            assert g.degree_if_regular() == d
            assert all(u != v for u, v in g.edges)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_advances_state(self):
        state, out = splitmix64(42)
        state2, out2 = splitmix64(state)
        assert (state, out) != (state2, out2)

    def test_outputs_fit_64_bits(self):
        state = 0
        for _ in range(100):
            state, out = splitmix64(state)
            assert 0 <= out < 2 ** 64
            assert 0 <= state < 2 ** 64


class TestTheoremCheck:
    def test_counts_partition_the_trials(self):
        r = theorem_check(d=6, n=14, k=2, trials=25, seed=5)
        assert (r.premise_and_conclusion + r.premise_only
                + r.conclusion_only + r.neither) == 25

    def test_small_run_is_clean_for_k2(self):
        r = theorem_check(d=6, n=14, k=2, trials=25, seed=5)
        assert r.premise_only == 0
        assert r.counterexamples == ()
        assert r.clean
        assert not r.conjecture

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            theorem_check(d=6, n=14, k=1, trials=1, seed=0)

    @pytest.mark.parametrize("d, n, trials", [(3, 5, -4), (3, 5, 1), (6, 14, 0),
                                              (6, 14, -1), (6, 6, 1)])
    def test_bad_input_rejected_before_any_graph_is_drawn(self, monkeypatch, d, n, trials):
        def no_compute(cfg):
            raise AssertionError("a graph was drawn for rejected input")

        monkeypatch.setattr(randgen, "random_regular", no_compute)
        with pytest.raises(ValueError):
            theorem_check(d=d, n=n, k=2, trials=trials, seed=0)

    def test_size_cap_refuses_before_any_graph_is_drawn(self, monkeypatch):
        def no_compute(cfg):
            raise AssertionError("a graph was drawn above the size cap")

        monkeypatch.setattr(randgen, "random_regular", no_compute)
        cap = randgen.SWEEP_MAX_VERTICES
        randgen.check_sweep_args(10, cap, 2, 1)
        with pytest.raises(ValueError, match=f"limited to {cap} vertices, got n = {cap + 2}"):
            theorem_check(d=10, n=cap + 2, k=2, trials=1, seed=0)

    @pytest.mark.parametrize("d, tally", [(5, "conclusion_only"), (4, "neither")])
    def test_premise_false_tallies(self, d, tally):
        # d < 2k makes the premise false; K6 packs three trees, K6 minus a
        # perfect matching (12 < 15 edges) does not
        r = theorem_check(d=d, n=6, k=3, trials=3, seed=0)
        assert getattr(r, tally) == 3 and r.clean

    def test_invalid_pack_is_an_error(self, monkeypatch):
        monkeypatch.setattr(randgen, "verify_pack_result",
                            lambda g, result: CertificateCheck(False, "forged"))
        with pytest.raises(AssertionError, match="pack_trees certificate invalid: forged"):
            theorem_check(d=6, n=14, k=2, trials=1, seed=0)

    def test_k4_run_is_flagged_as_conjecture_territory(self):
        r = theorem_check(d=8, n=18, k=4, trials=5, seed=3)
        assert r.conjecture

    def test_reproducible(self):
        a = theorem_check(d=6, n=14, k=2, trials=10, seed=11)
        b = theorem_check(d=6, n=14, k=2, trials=10, seed=11)
        assert (a.premise_and_conclusion, a.neither) == (b.premise_and_conclusion, b.neither)

    def test_premise_compares_lambda2_with_exact_threshold(self, monkeypatch):
        # float(theta_3) at d = 6 lies below the rational 6 - 5/7
        lam2 = float(theorem_threshold(6, 3))
        assert Fraction(lam2) < theorem_threshold(6, 3)
        monkeypatch.setattr(randgen, "random_regular", lambda cfg: complete_graph(7))
        monkeypatch.setattr(randgen, "lambda2", lambda g: lam2)
        r = theorem_check(d=6, n=7, k=3, trials=1, seed=0)
        assert r.premise_and_conclusion == 1

    def test_counterexample_carries_the_failed_pack_witness(self, monkeypatch):
        # G4 is 4-regular with sigma 1; with the premise forced true every
        # trial is a counterexample for k = 2
        g4 = build_Gd(4)
        monkeypatch.setattr(randgen, "random_regular", lambda cfg: g4)
        monkeypatch.setattr(randgen, "lambda2", lambda g: 0.0)
        r = theorem_check(d=4, n=15, k=2, trials=2, seed=0)
        assert r.premise_only == 2 and len(r.counterexamples) == 2
        for c in r.counterexamples:
            assert c.sigma == 1
            assert crossing_edges(g4, c.witness).total <= 2 * (c.witness.t - 1) - 1
