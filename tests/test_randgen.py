import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from builders import complete_graph

import treepack
from treepack import packing, randgen
from treepack.families import GD, build_family
from treepack.graphs import crossing_edges
from treepack.packing import CertificateCheck, pack_trees
from treepack.randgen import (
    GenConfig,
    random_regular,
    splitmix64,
    theorem_check,
)
from treepack.spectra import adjacency_spectrum, theorem_threshold

# SHA-256 of repr(sorted(g.edges)) for random_regular(GenConfig(d, n, seed)):
# the sweep mix over four seeds, the analyze size, a near-half density and
# a cycle cover.  Most of them need more than one pairing attempt: (8, 32, 0)
# takes 8, (10, 80, 2) and (20, 41, 1) take 9.  Every graph, and with it
# every sweep golden, hangs on these.
PINNED_GRAPHS = {
    (6, 30, 0): "cb40379a7e6c323f290c683221214ca55fb1ae2f8c72e6d72cfb7cf45944149f",
    (6, 30, 1): "6263a25158c465b9e026c3a6de09e1ed2fd9b2abbb01a1665db17d84471fa595",
    (6, 30, 10451216379200822465): "40ff4429c5c2795528695cd5b1587844516ba39ce2eeaf0fb593c58e9943f1a7",
    (6, 30, 2**64 - 1): "d53e3a50389d79b98e6a158795e27bb9376d39cb41a102e312834abfeb4a7767",
    (8, 32, 0): "358d83b94ed8d48d8ada3449672cbe678e260f3fc4d6300b199b41ec657d295c",
    (8, 32, 1): "74cdd75977678ae66114cebad4cac7f94ea936dd8344e60d77e02d0f7347ad59",
    (8, 32, 10451216379200822465): "b4bc54cfa4d7b07a08ca9bd4b8b20ec2466bf8771b5dfe9310aff62e40bd0750",
    (8, 32, 2**64 - 1): "0488b91fb1517c7f6379d1278bf4d3ec9182e65c9971f4fa755e15985507f2b9",
    (10, 44, 0): "2a6442c3d4c87dfc5498e19941fd06257966c18ca65d26253fd5da510c260dd5",
    (10, 44, 1): "cdc2657935950a932afd6f91b58621c709e9a67ef4f5de750cbe80f0d6bd6cbe",
    (10, 44, 10451216379200822465): "eb8252f9a0a0515849e79b2e5701b3706d51ade726aea7f6a7dca044be4a087d",
    (10, 44, 2**64 - 1): "1c44ffafc0a2e047c1b961146d6629faf3f04e6e21cc76e08f0a964c3d746598",
    (10, 80, 1): "6ac9f65ed2d30145da72b5ecae0a41dc505e154a87e251044cf9cbf5d579ad3b",
    (10, 80, 2): "c0904e0b3cf222478532977d7e5390695db2d0080f10722ae4bc6c734bc79af0",
    (3, 4, 0): "8cf7c838487fa83befc874746e035d5439fdf57ea2738bdd1c8d35cd0b813741",
    (20, 41, 1): "6e2351054b5633c3225823fb70176f4b8cb52e148b6fcd90cdccf686b49f84c0",
    (2, 1000, 1): "8fab5b04c977d12470579efb8f03145791c473e2a62f03d3b8090ed91e136632",
}


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

    @pytest.mark.parametrize("d, n, seed", sorted(PINNED_GRAPHS))
    def test_graph_matches_pinned_digest(self, d, n, seed):
        edges = sorted(random_regular(GenConfig(d, n, seed)).edges)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == PINNED_GRAPHS[d, n, seed]

    def test_refusal_message(self, monkeypatch):
        # the first pairing attempt for (8, 32, 0) dead-ends
        monkeypatch.setattr(randgen, "MAX_PAIRING_ATTEMPTS", 1)
        with pytest.raises(ValueError) as err:
            random_regular(GenConfig(d=8, n=32, seed=0))
        assert str(err.value) == "no simple 8-regular pairing on 32 vertices after 1 attempts"

    @pytest.mark.parametrize("seed", [0, 1, 12345678901234567, 2**64 - 1])
    def test_shuffle_makes_the_draws_of_random_shuffle(self, seed):
        # every graph depends on this: a change to CPython's
        # _randbelow_with_getrandbits has to fail here
        for length in [*range(71), 255, 256, 257, 440, 1000]:
            ours, cpython = random.Random(seed), random.Random(seed)
            x, y = list(range(length)), list(range(length))
            randgen._shuffle(x, ours.getrandbits)
            cpython.shuffle(y)
            assert x == y, length
            assert ours.getstate() == cpython.getstate(), length

    def test_degree_check_survives_optimize(self):
        # under python -O an assert would vanish; the check must still raise
        code = (
            "import sys, treepack.randgen as r\n"
            "r._pairing_attempt = lambda getrandbits, n, d: [(0, 1), (1, 2), (2, 3), (0, 3)]\n"
            "try:\n"
            "    r.random_regular(r.GenConfig(3, 4, 0))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "else:\n"
            "    sys.exit('a 2-regular graph was returned for d = 3')\n"
        )
        src = str(Path(treepack.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert "not 3-regular" in run.stdout


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
    def test_premise_false_tallies(self, monkeypatch, d, tally):
        # d < 2k makes the premise false without any spectral work; K6
        # packs three trees, K6 minus a perfect matching (12 < 15 edges)
        # does not
        def no_spectral_work(*args):
            raise AssertionError("the premise was computed although d < 2k")

        monkeypatch.setattr(randgen, "adjacency_spectrum", no_spectral_work)
        monkeypatch.setattr(randgen, "certify_lambda2_below", no_spectral_work)
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
        # K7 certifies, so the certificate is made to refuse to reach the float
        monkeypatch.setattr(randgen, "certify_lambda2_below", lambda g, q: False)
        monkeypatch.setattr(randgen, "adjacency_spectrum", lambda g: (6.0, lam2))
        r = theorem_check(d=6, n=7, k=3, trials=1, seed=0)
        assert r.premise_and_conclusion == 1

    def test_counterexample_carries_the_failed_pack_witness(self, monkeypatch):
        # G4 is 4-regular with sigma 1; with the premise forced true every
        # trial is a counterexample for k = 2.  Its sigma climbs with the
        # failed pack's witness, so each hit packs at k = 2 and then k = 1
        # only: the witness ends the climb in place of a second pack at 2
        g4 = build_family(GD, 4)
        monkeypatch.setattr(randgen, "random_regular", lambda cfg: g4)
        monkeypatch.setattr(randgen, "adjacency_spectrum", lambda g: (4.0, 0.0))
        packs = []

        def counted(g, k):
            packs.append(k)
            return pack_trees(g, k)

        monkeypatch.setattr(randgen, "pack_trees", counted)
        monkeypatch.setattr(packing, "pack_trees", counted)
        r = theorem_check(d=4, n=15, k=2, trials=2, seed=0)
        assert r.premise_only == 2 and len(r.counterexamples) == 2
        assert packs == [2, 1, 2, 1]
        for c in r.counterexamples:
            assert c.sigma == 1
            assert crossing_edges(g4, c.witness) <= 2 * (c.witness.t - 1) - 1

    def test_hit_on_a_refused_trial_eigensolves_once(self, monkeypatch):
        # the premise's lambda2 is the one the counterexample records
        eigensolves = []

        def counted_spectrum(g):
            eigensolves.append(g)
            return 4.0, 0.0

        g4 = build_family(GD, 4)
        monkeypatch.setattr(randgen, "random_regular", lambda cfg: g4)
        monkeypatch.setattr(randgen, "certify_lambda2_below", lambda g, q: False)
        monkeypatch.setattr(randgen, "adjacency_spectrum", counted_spectrum)
        r = theorem_check(d=4, n=15, k=2, trials=1, seed=0)
        (c,) = r.counterexamples
        assert c.lambda2 == 0.0
        assert len(eigensolves) == 1

    def test_certified_trial_never_eigensolves(self, monkeypatch):
        def no_eigensolve(g):
            raise AssertionError("a certified trial computed lambda2")

        monkeypatch.setattr(randgen, "adjacency_spectrum", no_eigensolve)
        r = theorem_check(d=6, n=14, k=2, trials=25, seed=5)
        assert r.premise_and_conclusion == 25

    def test_reducible_threshold_certifies_in_lowest_terms(self, monkeypatch):
        # theta_2 = 8 - 3/9 = 23/3 at d = 8, a point of the sweep benchmark's
        # mix: the certificate factors the M of 23/3 and proves every trial
        assert theorem_threshold(8, 2) == Fraction(23, 3)

        def no_eigensolve(g):
            raise AssertionError("a certified trial computed lambda2")

        monkeypatch.setattr(randgen, "adjacency_spectrum", no_eigensolve)
        r = theorem_check(d=8, n=32, k=2, trials=40, seed=0)
        assert r.premise_and_conclusion == 40

    def test_refused_trials_take_the_float_comparison(self, monkeypatch):
        # at theta_2 = 3.4 the first two 4-regular graphs are refused and
        # the third certified; the tallies are those of the float
        # comparison alone
        verdicts, eigensolves = [], []
        certify, spectrum = randgen.certify_lambda2_below, randgen.adjacency_spectrum

        def recorded_certify(g, q):
            assert q == Fraction(17, 5)     # theta_2 = 4 - 3/5 at d = 4
            verdicts.append(certify(g, q))
            return verdicts[-1]

        def recorded_spectrum(g):
            eigenvalues = spectrum(g)
            eigensolves.append(eigenvalues[1])
            return eigenvalues

        monkeypatch.setattr(randgen, "certify_lambda2_below", recorded_certify)
        monkeypatch.setattr(randgen, "adjacency_spectrum", recorded_spectrum)
        r = theorem_check(d=4, n=200, k=2, trials=3, seed=0)
        assert verdicts == [False, False, True]
        assert len(eigensolves) == 2 and min(eigensolves) >= theorem_threshold(4, 2)
        assert (r.premise_and_conclusion, r.premise_only,
                r.conclusion_only, r.neither) == (1, 0, 2, 0)

    def test_hit_on_a_certified_graph_records_its_lambda2(self, monkeypatch):
        # a packing forced to fail makes the one certified trial a hit
        g = random_regular(GenConfig(d=6, n=14, seed=splitmix64(0)[1]))
        assert randgen.certify_lambda2_below(g, theorem_threshold(6, 2))
        monkeypatch.setattr(randgen, "pack_trees", lambda g, k: pack_trees(g, g.m))
        r = theorem_check(d=6, n=14, k=2, trials=1, seed=0)
        (c,) = r.counterexamples
        assert c.graph == g
        assert c.lambda2 == adjacency_spectrum(g)[1]
