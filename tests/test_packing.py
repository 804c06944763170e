import dataclasses
import functools
import hashlib
import json
import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from builders import (
    add_edges,
    complete_bipartite,
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from oracles import (
    ReferencePacker,
    count_spanning_trees_exhaustive,
    reference_pack,
    sigma_bruteforce,
)

from treepack import exact, packing
from treepack.cli import _certificate_digest
from treepack.connectivity import CutResult, certified_floor, edge_connectivity
from treepack.exact import _det_mod_primes as det_mod_primes
from treepack.exact import det_exact
from treepack.families import GD, HD, build_family, natural_partition
from treepack.graphs import (
    crossing_edges,
    make_graph,
    partition,
    petersen_graph,
    singleton_partition,
)
from treepack.packing import (
    PackResult,
    TreePackingResult,
    _Packer,
    count_spanning_trees,
    pack_trees,
    sigma,
    verify_certificate,
    verify_pack_result,
)
from treepack.randgen import GenConfig, random_regular, splitmix64
from treepack.spectra import eig_symmetric


@st.composite
def graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return make_graph(n, edges)


class TestPackTrees:
    def test_k4_packs_two(self):
        g = complete_graph(4)
        r = pack_trees(g, 2)
        assert r.success
        assert len(r.trees) == 2
        assert r.trees[0].isdisjoint(r.trees[1])
        assert verify_pack_result(g, r).ok

    def test_cycle_packs_one(self):
        r = pack_trees(cycle_graph(5), 1)
        assert r.success and len(r.trees[0]) == 4

    def test_k4_fails_three(self):
        g = complete_graph(4)
        r = pack_trees(g, 3)
        assert not r.success
        w = r.witness
        assert crossing_edges(g, w) <= 3 * (w.t - 1) - 1
        assert verify_pack_result(g, r).ok

    def test_singleton_witness_check_stays_small(self):
        # m = 7500 < 2 * (n - 1), so the witness is the 5000 singletons; its
        # check counts crossing edges in a few MB, not a t x t table
        g = random_regular(GenConfig(d=3, n=5000, seed=1))
        r = pack_trees(g, 2)
        assert not r.success and r.witness.t == g.n
        tracemalloc.start()
        try:
            check = verify_pack_result(g, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check.ok
        assert peak < 4 * 2 ** 20

    def test_disconnected_witness_is_components(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        r = pack_trees(g, 1)
        assert not r.success
        assert sorted(sorted(b) for b in r.witness.blocks) == [[0, 1, 2], [3, 4, 5]]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            pack_trees(complete_graph(3), 0)

    def test_trivial_graphs(self):
        r = pack_trees(make_graph(1, []), 3)
        assert r.success and r.trees == (frozenset(), frozenset(), frozenset())

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_packs_verify(self, n):
        # n - 1 < 1, so the empty trees pass only through the n <= 1 branch
        g = make_graph(n, [])
        for k in (1, 2):
            assert verify_pack_result(g, pack_trees(g, k)).ok

    def test_trivial_tree_holding_an_edge_is_rejected(self):
        forged = PackResult(1, True, (frozenset({(0, 1)}),), None)
        check = verify_pack_result(make_graph(1, []), forged)
        assert not check.ok and check.reason == "trivial graph packs empty trees"


class TestSigma:
    @pytest.mark.parametrize("g,expected", [
        (complete_graph(4), 2),
        (complete_graph(5), 2),
        (complete_graph(6), 3),
        (cycle_graph(5), 1),
        (path_graph(6), 1),
        (petersen_graph(), 1),
        (disjoint_union(complete_graph(3), complete_graph(3)), 0),
    ])
    def test_known_values(self, g, expected):
        result = sigma(g)
        assert result.sigma == expected
        assert verify_certificate(g, result).ok

    def test_trivial(self):
        r = sigma(make_graph(1, []))
        assert r.sigma == 0 and r.trees == () and r.witness_partition is None
        assert r.cut is None

    def test_witness_absent_when_edge_bound_certifies(self):
        # a tree: m = n-1 < 2(n-1), so no witness is needed for sigma+1
        r = sigma(path_graph(5))
        assert r.sigma == 1 and r.witness_partition is None

    def test_witness_present_otherwise(self):
        r = sigma(petersen_graph())   # 15 edges >= 2*9 would be false: 15 < 18
        # trivial bound floor(15/9) = 1 equals sigma, witness not required
        assert r.witness_partition is None
        r = sigma(complete_graph(5))  # 10 edges, bound floor(10/4) = 2 = sigma
        assert r.witness_partition is None
        g = cycle_graph(4)            # 4 edges, bound floor(4/3) = 1 = sigma... still none
        assert sigma(g).witness_partition is None
        # K4 minus an edge: m=5, n=4, bound 1, sigma 1, no witness;
        # K4 itself: m=6, bound 2 = sigma, no witness;
        # C4 plus a chord: m=5, bound 1; sigma 1
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        r = sigma(g)                  # K4 again: sigma 2, bound 2
        assert r.sigma == 2 and r.witness_partition is None

    def test_witness_carried_on_failure_within_bound(self):
        # two K5 blobs joined by a bridge: m = 21 >= 2*(n-1), yet the bridge
        # caps sigma at 1, so the result must carry a violating partition
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
        edges.append((4, 5))
        g = make_graph(10, edges)
        r = sigma(g)
        assert r.sigma == 1
        assert r.witness_partition is not None
        assert crossing_edges(g, r.witness_partition) <= 2 * (r.witness_partition.t - 1) - 1
        assert verify_certificate(g, r).ok


class TestSigmaBruteforce:
    def test_k4(self):
        oracle = sigma_bruteforce(complete_graph(4))
        assert oracle.sigma == 2 and oracle.tau1 == Fraction(2)

    def test_tree(self):
        oracle = sigma_bruteforce(path_graph(5))
        assert oracle.sigma == 1 and oracle.tau1 == Fraction(1)

    def test_disconnected(self):
        assert sigma_bruteforce(disjoint_union(complete_graph(3), complete_graph(3))).sigma == 0

    def test_petersen_strength(self):
        assert sigma_bruteforce(petersen_graph()).tau1 == Fraction(5, 3)

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            sigma_bruteforce(complete_graph(13))


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_sigma_matches_oracle(g):
    result = sigma(g)
    assert result.sigma == sigma_bruteforce(g).sigma
    assert verify_certificate(g, result).ok


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=3, max_n=7))
def test_sigma_monotone_under_edge_changes(g):
    base = sigma(g).sigma
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    missing = [p for p in pairs if p not in g.edges]
    if missing:
        bigger = make_graph(g.n, list(g.edges) + [missing[0]])
        assert sigma(bigger).sigma >= base
    if g.edges:
        smaller = make_graph(g.n, sorted(g.edges)[1:])
        assert sigma(smaller).sigma <= base


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_kundu_bound(g):
    if len(g.components) != 1:
        return
    assert sigma(g).sigma >= edge_connectivity(g).value // 2


class TestCountSpanningTrees:
    @pytest.mark.parametrize("g,expected", [
        (complete_graph(4), 16),
        (cycle_graph(5), 5),
        (petersen_graph(), 2000),
        (path_graph(4), 1),
        (disjoint_union(complete_graph(3), complete_graph(3)), 0),
    ])
    def test_known_counts(self, g, expected):
        c = count_spanning_trees(g)
        assert c.exact == expected
        assert c.agree is True

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=9))
    def test_cayley_formula(self, n):
        c = count_spanning_trees(complete_graph(n))
        assert c.exact == n ** (n - 2)
        assert c.agree is True

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=7))
    def test_exhaustive_agrees(self, g):
        if g.m > 18:
            return
        assert count_spanning_trees(g).exact == count_spanning_trees_exhaustive(g)

    def test_count_past_float_range_skips_the_eigensolve(self, monkeypatch):
        # a 10-regular graph on 80 vertices has far more than 2^53 spanning
        # trees, where no float product can round to the count
        def no_eigensolve(m):
            raise AssertionError("Laplacian eigensolve ran for a count >= 2^53")

        monkeypatch.setattr(packing, "eig_symmetric", no_eigensolve)
        c = count_spanning_trees(random_regular(GenConfig(10, 80, 1)))
        assert c.exact >= 2 ** 53
        assert c.agree is None

    def test_disconnected_graph_with_an_overflowing_product(self):
        # count 0 never reaches the 2^53 early return, yet mu_2 is only
        # rounding noise and the other 198 eigenvalues equal 100, so the
        # float product is about 1e-14 * 1e396
        c = count_spanning_trees(disjoint_union(complete_graph(100), complete_graph(100)))
        assert c.exact == 0
        assert c.agree is not False

    @pytest.mark.parametrize("g", [
        make_graph(2, []),
        disjoint_union(complete_graph(2), complete_graph(2)),
        disjoint_union(complete_graph(1), petersen_graph()),
        disjoint_union(petersen_graph(), complete_graph(1)),
        disjoint_union(cycle_graph(40), complete_graph(30)),
        disjoint_union(random_regular(GenConfig(10, 40, 1)), random_regular(GenConfig(10, 40, 2))),
    ])
    def test_disconnected_graph_takes_no_determinant(self, monkeypatch, g):
        # the count is 0 by the components alone; agree still compares it
        # with the eigenvalue product, which need not round to 0
        def no_determinant(m):
            raise AssertionError("det_exact ran on a disconnected graph")

        monkeypatch.setattr(packing, "det_exact", no_determinant)
        product = math.prod(eig_symmetric(g.laplacian_matrix())[-2::-1]) / g.n
        c = count_spanning_trees(g)
        assert c.exact == 0
        assert c.agree == (round(product) == 0 if math.isfinite(product) else None)

    @pytest.mark.parametrize("noise", [1e-14, -1e-14])
    @pytest.mark.parametrize("big", [1e200, math.inf, math.nan])
    def test_non_finite_product_leaves_agree_open(self, monkeypatch, noise, big):
        # eig_symmetric is descending; the product skips the least, 0.0
        monkeypatch.setattr(packing, "eig_symmetric", lambda m: (big, big, noise, 0.0))
        c = count_spanning_trees(disjoint_union(complete_graph(2), complete_graph(2)))
        assert c.exact == 0
        assert c.agree is None

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            count_spanning_trees_exhaustive(complete_graph(7))


def hypercube(d: int):
    return make_graph(2**d, [(v, v ^ (1 << i)) for v in range(2**d) for i in range(d)
                             if v < v ^ (1 << i)])


class TestClosedFormTreeCounts:
    """Counts that need no oracle, on reduced Laplacians that span several
    blocks of the inverse and panels of the elimination.  Each takes the
    p-adic lifting; K150's cofactor 150**147 takes several batches of
    primes."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        """The matrices count_spanning_trees hands det_exact, the number of
        prime batches each took, and whether the lifting gave the count."""
        calls = []
        lift = exact._det_by_lifting

        def spy_det(m):
            calls.append([m, 0, False])
            return det_exact(m)

        def spy_batch(ints, primes):
            calls[-1][1] += 1
            return det_mod_primes(ints, primes)

        def spy_lift(ints):
            det = lift(ints)
            calls[-1][2] = det is not None
            return det

        monkeypatch.setattr(packing, "det_exact", spy_det)
        monkeypatch.setattr(exact, "_det_mod_primes", spy_batch)
        monkeypatch.setattr(exact, "_det_by_lifting", spy_lift)
        return calls

    def assert_count(self, g, expected, det_calls, lifted=True):
        assert count_spanning_trees(g).exact == expected
        m = det_calls[-1][0]
        assert isinstance(m, np.ndarray) and m.dtype == np.int64
        assert m.shape == (g.n - 1, g.n - 1)
        assert det_calls[-1][2] == lifted

    def test_cayley_k150_over_several_prime_batches(self, det_calls):
        # the sandpile group of K150 is (Z/150)**148: s = 150, and the
        # cofactor primes are nearly as many as without the lifting
        self.assert_count(complete_graph(150), 150 ** 148, det_calls)
        assert det_calls[-1][1] >= 3

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 5), (20, 50), (40, 41)])
    def test_complete_bipartite(self, a, b, det_calls):
        self.assert_count(complete_bipartite(a, b), a ** (b - 1) * b ** (a - 1), det_calls)

    def test_hypercube_q7(self, det_calls):
        d = 7
        expected = 2 ** (2**d - d - 1) * math.prod(k ** math.comb(d, k) for k in range(1, d + 1))
        self.assert_count(hypercube(d), expected, det_calls)

    @pytest.mark.parametrize("n", [3, 32, 33, 65, 200])
    def test_cycle(self, n, det_calls):
        self.assert_count(cycle_graph(n), n, det_calls)

    def test_k1_and_a_disconnected_graph(self, det_calls):
        # the empty reduced Laplacian has determinant 1 without any work
        self.assert_count(complete_graph(1), 1, det_calls, lifted=False)
        # no spanning tree, and no determinant taken
        assert count_spanning_trees(disjoint_union(cycle_graph(40), complete_graph(30))).exact == 0
        assert len(det_calls) == 1


class TestVerifyCertificate:
    def setup_method(self):
        self.g = complete_graph(4)
        self.good = sigma(self.g)

    def test_accepts_genuine(self):
        assert verify_certificate(self.g, self.good).ok

    def test_rejects_shared_edge(self):
        t0 = self.good.trees[0]
        fake = TreePackingResult(2, (t0, t0), self.good.witness_partition)
        check = verify_certificate(self.g, fake)
        assert not check.ok and "share" in check.reason

    def test_rejects_short_tree(self):
        t0, t1 = self.good.trees
        fake = TreePackingResult(2, (t0, frozenset(list(t1)[:2])), None)
        assert not verify_certificate(self.g, fake).ok

    def test_rejects_foreign_edge(self):
        t0, t1 = self.good.trees
        doctored = frozenset(list(t1)[:2] + [(0, 9)])
        fake = TreePackingResult(2, (t0, doctored), None)
        check = verify_certificate(self.g, fake)
        assert not check.ok

    def test_rejects_cyclic_tree(self):
        # n - 1 = 3 edges, but a triangle on 0, 1, 2 leaves vertex 3 out
        triangle = frozenset({(0, 1), (0, 2), (1, 2)})
        fake = TreePackingResult(1, (triangle,), self.good.witness_partition)
        check = verify_certificate(self.g, fake)
        assert not check.ok and check.reason == "edge set is not a spanning tree"

    def test_rejects_wrong_tree_count(self):
        fake = TreePackingResult(3, self.good.trees, None)
        assert not verify_certificate(self.g, fake).ok

    def test_rejects_non_violating_witness(self):
        # singletons on K4: crossing 6 > (sigma+1)(t-1) - 1 = 8? no: 3(3)-1=8,
        # 6 <= 8 would pass -- use sigma=1 so the bound is 2*3-1 = 5 < 6
        fake = TreePackingResult(1, (self.good.trees[0],), singleton_partition(4))
        check = verify_certificate(self.g, fake)
        assert not check.ok and "not violating" in check.reason

    def test_rejects_missing_witness_when_needed(self):
        # K4 has m = 6 = 2*(n-1), so claiming sigma=1 with no witness is bogus
        fake = TreePackingResult(1, (self.good.trees[0],), None)
        check = verify_certificate(self.g, fake)
        assert not check.ok and "missing witness" in check.reason

    def test_rejects_a_moved_cut_side_or_a_changed_value(self):
        # G5's first copy sends kappa' = 2 edges out; with one vertex moved
        # out of it, or with the value off by one, the count no longer matches
        g = build_family(GD, 5)
        good = sigma(g, natural_partition(GD, 5))
        side, value = good.cut.side, good.cut.value
        assert (value, sorted(side)) == (2, list(range(6)))
        assert verify_certificate(g, good).ok
        for v in sorted(side):
            moved = (side - {v}) | {6}
            assert crossing_edges(g, partition(g.n, [moved, set(range(g.n)) - moved])) != 2
            check = verify_certificate(g, dataclasses.replace(good, cut=CutResult(value, moved)))
            assert not check.ok
            assert check.reason == "cut value is not its side's crossing count"
        for wrong in (value - 1, value + 1):
            check = verify_certificate(g, dataclasses.replace(good, cut=CutResult(wrong, side)))
            assert not check.ok
            assert check.reason == "cut value is not its side's crossing count"

    @pytest.mark.parametrize("side", [set(), set(range(4)), {0, 4}, {-1}],
                             ids=["empty", "everything", "outside", "negative"])
    def test_rejects_a_cut_side_that_is_not_a_proper_vertex_set(self, side):
        fake = dataclasses.replace(self.good, cut=CutResult(3, frozenset(side)))
        check = verify_certificate(self.g, fake)
        assert not check.ok
        assert check.reason == "cut side is not a proper nonempty vertex set"


def test_pack_result_verifier_rejects_corruption():
    g = complete_graph(4)
    ok = pack_trees(g, 3)
    assert not ok.success and verify_pack_result(g, ok).ok
    import dataclasses
    no_witness = dataclasses.replace(ok, witness=None)
    assert not verify_pack_result(g, no_witness).ok


def test_random_stress_against_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, len(pairs))
        g = make_graph(n, rng.sample(pairs, m))
        res = sigma(g)
        assert res.sigma == sigma_bruteforce(g).sigma
        assert verify_certificate(g, res).ok


# ---------------------------------------------------------------------------
# Determinism gate: the packer's output, down to the order of the trees and
# of the witness blocks, is pinned by hashes recorded before the rooted-forest
# path query replaced the per-query BFS.  A packer change that alters any
# tree, witness or certificate digest on this corpus fails here.


@functools.cache
def _determinism_corpus():
    corpus = {
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "K6": complete_graph(6),
        "K8": complete_graph(8),
        "C7": cycle_graph(7),
        "P6": path_graph(6),
        "Petersen": petersen_graph(),
        "K3,3": complete_bipartite(3, 3),
        "K4,5": complete_bipartite(4, 5),
        "K8-3K2": complete_minus_matching(8, 3),
        "K5+K5": disjoint_union(complete_graph(5), complete_graph(5)),
        "G5": build_family(GD, 5),
        "H7": build_family(HD, 7),
    }
    for d, n, seeds in ((6, 30, (1, 2, 3)), (10, 44, (1, 2, 3)), (10, 80, (1, 2))):
        for seed in seeds:
            corpus[f"rr{d}-{n}-s{seed}"] = random_regular(GenConfig(d, n, seed))
    return corpus


def _packing_fingerprint(g) -> str:
    """SHA-256 over every pack_trees result at k = 1..floor(m/(n-1))+1,
    the sigma result and the certificate digest that analyze reports."""
    def trees(ts):
        return None if ts is None else [sorted(t) for t in ts]

    def blocks(p):
        return None if p is None else [sorted(b) for b in p.blocks]

    packs = []
    for k in range(1, g.m // (g.n - 1) + 2):
        r = pack_trees(g, k)
        packs.append([k, r.success, trees(r.trees), blocks(r.witness)])
    s = sigma(g)
    doc = {
        "pack": packs,
        "sigma": [s.sigma, trees(s.trees), blocks(s.witness_partition)],
        "digest": _certificate_digest(s),
    }
    blob = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


PINNED_FINGERPRINTS = {
    "C7":
        "2b157bd3d79e418cd1552fd6f32e840d6021cc33ba8e95bc987e3d460c2b598b",
    "G5":
        "c43f9394dfbf06d89463235541f86ce48770a46269978870b8716382fd17ba32",
    "H7":
        "dc7b22ea44155bf184bbbf2f713b493673dfb7d19e6ea0c866889e61678607b7",
    "K3,3":
        "2086559222aa3e409e43562611173c8bf8c5899d05521f2088394190a33ab738",
    "K4":
        "f74fdd1547f9cda15221254eda7dbc393558ebd6a3beaae564804797e17e2b19",
    "K4,5":
        "547b4c51daa12b10b5ceb618b2c70e6c454c763f8e4679c8629a2e18907cf148",
    "K5":
        "70239a83f3926f2e7e05ca8dab81a331202abcba136db2d75038511367e8df46",
    "K5+K5":
        "44a2533ba76374366ef932eecbbf3d36fc246d7482cd6546509c590a34a1c71a",
    "K6":
        "78440425dd80d2e363e569e7108e036cd2212ec626fcf6c0677dcf49a7935d70",
    "K8":
        "66b6d9955b6f401e339ad622b968f993ad0d96fe70b0282931df55f9076c7590",
    "K8-3K2":
        "1ae6bd980ddaf31e6c10dec3404d907835bf137c4f80c4cb3367d21cc31b3138",
    "P6":
        "5fc614e8fef602a3ff941e8ffba66e384f09ef401d131a936022b3b03dec9b7c",
    "Petersen":
        "07fbf18b58c7f99514cf82cc670362a506d8a216a0aea112ad39f620751def22",
    "rr10-44-s1":
        "b02f0e2249afa8730c3615d3fd229eebdcedf0a31be5e1bcf12680c524ecfd2a",
    "rr10-44-s2":
        "c9e2176c69ec05f05ed9030fa1f080693aba4f5fd240d9ca67a45c9f5b01069d",
    "rr10-44-s3":
        "b5d0ea7eab147b51f6c4bec745ac30dd451c8c234a0f03774f0d9fc213e51bc6",
    "rr10-80-s1":
        "2e75b5273735d35bfc9e5adb5536147eb6a69b3e6a57ba8980428de0400a9daa",
    "rr10-80-s2":
        "ec4910bdf63d3db96f085e1d7ccc7004d0a0a33ecc4292d1e86fe3cf3fce71f1",
    "rr6-30-s1":
        "9f6890fe2d91e042ecbe4d698db66c6037b6b9ca944b41ed312276008980b4ab",
    "rr6-30-s2":
        "f807a257fb58b0bae00b5eddb524201b2637feb202355ba7241077825f26a4ce",
    "rr6-30-s3":
        "f86eeaf4ee08f40b20d9c5fe2c66f606d51b7d6b34195f0a6ef0d32beae8890e",
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_packing_output_is_pinned(name):
    g = _determinism_corpus()[name]
    assert _packing_fingerprint(g) == PINNED_FINGERPRINTS[name]


def test_pinned_corpus_is_complete():
    assert sorted(PINNED_FINGERPRINTS) == sorted(_determinism_corpus())


# A wider pin on the graphs the sweep draws: ten seeded random regular graphs
# for each (d, n) of the sweep mix and three 10-regular graphs on 80
# vertices, packed at k = 1..floor(d/2)+1 (the last k always fails, so the
# rejection path and its witness are covered too).  One SHA-256 covers the
# trees in forest order and the witness blocks in partition order.
PINNED_SWEEP_PACKS = "fb27698e7a48b253419d06ec18330415f2f77bc7e0e5717eb60b4bcd03a0fe0b"


def _sweep_pack_corpus():
    state = 1
    for d, n, count in ((6, 30, 10), (8, 32, 10), (10, 44, 10), (10, 80, 3)):
        for _ in range(count):
            state, seed = splitmix64(state)
            yield d, n, seed


def test_pack_trees_is_pinned_on_seeded_regular_graphs():
    h = hashlib.sha256()
    for d, n, seed in _sweep_pack_corpus():
        g = random_regular(GenConfig(d, n, seed))
        for k in range(1, d // 2 + 2):
            r = pack_trees(g, k)
            doc = [d, n, seed, k, r.success,
                   None if r.trees is None else [sorted(t) for t in r.trees],
                   None if r.witness is None else [sorted(b) for b in r.witness.blocks]]
            h.update(json.dumps(doc, separators=(",", ":")).encode())
    assert h.hexdigest() == PINNED_SWEEP_PACKS


# The long-chain regime: pack_trees(g, 5) on the 32 graphs of the analyze
# benchmark's pool (10-regular, n = 80, graph seeds from splitmix64 at seed 1).
# The five trees take 395 of the 400 edges, and each pack runs some 60
# exchange chains of length one or more.  One SHA-256 covers the trees in
# forest order.
PINNED_LONG_CHAIN_PACKS = "5dea552268ddc56262a22809784d3c36d577dbe33d1633d5c936928ef2584d35"


def test_pack_trees_is_pinned_on_long_chains():
    h = hashlib.sha256()
    state = 1
    for _ in range(32):
        state, seed = splitmix64(state)
        r = pack_trees(random_regular(GenConfig(10, 80, seed)), 5)
        doc = [seed, r.success,
               None if r.trees is None else [sorted(t) for t in r.trees],
               None if r.witness is None else [sorted(b) for b in r.witness.blocks]]
        h.update(json.dumps(doc, separators=(",", ":")).encode())
    assert h.hexdigest() == PINNED_LONG_CHAIN_PACKS


# ---------------------------------------------------------------------------
# sigma starts at Kundu's bound max(floor(kappa'/2), 1) and climbs: one pack
# when the bound is the edge bound, else one success at the bound and the
# failure above it.  Handed the copy partition of G5 or H7 ("/copies"), it
# stops after the success: the copies violate the count at sigma+1.


def _k5_bridge_k8():
    """K5 and K8 joined by one edge: kappa' 1, sigma 1 and edge bound 3."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 13) for v in range(u + 1, 13)]
    return make_graph(13, edges + [(4, 5)])


_COPIES = {"G5": (GD, 5), "H7": (HD, 7)}


@pytest.mark.parametrize("name,start,packs", [
    ("rr10-80-s1", 5, 1),   # kappa' 10: the start is sigma and the edge bound
    ("H7", 2, 2),           # kappa' 4: k = 2 = sigma packs, k = 3 fails
    ("G5", 1, 2),           # kappa' 2: k = 1 = sigma packs, k = 2 fails
    ("K5-K8", 1, 2),        # kappa' 1: floor(kappa'/2) = 0 is raised to 1
    ("G5/copies", 1, 1),    # 3 copies, 3 crossing edges: no 2 trees
    ("H7/copies", 2, 1),    # 5 copies, 10 crossing edges: no 3 trees
])
def test_sigma_pack_count(monkeypatch, name, start, packs):
    name, _, copies = name.partition("/")
    g = _k5_bridge_k8() if name == "K5-K8" else _determinism_corpus()[name]
    witness = natural_partition(*_COPIES[name]) if copies else None
    calls = []

    def counted(g, k):
        calls.append(k)
        return pack_trees(g, k)

    monkeypatch.setattr(packing, "pack_trees", counted)
    res = sigma(g, witness)
    assert calls[0] == start
    assert len(calls) == packs
    if copies:
        assert res.witness_partition == witness


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_sigma_with_a_partition_that_certifies_or_not_is_unchanged(name):
    # the graph's own sigma+1 witness stops the climb where the failing pack
    # would, with the same partition; the singletons violate only above the
    # edge bound, which the climb never passes, so they change nothing.  On
    # G5 and H7 that witness is the copy partition, whose first copy proves
    # kappa' with the certificate and becomes the cut side.
    g = _determinism_corpus()[name]
    plain = sigma(g)
    if plain.witness_partition is not None:
        handed = sigma(g, plain.witness_partition)
        if name in _COPIES:
            assert plain.witness_partition == natural_partition(*_COPIES[name])
            assert handed.cut == CutResult(plain.cut.value, plain.witness_partition.blocks[0])
            handed = dataclasses.replace(handed, cut=plain.cut)
        assert handed == plain
    assert sigma(g, singleton_partition(g.n)) == plain


def _count_edge_connectivity(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return edge_connectivity(g)

    monkeypatch.setattr(packing, "edge_connectivity", counted)
    return calls


def test_sigma_falls_back_to_stoer_wagner_when_the_least_boundary_is_above_kappa(monkeypatch):
    # no block of Hd has 5 boundary edges: a union of k copies has
    # k(5 - k), 4 or 6, and a block that splits a copy has at least d - 1;
    # at d = 6 every boundary count is even.  Copies {0, 1} and {2, 3, 4}
    # have 6 each, and q_6 does not certify kappa' >= 6.
    for d in (7, 8):
        g = build_family(HD, d)
        copies = natural_partition(HD, d).blocks
        halves = partition(g.n, [copies[0] | copies[1], copies[2] | copies[3] | copies[4]])
        calls = _count_edge_connectivity(monkeypatch)
        res = sigma(g, halves)
        assert calls == [g.n]
        assert res.cut == edge_connectivity(g)
        assert res.cut.value == 4 and res.sigma == 2


@pytest.mark.parametrize("g, blocks", [
    (build_family(GD, 5), [range(18)]),
    (disjoint_union(complete_graph(4), complete_graph(4)), [[0, 1, 2, 3], [4, 5], [6, 7]]),
], ids=["G5-one-block", "2K4-no-boundary"])
def test_sigma_takes_no_cut_from_a_block_without_boundary_edges(monkeypatch, g, blocks):
    p = partition(g.n, blocks)
    calls = _count_edge_connectivity(monkeypatch)
    res = sigma(g, p)
    assert calls == [g.n]
    assert res.cut == edge_connectivity(g)


@pytest.mark.parametrize("g", [complete_graph(1), complete_graph(5),
                               disjoint_union(complete_graph(5), complete_graph(5))],
                         ids=["K1", "K5", "K5+K5"])
def test_sigma_refuses_a_partition_of_another_vertex_count(monkeypatch, g):
    def no_pack(g, k):
        raise AssertionError("sigma packed before refusing the partition")

    monkeypatch.setattr(packing, "pack_trees", no_pack)
    with pytest.raises(ValueError, match="does not match"):
        sigma(g, singleton_partition(g.n + 1))


# ---------------------------------------------------------------------------
# The forest state of _Packer under its link and swap operations: after
# every operation the component ids, the rooted form and the path queries
# must agree with breadth-first searches of the forest.


def _bfs_path(adj, u, v):
    """Reference: the u-v path in a forest by BFS from u, edges from v to u."""
    parent = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = []
    x = v
    while x != u:
        px = parent[x]
        path.append((px, x) if px < x else (x, px))
        x = px
    return path


class _ForestModel:
    """k forests of a _Packer, edited only through its _link and _swap, with
    each forest's adjacency kept beside it for the checks."""

    def __init__(self, n, k):
        self.n = n
        self.packer = _Packer(make_graph(n, []), k)
        self.adj = [[set() for _ in range(n)] for _ in range(k)]
        self.edges = [set() for _ in range(k)]

    def _add(self, i, e):
        u, v = e
        self.adj[i][u].add(v)
        self.adj[i][v].add(u)
        self.edges[i].add(e)

    def _remove(self, i, e):
        u, v = e
        self.adj[i][u].discard(v)
        self.adj[i][v].discard(u)
        self.edges[i].discard(e)

    def component(self, i, x):
        seen, stack = {x}, [x]
        while stack:
            for y in self.adj[i][stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def free(self, e):
        return all(e not in edges for edges in self.edges)

    def pick_link(self, rng, i):
        """An edge held by no forest whose ends are apart in forest i."""
        a = rng.randrange(self.n)
        outside = sorted(set(range(self.n)) - self.component(i, a))
        if outside:
            e = tuple(sorted((a, rng.choice(outside))))
            if self.free(e):
                return e
        return None

    def pick_swap(self, rng, i):
        """A tree edge of forest i and an edge held by no forest whose
        forest path runs through it."""
        if not self.edges[i]:
            return None
        out = rng.choice(sorted(self.edges[i]))
        self._remove(i, out)
        side_a, side_b = self.component(i, out[0]), self.component(i, out[1])
        self._add(i, out)
        e = tuple(sorted((rng.choice(sorted(side_a)), rng.choice(sorted(side_b)))))
        return (out, e) if e != out and self.free(e) else None

    def link(self, i, e):
        self._add(i, e)
        self.packer._link(i, e)

    def swap(self, i, out, e):
        self._remove(i, out)
        self._add(i, e)
        self.packer._swap(i, out, e)

    def check(self, rng, i, queries=4):
        """Edge set, component ids and sizes, rooted form and path queries
        of forest i against breadth-first searches of its adjacency."""
        packer, n = self.packer, self.n
        comp, parent, depth = packer.comp[i], packer.parent[i], packer.depth[i]
        assert packer.forests_as_edge_sets()[i] == self.edges[i]
        ids, trees = set(), []
        seen = set()
        for x in range(n):
            if x in seen:
                continue
            tree = self.component(i, x)
            seen |= tree
            trees.append(tree)
            # one id per tree, a different one for every tree
            assert {comp[y] for y in tree} == {comp[x]} and comp[x] not in ids
            ids.add(comp[x])
            assert packer.size[i][comp[x]] == len(tree)
            # climbing parent reaches the tree's one root in depth[y] steps,
            # along forest edges
            roots = set()
            for y in tree:
                z = y
                for _ in range(depth[y]):
                    assert parent[z] in self.adj[i][z]
                    z = parent[z]
                assert parent[z] == z
                roots.add(z)
            assert len(roots) == 1
        for _ in range(queries):
            tree = rng.choice(trees)
            if len(tree) > 1:
                u, v = rng.sample(sorted(tree), 2)
                assert packer._tree_path(i, u, v) == _bfs_path(self.adj[i], u, v)


@pytest.mark.parametrize("seed", range(6))
def test_tree_path_matches_bfs_on_random_forests(seed):
    # forests grown by links alone, in random order, down to a few trees
    rng = random.Random(seed)
    n = rng.randint(20, 150)
    model = _ForestModel(n, 3)
    for i in range(3):
        for _ in range(n - rng.randint(1, 6)):
            e = model.pick_link(rng, i)
            if e is not None:
                model.link(i, e)
                model.check(rng, i, 2)


@pytest.mark.parametrize("seed", range(6))
def test_tree_path_follows_interleaved_edits(seed):
    # random sequences of links and swaps, each re-hanging only the part that
    # moved, and of chains that touch one forest twice: a swap, then a link
    # in the same forest
    rng = random.Random(100 + seed)
    n = rng.randint(20, 150)
    model = _ForestModel(n, 2)
    # start from a third to two thirds as many trees as vertices, so that
    # links stay possible through the sequence
    for i in range(2):
        for _ in range(n - rng.randint(n // 3, 2 * n // 3)):
            e = model.pick_link(rng, i)
            if e is not None:
                model.link(i, e)
    for _ in range(80):
        i = rng.randrange(2)
        op = rng.randrange(3)
        if op == 0:
            e = model.pick_link(rng, i)
            if e is not None:
                model.link(i, e)
        elif op == 1:
            picked = model.pick_swap(rng, i)
            if picked is not None:
                model.swap(i, *picked)
        else:
            picked = model.pick_swap(rng, i)
            if picked is not None:
                model.swap(i, *picked)
            e = model.pick_link(rng, i)
            if e is not None:
                model.link(i, e)
        model.check(rng, i)
        model.check(rng, 1 - i, 1)


# ---------------------------------------------------------------------------
# Properties of sigma on graphs well past the n <= 12 brute-force oracle.


@st.composite
def large_graphs(draw, max_n=150):
    """Seeded random regular graphs and G(n, p) graphs with 10 <= n <= max_n."""
    n = draw(st.integers(min_value=10, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=3, max_value=8))
        if n * d % 2:
            n -= 1
        return random_regular(GenConfig(d, n, seed))
    avg_degree = draw(st.floats(min_value=1.0, max_value=10.0))
    rng = random.Random(seed)
    p = avg_degree / (n - 1)
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


@settings(max_examples=25, deadline=None)
@given(large_graphs())
def test_sigma_bounds_and_certificate_on_large_graphs(g):
    result = sigma(g)
    assert verify_certificate(g, result).ok
    # a certified regular graph keeps the single-vertex cut; any other
    # graph gets Stoer-Wagner's
    d = g.degree_if_regular()
    if d and certified_floor(g, d):
        assert result.cut == CutResult(d, frozenset({0}))
    else:
        assert result.cut == edge_connectivity(g)
    kappa = result.cut.value
    assert kappa == edge_connectivity(g).value
    assert kappa // 2 <= result.sigma <= min(min(g.degrees), g.m // (g.n - 1))


@settings(max_examples=15, deadline=None)
@given(large_graphs(), st.randoms(use_true_random=False))
def test_sigma_invariant_under_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    result = sigma(relabelled)
    assert result.sigma == sigma(g).sigma
    assert verify_certificate(relabelled, result).ok


@settings(max_examples=15, deadline=None)
@given(large_graphs(), st.randoms(use_true_random=False))
def test_one_more_edge_raises_sigma_by_at_most_one(g, rnd):
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
               if (u, v) not in g.edges]
    assume(missing)
    bigger = add_edges(g, [rnd.choice(missing)])
    before, after = sigma(g), sigma(bigger)
    assert before.sigma <= after.sigma <= before.sigma + 1
    assert verify_certificate(bigger, after).ok


# ---------------------------------------------------------------------------
# The labeling search stops at clumps.  The reference below is the search
# that enqueues every labeled edge, with its clumps in a union-find; on
# graphs well past the n <= 12 brute-force oracle, pack_trees must give the
# same trees in forest order and the same witness blocks.


def _pack_outcome(g, k):
    r = pack_trees(g, k)
    return (r.success,
            None if r.trees is None else [sorted(t) for t in r.trees],
            None if r.witness is None else [sorted(b) for b in r.witness.blocks])


def _regular_reference_corpus():
    rng = random.Random(11)
    for _ in range(16):
        d = rng.randint(3, 10)
        n = rng.randrange(d + 2, 101)
        if n * d % 2:
            n += 1
        yield d, n, rng.getrandbits(32)


@pytest.mark.parametrize("d,n,seed", list(_regular_reference_corpus()))
def test_pack_trees_matches_reference_on_random_regular(d, n, seed):
    g = random_regular(GenConfig(d, n, seed))
    assert len(g.components) == 1
    for k in range(1, d // 2 + 2):
        assert _pack_outcome(g, k) == reference_pack(g, k)


@st.composite
def connected_irregular_graphs(draw):
    """A random spanning tree plus random extra edges, 13 <= n <= 40."""
    n = draw(st.integers(min_value=13, max_value=40))
    extra = draw(st.integers(min_value=0, max_value=4 * n))
    rnd = draw(st.randoms(use_true_random=False))
    tree = {(rnd.randrange(v), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, sorted(tree | set(rnd.sample(pairs, extra))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(connected_irregular_graphs())
def test_pack_trees_matches_reference_on_irregular_graphs(g):
    assume(g.degree_if_regular() is None)
    top = g.m // (g.n - 1)
    for k in range(1, top + 1):
        assert _pack_outcome(g, k) == reference_pack(g, k)
    # top + 1 trees need more edges than g has: the n singletons witness it
    over = pack_trees(g, top + 1)
    assert over.witness == singleton_partition(g.n)
    assert verify_pack_result(g, over).ok


def test_too_few_edges_settle_without_packing(monkeypatch):
    # m < k(n - 1): the edge count alone refuses k trees, so no packer runs
    monkeypatch.setattr(packing, "_Packer", None)
    g = random_regular(GenConfig(10, 300, 5))
    r = pack_trees(g, 6)
    assert not r.success and r.witness == singleton_partition(g.n)
    assert verify_pack_result(g, r).ok


def test_labeling_search_never_queries_inside_a_clump(monkeypatch):
    # a rejection-heavy sweep-mix pack: the reference asks for forest paths
    # between the ends of in-clump edges, pack_trees must not
    g = random_regular(GenConfig(10, 44, 1))
    in_clump = {_Packer: 0, ReferencePacker: 0}
    queries = dict(in_clump)

    def watch(cls, same_clump):
        tree_path = cls._tree_path

        def watched(self, i, u, v):
            queries[cls] += 1
            in_clump[cls] += same_clump(self, u, v)
            return tree_path(self, i, u, v)

        monkeypatch.setattr(cls, "_tree_path", watched)

    watch(_Packer, lambda p, u, v: p.clump[u] == p.clump[v])
    watch(ReferencePacker, lambda p, u, v: p.clumps.find(u) == p.clumps.find(v))
    assert _pack_outcome(g, 3) == reference_pack(g, 3)
    assert in_clump[ReferencePacker] > 0
    assert in_clump[_Packer] == 0
    assert queries[_Packer] < queries[ReferencePacker]


@st.composite
def packing_graphs(draw):
    """large_graphs, or (one time in four) the disjoint union of two
    smaller ones."""
    if draw(st.integers(0, 3)):
        return draw(large_graphs())
    return disjoint_union(draw(large_graphs(max_n=75)), draw(large_graphs(max_n=75)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(packing_graphs())
def test_pack_trees_matches_reference_on_large_graphs(g):
    for k in range(1, g.m // (g.n - 1) + 2):
        assert _pack_outcome(g, k) == reference_pack(g, k)


def _chain_corpus():
    """Hd at d = 6 with k = 3, the 32 analyze-pool graphs with k = 5, and the
    sweep-mix graphs with k = 2 and 3."""
    yield build_family(HD, 6), 3
    state = 1
    for _ in range(32):
        state, seed = splitmix64(state)
        yield random_regular(GenConfig(10, 80, seed)), 5
    for d, n, seed in _sweep_pack_corpus():
        g = random_regular(GenConfig(d, n, seed))
        yield g, 2
        yield g, 3


def test_every_chain_move_is_valid_when_made(monkeypatch):
    # a chain applies its moves one by one from the new edge outward, each
    # re-hanging only what moved: every swap's dropped edge must be on its new
    # edge's path in the forest as the earlier moves left it, and every link's
    # ends apart, also on chains that touch one forest twice
    swap, link, apply_chain = _Packer._swap, _Packer._link, _Packer._apply_chain
    touched = []
    chains = twice = 0

    def checked_swap(self, i, out, e):
        assert out in self._tree_path(i, *e)
        touched.append(i)
        swap(self, i, out, e)

    def checked_link(self, i, e):
        assert self.comp[i][e[0]] != self.comp[i][e[1]]
        touched.append(i)
        link(self, i, e)

    def counted_chain(self, edge, forest, label):
        nonlocal chains, twice
        touched.clear()
        apply_chain(self, edge, forest, label)
        chains += 1
        twice += len(set(touched)) < len(touched)

    monkeypatch.setattr(_Packer, "_swap", checked_swap)
    monkeypatch.setattr(_Packer, "_link", checked_link)
    monkeypatch.setattr(_Packer, "_apply_chain", counted_chain)
    for g, k in _chain_corpus():
        assert _pack_outcome(g, k) == reference_pack(g, k)
    assert 0 < twice < chains


def test_labeled_edges_are_tested_when_labeled(monkeypatch):
    # the labeling search tests each edge for a plain insert when it labels
    # it, so an accepted search stops before querying the paths of the edges
    # queued ahead of the winner.  On the 32 analyze-pool graphs at k = 5 a
    # search that tests each edge when it dequeues it makes at least 1,550
    # path queries per pack.  At k = 6 (474 > 400 edges) every pack fails,
    # which covers the rejected searches and the witnesses.
    tree_path = _Packer._tree_path
    queries = 0

    def counted(self, i, u, v):
        nonlocal queries
        queries += 1
        return tree_path(self, i, u, v)

    monkeypatch.setattr(_Packer, "_tree_path", counted)
    state = 1
    for _ in range(32):
        state, seed = splitmix64(state)
        g = random_regular(GenConfig(10, 80, seed))
        queries = 0
        outcome = _pack_outcome(g, 5)
        assert outcome[0] and queries <= 600
        assert outcome == reference_pack(g, 5)
        outcome = _pack_outcome(g, 6)
        assert not outcome[0]
        assert outcome == reference_pack(g, 6)
