"""Acceptance suite: one test per stated requirement, each with its runtime
budget, run at the stated tolerance.  Everything here is an end-to-end check
against independent oracles or exact arithmetic; nothing reuses cached state
from the other test modules."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from builders import (
    complete_bipartite,
    complete_graph,
    complete_minus_matching,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from oracles import (
    count_spanning_trees_exhaustive,
    edge_connectivity_bruteforce,
    sigma_bruteforce,
)

from treepack.connectivity import edge_connectivity
from treepack.exact import char_poly_exact, descartes_positivity_check
from treepack.families import (
    GD,
    HD,
    build_family,
    claimed_charpoly,
    equitable_partition,
    p10_poly,
    verify_Gd,
    verify_Hd,
)
from treepack.graphs import make_graph, petersen_graph, singleton_partition
from treepack.packing import (
    TreePackingResult,
    count_spanning_trees,
    sigma,
    verify_certificate,
)
from treepack.randgen import theorem_check
from treepack.spectra import equitable_quotient


NAMED_GRAPHS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K6": complete_graph(6),
    "K7": complete_graph(7),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "P4": path_graph(4),
    "P6": path_graph(6),
    "Petersen": petersen_graph(),
    "2K3": disjoint_union(complete_graph(3), complete_graph(3)),
    "K6-2matching": complete_minus_matching(6, 2),
    "K33": complete_bipartite(3, 3),
    "K1": make_graph(1, []),
    "E4": make_graph(4, []),
}


def random_graph(rng, n_max=10, n_min=2):
    n = rng.randint(n_min, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # skew density so both near-empty and near-complete graphs show up
    density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
    m = min(len(pairs), max(0, int(density * len(pairs)) + rng.randint(-2, 2)))
    return make_graph(n, rng.sample(pairs, m))


def test_01_gd_family_certified_for_all_small_d():
    start = time.perf_counter()
    for d in range(4, 13):
        report = verify_Gd(d)
        assert report.all_passed, (d, [c.name for c in report.checks if not c.passed])
        assert report.sigma == 1
        assert report.kappa_prime == 2
        assert report.graph.n == 3 * (d + 1)
        assert next(c for c in report.checks if c.name == "theta_interval_exact").passed
        # the tight isolating interval must itself overlap the claimed one
        iso_lo, iso_hi = report.lambda2_interval
        assert iso_hi - iso_lo <= Fraction(1, 10 ** 12)
        assert Fraction(d) - Fraction(3, d + 2) < iso_hi
        assert iso_lo < Fraction(d) - Fraction(3, d + 3)
        if d == 4:
            assert abs(report.lambda2 - 3.569) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"


def test_02_hd_family_certified_for_all_small_d():
    start = time.perf_counter()
    for d in range(6, 13):
        report = verify_Hd(d)
        assert report.all_passed, (d, [c.name for c in report.checks if not c.passed])
        assert report.sigma == 2
        assert report.graph.n == 5 * (d + 1)
        assert next(c for c in report.checks if c.name == "gamma_interval_exact").passed
        iso_lo, iso_hi = report.lambda2_interval
        assert iso_hi - iso_lo <= Fraction(1, 10 ** 12)
        assert Fraction(d) - Fraction(5, d + 1) <= iso_hi
        assert iso_lo < Fraction(d) - Fraction(5, d + 3)
        if d == 10:
            assert abs(report.lambda2 - 9.609) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"budget blown: {elapsed:.1f}s"


def test_03_quotient_charpoly_factorizations_coefficient_exact():
    # the quotient is computed from the built graph, not transcribed
    start = time.perf_counter()
    for spec, degrees in ((GD, range(4, 41)), (HD, range(6, 21))):
        for d in degrees:
            q = equitable_quotient(build_family(spec, d), equitable_partition(spec, d))
            assert q is not None and char_poly_exact(q) == claimed_charpoly(spec, d), d
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"budget blown: {elapsed:.1f}s"


def test_04_all_derivatives_positive_at_interval_endpoint():
    start = time.perf_counter()
    for d in range(6, 201):
        point = Fraction(d) - Fraction(5, d + 3)
        report = descartes_positivity_check(p10_poly(d), point)
        assert report.all_positive, d
        assert len(report.values) == 11
    # reported whole-number spot values at d = 6
    spot = descartes_positivity_check(p10_poly(6), Fraction(6) - Fraction(5, 9))
    assert spot.values[9] == 18305280
    assert spot.values[8] == 44670080
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"


def test_05_spectrum_multisets_match_claimed_form():
    for d in (4, 6, 8):
        report = verify_Gd(d)
        check = next(c for c in report.checks if c.name == "spectrum_multiset")
        assert check.passed
        assert check.margin is not None and check.margin <= 1e-7
        # claimed shape: d once, three double roots, -1 with multiplicity 3d-4
        flat = [v for v, mult in report.spectrum_expected for _ in range(mult)]
        assert len(flat) == 3 * (d + 1)
        mult_of_minus1 = sum(m for v, m in report.spectrum_expected if abs(v + 1) < 1e-12)
        assert mult_of_minus1 == 3 * d - 4
    for d in (6, 10):
        report = verify_Hd(d)
        check = next(c for c in report.checks if c.name == "spectrum_multiset")
        assert check.passed
        assert check.margin is not None and check.margin <= 1e-7
        mult_of_minus1 = sum(m for v, m in report.spectrum_expected if abs(v + 1) < 1e-12)
        assert mult_of_minus1 == 5 * d - 18


def test_06_sigma_and_cut_match_bruteforce_oracles_on_corpus():
    start = time.perf_counter()
    rng = random.Random(60606)
    corpus = list(NAMED_GRAPHS.values())
    corpus += [random_graph(rng) for _ in range(520)]
    assert len(corpus) >= 500 + len(NAMED_GRAPHS) - 20
    checked_sigma = checked_cut = 0
    for g in corpus:
        res = sigma(g)
        assert res.sigma == sigma_bruteforce(g).sigma, g
        assert verify_certificate(g, res).ok, g
        checked_sigma += 1
        if g.n >= 2:
            assert edge_connectivity(g).value == edge_connectivity_bruteforce(g), g
            checked_cut += 1
    assert checked_sigma >= 500 and checked_cut >= 500
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"budget blown: {elapsed:.1f}s"


def test_07_spanning_tree_count_routes_agree():
    start = time.perf_counter()
    assert count_spanning_trees(complete_graph(4)).exact == 16
    assert count_spanning_trees(cycle_graph(5)).exact == 5
    rng = random.Random(70707)
    exhaustive_checked = 0
    for _ in range(200):
        n = rng.randint(2, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # sparse: tree-ish plus a few extra edges, so the float route stays
        # inside exact-integer range
        m = min(len(pairs), n - 1 + rng.randint(0, 6))
        g = make_graph(n, rng.sample(pairs, m))
        c = count_spanning_trees(g)
        assert c.agree is True, (g.n, g.m, c)
        if g.m <= 18:
            assert c.exact == count_spanning_trees_exhaustive(g)
            exhaustive_checked += 1
    for g in NAMED_GRAPHS.values():
        if g.n >= 1:
            c = count_spanning_trees(g)
            if g.m <= 18:
                assert c.exact == count_spanning_trees_exhaustive(g)
                exhaustive_checked += 1
    assert exhaustive_checked > 50
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"budget blown: {elapsed:.1f}s"


def test_08_theorem_sweep_has_zero_violations():
    start = time.perf_counter()
    for d, n in ((6, 30), (8, 32), (10, 44)):
        for k in (2, 3):
            report = theorem_check(d=d, n=n, k=k, trials=200, seed=d * 1000 + k)
            assert report.counterexamples == (), (d, n, k)
            assert report.premise_only == 0, (d, n, k)
            total = (report.premise_and_conclusion + report.premise_only
                     + report.conclusion_only + report.neither)
            assert total == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"budget blown: {elapsed:.1f}s"


def test_09_certificates_sound_and_corruptions_rejected():
    rng = random.Random(90909)
    corpus = [g for g in NAMED_GRAPHS.values()]
    corpus += [random_graph(rng, n_max=9) for _ in range(60)]
    corpus += [build_family(GD, 4), build_family(GD, 5)]
    rejected = 0
    for g in corpus:
        res = sigma(g)
        assert verify_certificate(g, res).ok, g

        # fuzz: every structured corruption must be caught
        if res.trees:
            victim = rng.randrange(len(res.trees))
            trees = list(res.trees)

            shorter = frozenset(list(trees[victim])[1:])
            assert not verify_certificate(
                g, dataclasses.replace(res, trees=tuple(
                    shorter if i == victim else t for i, t in enumerate(trees)))).ok
            rejected += 1

            foreign = frozenset(list(trees[victim])[1:]) | {(g.n + 3, g.n + 4)}
            assert not verify_certificate(
                g, dataclasses.replace(res, trees=tuple(
                    foreign if i == victim else t for i, t in enumerate(trees)))).ok
            rejected += 1

            if len(res.trees) >= 2:
                doubled = tuple(trees[0] if i == 1 else t for i, t in enumerate(trees))
                assert not verify_certificate(
                    g, dataclasses.replace(res, trees=doubled)).ok
                rejected += 1

        # inflating sigma without supplying another tree must be caught
        assert not verify_certificate(
            g, dataclasses.replace(res, sigma=res.sigma + 1)).ok
        rejected += 1

        # a witness that does not actually violate the counting bound must
        # be caught whenever singletons fail the bound for sigma + 1
        if g.n >= 2:
            from treepack.graphs import crossing_edges

            singles = singleton_partition(g.n)
            if crossing_edges(g, singles) > (res.sigma + 1) * (g.n - 1) - 1:
                assert not verify_certificate(
                    g, dataclasses.replace(res, witness_partition=singles)).ok
                rejected += 1

    # the sigma-inflation corruption runs for every graph; tree and witness
    # corruptions add more whenever the graph packs at least one tree
    assert rejected >= len(corpus) + 50


def test_family_sigma_results_carry_valid_certificates():
    # the family reports recompute sigma internally; double-check the exact
    # same graphs through the public API
    for d in (4, 6):
        g = build_family(GD, d)
        res = sigma(g)
        assert res.sigma == 1
        assert verify_certificate(g, res).ok
