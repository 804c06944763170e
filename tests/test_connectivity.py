import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from builders import add_edges, cycle_graph, disjoint_union, path_graph
from oracles import edge_connectivity_bruteforce, leading_minors, reference_edge_connectivity
from test_packing import _determinism_corpus

import treepack.connectivity as connectivity
from treepack.connectivity import _certified_floor, edge_connectivity
from treepack.exact import det_exact
from treepack.families import build_Gd, build_Hd
from treepack.graphs import complete_graph, crossing_edges, make_graph, partition, petersen_graph
from treepack.randgen import GenConfig, random_regular, splitmix64, theorem_threshold
from treepack.spectra import certify_lambda2_below


@st.composite
def graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return make_graph(n, edges)


@pytest.mark.parametrize("g,expected", [
    (complete_graph(5), 4),
    (complete_graph(4), 3),
    (cycle_graph(6), 2),
    (path_graph(4), 1),
    (petersen_graph(), 3),
    (complete_graph(2), 1),
])
def test_known_cut_values(g, expected):
    assert edge_connectivity(g).value == expected
    assert edge_connectivity_bruteforce(g) == expected


def test_disconnected_graph_has_zero_cut():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    r = edge_connectivity(g)
    assert r.value == 0
    assert r.side == frozenset({0, 1, 2})
    assert edge_connectivity_bruteforce(g) == 0


def test_cut_side_certifies_the_value():
    for g in [complete_graph(5), cycle_graph(6), petersen_graph(), path_graph(5)]:
        r = edge_connectivity(g)
        other = frozenset(range(g.n)) - r.side
        p = partition(g.n, [r.side, other])
        assert crossing_edges(g, p) == r.value


def test_single_vertex_rejected():
    with pytest.raises(ValueError):
        edge_connectivity(make_graph(1, []))
    with pytest.raises(ValueError):
        edge_connectivity_bruteforce(make_graph(1, []))


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        edge_connectivity_bruteforce(complete_graph(17))


def test_gd_family_member_has_cut_two():
    g = build_Gd(4)   # 15 vertices: inside the brute-force guard
    assert edge_connectivity_bruteforce(g) == 2
    assert edge_connectivity(g).value == 2


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_stoer_wagner_matches_bruteforce(g):
    fast = edge_connectivity(g)
    assert fast.value == edge_connectivity_bruteforce(g)
    # the returned side must be proper and certify the value
    assert 0 < len(fast.side) < g.n
    p = partition(g.n, [fast.side, frozenset(range(g.n)) - fast.side])
    assert crossing_edges(g, p) == fast.value


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_cut_at_most_min_degree(g):
    assert edge_connectivity(g).value <= min(g.degrees)


# ---------------------------------------------------------------------------
# The cut side is pinned: (value, sorted side) as the dense O(n^3)
# Stoer-Wagner returned them before the sparse heap version replaced it.
# Both pick the next vertex by maximum attachment, ties to the smallest
# index, so every phase, every contraction and the side are the same.

PINNED_CUTS = {
    'K4': (3, [3]),
    'K5': (4, [4]),
    'K6': (5, [5]),
    'K8': (7, [7]),
    'C7': (2, [6]),
    'P6': (1, [5]),
    'Petersen': (3, [9]),
    'K3,3': (3, [5]),
    'K4,5': (4, [8]),
    'K8-3K2': (6, [5]),
    'K5+K5': (0, [*range(0, 5)]),
    'G5': (2, [*range(12, 18)]),
    'H7': (4, [*range(32, 40)]),
    'rr6-30-s1': (6, [27]),
    'rr6-30-s2': (6, [20]),
    'rr6-30-s3': (6, [21]),
    'rr10-44-s1': (10, [40]),
    'rr10-44-s2': (10, [32]),
    'rr10-44-s3': (10, [41]),
    'rr10-80-s1': (10, [73]),
    'rr10-80-s2': (10, [70]),
    'G4': (2, [*range(10, 15)]),
    'G6': (2, [*range(14, 21)]),
    'G7': (2, [*range(16, 24)]),
    'G8': (2, [*range(18, 27)]),
    'G9': (2, [*range(20, 30)]),
    'G10': (2, [*range(22, 33)]),
    'G11': (2, [*range(24, 36)]),
    'G12': (2, [*range(26, 39)]),
    'H6': (4, [*range(28, 35)]),
    'H8': (4, [*range(36, 45)]),
    'H9': (4, [*range(40, 50)]),
    'H10': (4, [*range(44, 55)]),
    'H11': (4, [*range(48, 60)]),
    'H12': (4, [*range(52, 65)]),
    'H13': (4, [*range(56, 70)]),
    'H14': (4, [*range(60, 75)]),
    'H15': (4, [*range(64, 80)]),
    'H16': (4, [*range(68, 85)]),
    'rr10-200-s1': (10, [189]),
    'rr10-200-s2': (10, [191]),
}


@functools.cache
def _cut_corpus():
    corpus = dict(_determinism_corpus())
    corpus.update({f"G{d}": build_Gd(d) for d in range(4, 13)})
    corpus.update({f"H{d}": build_Hd(d) for d in range(6, 17)})
    corpus.update({f"rr10-200-s{s}": random_regular(GenConfig(10, 200, s)) for s in (1, 2)})
    return corpus


def test_pinned_cuts_cover_the_corpus():
    assert sorted(PINNED_CUTS) == sorted(_cut_corpus())


@pytest.mark.parametrize("name", sorted(PINNED_CUTS))
def test_cut_side_is_pinned(name):
    r = edge_connectivity(_cut_corpus()[name])
    assert (r.value, sorted(r.side)) == PINNED_CUTS[name]



@st.composite
def clustered_graphs(draw, max_n):
    """Two random blocks joined by a few edges, so the minimum cut is often
    the join and not a vertex of minimum degree."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    split = draw(st.integers(min_value=1, max_value=n - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    joins = draw(st.integers(min_value=0, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if (u < split) == (v < split) and rng.random() < density}
    edges.update((rng.randrange(split), rng.randrange(split, n)) for _ in range(joins))
    return make_graph(n, sorted(edges))


@settings(max_examples=40, deadline=None)
@given(clustered_graphs(max_n=16))
def test_value_matches_bruteforce_up_to_16_vertices(g):
    assert edge_connectivity(g).value == edge_connectivity_bruteforce(g)


@settings(max_examples=40, deadline=None)
@given(clustered_graphs(max_n=150))
def test_side_certifies_the_value_up_to_150_vertices(g):
    r = edge_connectivity(g)
    assert 0 < len(r.side) < g.n
    p = partition(g.n, [r.side, frozenset(range(g.n)) - r.side])
    assert crossing_edges(g, p) == r.value
    assert r.value <= min(g.degrees)


# ---------------------------------------------------------------------------
# The dense matrix Stoer-Wagner against the heap-driven one it replaced
# (`reference_edge_connectivity`): same tie rule, so the same value and side.

def _same_cut_as_reference(g):
    r = edge_connectivity(g)
    assert (r.value, r.side) == reference_edge_connectivity(g)


@settings(max_examples=40, deadline=None)
@given(clustered_graphs(max_n=150))
def test_matches_reference_on_clustered_graphs(g):
    _same_cut_as_reference(g)


@st.composite
def seeded_regular_graphs(draw):
    d = draw(st.integers(min_value=3, max_value=12))
    n = draw(st.integers(min_value=d + 1, max_value=120).filter(lambda n: n * d % 2 == 0))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_regular(GenConfig(d, n, seed))


@settings(max_examples=40, deadline=None)
@given(seeded_regular_graphs())
def test_matches_reference_on_random_regular_graphs(g):
    _same_cut_as_reference(g)


@pytest.mark.parametrize("build,d", [
    *((build_Gd, d) for d in range(4, 31)),
    *((build_Hd, d) for d in range(6, 31)),
])
def test_matches_reference_on_families(build, d):
    _same_cut_as_reference(build(d))


# The largest contracted weights the tests reach.  On K200 a live weight
# reaches 9,088 and a dead-column entry -3,960,299, within 1% of the
# n * (m + 1) bound in `edge_connectivity`; on the two K60 joined by one
# edge, 864 and -421,498.
@pytest.mark.parametrize("g", [
    complete_graph(200),
    add_edges(disjoint_union(complete_graph(60), complete_graph(60)), [(0, 60)]),
], ids=["K200", "K60-K60"])
def test_matches_reference_on_large_weights(g):
    _same_cut_as_reference(g)


# ---------------------------------------------------------------------------
# The early exit: a d-regular graph whose M = n((d^2-d+2)I - (d+1)A) + (2d-1)J
# passes a shifted float Cholesky has lambda2 < q_d = d - 2(d-1)/(d+1), so
# kappa' = d, and Stoer-Wagner stops after its first phase.

def _certificate_matrix(g, a, b):
    """M = n(aI - bA) + (bd - a + 1)J as Python integers, from the
    neighbour sets."""
    n = g.n
    ones = b * g.degree_if_regular() - a + 1
    return [[n * a + ones if u == v else ones - n * b * (v in g.neighbors[u])
             for v in range(n)]
            for u in range(n)]


def _kappa_matrix(g, d):
    return _certificate_matrix(g, d * d - d + 2, d + 1)


def _is_positive_definite(m):
    return all(minor > 0 for minor in leading_minors(m))


def _positive_definite(g):
    return _is_positive_definite(_kappa_matrix(g, g.degree_if_regular()))


def _lambda2(g):
    return np.linalg.eigvalsh(g.adjacency_matrix())[-2]


def _prism(k):
    """C_k x K2: two k-cycles joined by a perfect matching."""
    return make_graph(2 * k, [*((i, (i + 1) % k) for i in range(k)),
                              *((k + i, k + (i + 1) % k) for i in range(k)),
                              *((i, k + i) for i in range(k))])


def _two_k4_minus_edge():
    """Two copies of K4 - {2, 3} with 2-6 and 3-7 added: 3-regular, kappa' = 2."""
    k4e = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    return make_graph(8, [*k4e, *((u + 4, v + 4) for u, v in k4e), (2, 6), (3, 7)])


def _analyze_pool(seed):
    state = seed
    for _ in range(32):
        state, graph_seed = splitmix64(state)
        yield f"rr10-80-{graph_seed}", random_regular(GenConfig(10, 80, graph_seed))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=6, max_size=6), min_size=6, max_size=6),
       st.integers(1, 6))
def test_leading_minors_match_det_exact(rows, k):
    # det_exact takes symmetric matrices and names the first zero minor
    rows = [[rows[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    minors = leading_minors([r[:k] for r in rows[:k]])
    assert len(minors) == k or minors[-1] == 0
    for j, minor in enumerate(minors, 1):
        block = [r[:j] for r in rows[:j]]
        if minor:
            assert det_exact(block) == minor
        else:
            with pytest.raises(ValueError, match=f"D_{j} is 0"):
                det_exact(block)


@st.composite
def small_regular_graphs(draw):
    d = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=d + 1, max_value=40).filter(lambda n: n * d % 2 == 0))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_regular(GenConfig(d, n, seed))


@settings(max_examples=60, deadline=None)
@given(small_regular_graphs())
def test_certificate_is_sound_and_complete_off_the_boundary(g):
    d = g.degree_if_regular()
    floor = _certified_floor(g)
    assert floor in (0, d)
    positive_definite = _positive_definite(g)
    if floor:
        assert positive_definite
        assert reference_edge_connectivity(g)[0] == d
    if positive_definite and _lambda2(g) < (d * d - d + 2) / (d + 1) - 1e-6:
        assert floor == d


@pytest.mark.parametrize("g", [petersen_graph(), _prism(6), random_regular(GenConfig(10, 80, 1))],
                         ids=["Petersen", "C6xK2", "rr10-80-s1"])
def test_cholesky_factors_m_less_the_least_safe_shift(g, monkeypatch):
    # the factored matrix is M with sigma off its diagonal, sigma the least
    # power of two at or above 2^8 (n+1) 2^-53 tr(M), all entries exact
    seen = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: seen.append(a.copy()))
    _certified_floor(g)
    (a,) = seen
    m = np.array(_kappa_matrix(g, g.degree_if_regular()), dtype=object)
    bound = Fraction(2**8 * (g.n + 1) * int(np.trace(m)), 2**53)
    sigma = Fraction(1)
    while sigma < bound:
        sigma *= 2
    while sigma / 2 >= bound:
        sigma /= 2
    shift = m - np.frompyfunc(Fraction, 1, 1)(a)
    assert (shift == sigma * np.eye(g.n, dtype=int)).all()


# 2K2 has lambda2 = q_1 = 1 exactly, and an unshifted float Cholesky
# factors its singular M without complaint (numpy 2.4's does).
@pytest.mark.parametrize("g", [
    _prism(6),
    _two_k4_minus_edge(),
    make_graph(4, [(0, 2), (1, 3)]),
    *(build_Gd(d) for d in range(4, 13)),
    *(build_Hd(d) for d in range(6, 17)),
], ids=["C6xK2", "2(K4-e)", "2K2",
        *(f"G{d}" for d in range(4, 13)), *(f"H{d}" for d in range(6, 17))])
def test_no_certificate(g):
    assert _certified_floor(g) == 0
    assert not _positive_definite(g)


def test_no_certificate_at_lambda2_equal_to_q():
    # lambda2 = q_3 = 2 exactly, twice, so M is positive semidefinite with
    # a 2-dimensional kernel (D_11 is already 0), and no float comparison
    # of lambda2 with q_3 can decide it (eigvalsh gave 2.000000000000001)
    g = _prism(6)
    assert abs(_lambda2(g) - 2) < 1e-12
    minors = leading_minors(_kappa_matrix(g, 3))
    assert len(minors) == 11 and minors[-1] == 0 and min(minors[:-1]) > 0


def test_no_certificate_below_degree():
    g = _two_k4_minus_edge()
    assert g.degree_if_regular() == 3
    assert np.isclose(_lambda2(g), 5 ** 0.5)
    assert edge_connectivity(g).value == reference_edge_connectivity(g)[0] == 2


def _certified_corpus():
    yield pytest.param(petersen_graph(), True, id="Petersen")
    yield from (pytest.param(complete_graph(n), True, id=f"K{n}") for n in range(2, 9))
    yield from (pytest.param(cycle_graph(n), True, id=f"C{n}") for n in range(5, 8))
    yield pytest.param(_prism(5), True, id="C5xK2")
    for seed in (1, 7):
        # Bareiss on Python integers takes 0.2 s at n = 80, so the oracle
        # checks the first four graphs of each pool
        for i, (name, g) in enumerate(_analyze_pool(seed)):
            yield pytest.param(g, i < 4, id=name)


@pytest.mark.parametrize("g,check_oracle", list(_certified_corpus()))
def test_certificate(g, check_oracle, monkeypatch):
    d = g.degree_if_regular()
    assert _certified_floor(g) == d
    if check_oracle:
        assert _positive_definite(g)
    # one phase returns the (value, side) of every phase
    r = edge_connectivity(g)
    monkeypatch.setattr(connectivity, "_certified_floor", lambda g: 0)
    assert r.value == d
    assert r == edge_connectivity(g)


# ---------------------------------------------------------------------------
# The same certificate at any a/b <= d: theorem_check asks it at
# theta_k = (d(d+1) - 2k + 1)/(d+1), edge_connectivity at q_d.

def _thresholds(d):
    """(a, b) of theta_k for every k with 2k <= d, then of q_d."""
    out = [(d * (d + 1) - 2 * k + 1, d + 1) for k in range(1, d // 2 + 1)]
    assert [Fraction(a, b) for a, b in out] == [theorem_threshold(d, k)
                                               for k in range(1, d // 2 + 1)]
    return [*out, (d * d - d + 2, d + 1)]


@settings(max_examples=60, deadline=None)
@given(small_regular_graphs())
def test_certificate_at_any_threshold_is_sound_and_complete_off_the_boundary(g):
    lam2 = _lambda2(g)
    for a, b in _thresholds(g.degree_if_regular()):
        certified = certify_lambda2_below(g, a, b)
        positive_definite = _is_positive_definite(_certificate_matrix(g, a, b))
        if certified:
            assert positive_definite
            # the float verdict a certified trial no longer computes
            assert lam2 < Fraction(a, b)
        if positive_definite and lam2 < a / b - 1e-6:
            assert certified


@pytest.mark.parametrize("g, a, b", [
    *((build_Gd(d), d * (d + 1) - 3, d + 1) for d in range(4, 13)),
    *((build_Hd(d), d * (d + 1) - 5, d + 1) for d in range(6, 17)),
    (_prism(6), 8, 4),
], ids=[*(f"G{d}-theta2" for d in range(4, 13)), *(f"H{d}-theta3" for d in range(6, 17)),
        "C6xK2-q3"])
def test_no_certificate_where_m_is_not_positive_definite(g, a, b):
    # Gd's lambda2 lies above theta_2 and Hd's above theta_3; the prism's
    # lambda2 is q_3 = 2 exactly
    assert not certify_lambda2_below(g, a, b)
    assert not _is_positive_definite(_certificate_matrix(g, a, b))


def test_no_certificate_for_an_irregular_graph():
    g = path_graph(4)     # lambda2 = 0.618... < 1
    assert g.degree_if_regular() is None
    assert not certify_lambda2_below(g, 1, 1)


def test_no_certificate_above_the_degree():
    # lambda2(K4) = -1 lies below 7/2, but a/b > d proves nothing
    assert not certify_lambda2_below(complete_graph(4), 7, 2)


def test_bound_at_the_degree_proves_connectivity():
    # at a/b = d, M = n(dI - A) + J is positive definite exactly when the
    # graph is connected
    assert certify_lambda2_below(complete_graph(4), 3, 1)
    assert certify_lambda2_below(complete_graph(2), 2, 2)
    two_k4 = disjoint_union(complete_graph(4), complete_graph(4))
    assert not certify_lambda2_below(two_k4, 3, 1)
    assert not _is_positive_definite(_certificate_matrix(two_k4, 3, 1))


def test_b_must_be_positive():
    with pytest.raises(ValueError, match="b must be a positive integer"):
        certify_lambda2_below(complete_graph(4), -1, -1)
