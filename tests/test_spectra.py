import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from builders import complete_bipartite, complete_graph, cycle_graph
from oracles import exact_adjacency_roots

from treepack.exact import char_poly_exact
from treepack.graphs import make_graph, partition, petersen_graph
from treepack.spectra import (
    QuotientMatrix,
    adjacency_spectrum,
    check_interlacing,
    eig_symmetric,
    equitable_quotient,
    multiplicities,
    quotient_matrix,
)


@st.composite
def graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return make_graph(n, edges)


@st.composite
def graph_with_partition(draw):
    g = draw(graphs(min_n=2, max_n=8))
    labels = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=g.n, max_size=g.n))
    blocks: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(v)
    return g, partition(g.n, list(blocks.values()))


class TestEigSymmetric:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
        # no tolerance: an asymmetry of 1e-14 is refused as well
        b = petersen_graph().adjacency_matrix().astype(float)
        b[0, 1] += 1e-14
        with pytest.raises(ValueError, match="not symmetric"):
            eig_symmetric(b)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_trace_and_frobenius_identities(self, g):
        a = g.adjacency_matrix()
        vals = np.array(eig_symmetric(a))
        scale = max(1.0, np.linalg.norm(a))
        assert abs(vals.sum() - np.trace(a)) <= 1e-9 * scale
        assert abs((vals ** 2).sum() - (a ** 2).sum()) <= 1e-9 * scale ** 2

    def test_exactly_symmetric_input_needs_no_float_copy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((400, 400))
        a = a + a.T
        expected = tuple(float(v) for v in np.linalg.eigvalsh((a + a.T) / 2)[::-1])
        tracemalloc.start()
        try:
            spectrum = eig_symmetric(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum == expected
        assert peak < a.nbytes / 2


def test_known_spectra():
    assert adjacency_spectrum(complete_graph(4)) == pytest.approx([3, -1, -1, -1])
    c5 = adjacency_spectrum(cycle_graph(5))
    expected = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True)
    assert c5 == pytest.approx(expected)
    # Petersen: 3, 1 (x5), -2 (x4)
    mults = multiplicities(adjacency_spectrum(petersen_graph()))
    assert [(round(v), m) for v, m in mults] == [(3, 1), (1, 5), (-2, 4)]


def test_laplacian_regular_duality():
    # d-regular: the ascending Laplacian spectrum is d minus the
    # descending adjacency spectrum, index by index
    g = petersen_graph()
    mus = eig_symmetric(g.laplacian_matrix())[::-1]
    lams = adjacency_spectrum(g)
    assert mus[0] == pytest.approx(0.0, abs=1e-12)
    for mu, lam in zip(mus, lams):
        assert mu == pytest.approx(3 - lam, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_float_spectrum_matches_exact_roots(g):
    floats = adjacency_spectrum(g)
    exact = exact_adjacency_roots(g)
    assert len(floats) == len(exact)
    for a, b in zip(floats, exact):
        assert abs(a - b) < 1e-8


class TestQuotient:
    def test_cycle_quotient(self):
        g = cycle_graph(6)
        p = partition(6, [[0, 1, 2], [3, 4, 5]])
        q = quotient_matrix(g, p)
        assert isinstance(q, QuotientMatrix)
        assert q.entries[0][1] == Fraction(2, 3)
        assert q.entries[0][0] == Fraction(4, 3)
        with pytest.raises(ValueError, match="partition does not match graph"):
            quotient_matrix(g, partition(7, [[0, 1, 2], [3, 4, 5, 6]]))

    def test_integer_quotient_and_charpoly(self):
        g = complete_bipartite(2, 3)
        p = partition(5, [[0, 1], [2, 3, 4]])
        q = quotient_matrix(g, p)
        assert equitable_quotient(g, p) == [[0, 3], [2, 0]]
        assert q.char_poly() == char_poly_exact([[0, 3], [2, 0]])
        vals = q.eigenvalues_exact()
        assert vals == pytest.approx([math.sqrt(6), -math.sqrt(6)])

    def test_petersen_equitable(self):
        g = petersen_graph()
        p = partition(10, [range(5), range(5, 10)])
        assert equitable_quotient(g, p) is not None
        # equitable quotient eigenvalues are graph eigenvalues
        spectrum = adjacency_spectrum(g)
        for val in quotient_matrix(g, p).eigenvalues_exact():
            assert any(abs(val - lam) < 1e-8 for lam in spectrum)

    def test_not_equitable(self):
        g = cycle_graph(5)
        assert equitable_quotient(g, partition(5, [[0, 1], [2, 3, 4]])) is None

    @settings(max_examples=100, deadline=None)
    @given(graph_with_partition(), st.booleans())
    def test_equitable_quotient_is_the_quotient_matrix(self, gp, singletons):
        # equitable iff each vertex's count in each block is its block's
        # average, the quotient matrix entry; then the rows are those entries
        g, p = gp
        if singletons:      # always equitable: the rows are the adjacency matrix
            p = partition(g.n, [[v] for v in range(g.n)])
        q = quotient_matrix(g, p)
        owner = p.block_of
        counts = [[0] * p.t for _ in range(p.t)]
        for u, v in g.edges:
            counts[owner[u]][owner[v]] += 1
            counts[owner[v]][owner[u]] += 1
        assert q.entries == tuple(tuple(Fraction(c, len(b)) for c in row)
                                  for row, b in zip(counts, p.blocks))
        equitable = all(
            sum(owner[w] == j for w in g.neighbors[v]) == q.entries[owner[v]][j]
            for v in range(g.n) for j in range(p.t))
        rows = equitable_quotient(g, p)
        assert (rows is not None) == equitable
        if equitable:
            assert rows == [list(row) for row in q.entries]

    @settings(max_examples=60, deadline=None)
    @given(graph_with_partition())
    def test_quotient_interlaces(self, gp):
        g, p = gp
        inner = quotient_matrix(g, p).eigenvalues_exact()
        result = check_interlacing(adjacency_spectrum(g), inner)
        assert result.ok


def test_interlacing_detects_violation():
    assert not check_interlacing([3.0, 0.0, -3.0], [5.0]).ok
    assert check_interlacing([3.0, 0.0, -3.0], [1.0]).ok

