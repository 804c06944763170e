import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treepack
import treepack.exact as exact
from treepack.exact import (
    DET_MAX_DIM,
    IntPoly,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    descartes_positivity_check,
    det_exact,
    isolate_real_roots,
    root_cells,
    sturm_chain,
    sturm_isolate_largest_root,
    _det_prime,
    _variations,
)
from treepack.families import (
    GD,
    HD,
    build_family,
    claimed_charpoly,
    p3_poly,
    p10_poly,
    verify_family,
)
from treepack.graphs import make_graph, petersen_graph
from treepack.randgen import GenConfig, random_regular
from treepack.spectra import QuotientMatrix

from builders import complete_graph, disjoint_union
from oracles import (
    adjacency_int,
    bisect_top_reference,
    by_bisection,
    char_poly_faddeev_leverrier,
    det_mod_primes_unblocked,
    leading_minors,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain_two_pass,
    sturm_count_largest_root,
    sturm_count_roots,
)

ints = st.integers(min_value=-50, max_value=50)
small_polys = st.lists(ints, min_size=1, max_size=6).map(IntPoly)
small_fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def bisection_polys(draw):
    """Products of (b x - a)^e with b a power of two, so every root is
    dyadic: many land on a bisection midpoint (a point interval) or on a
    split point (a root at an interval's hi).  Exponents up to 3 give
    repeated factors; an optional monic quadratic adds irrational roots or
    none."""
    p = IntPoly([draw(st.sampled_from([-2, -1, 1, 3]))])
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.integers(-12, 12)), 2 ** draw(st.integers(0, 3))
        p = p * IntPoly([-a, b]) ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        p = p * IntPoly([draw(st.integers(-6, 6)), draw(st.integers(-4, 4)), 1])
    return p


def poly_from_roots(roots):
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


def bareiss_det(rows):
    """Reference: Bareiss fraction-free elimination over Python integers."""
    a = [list(r) for r in rows]
    dim = len(a)
    if dim == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(dim - 1):
        if a[k][k] == 0:
            for i in range(k + 1, dim):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, dim):
            for j in range(k + 1, dim):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[dim - 1][dim - 1]


@st.composite
def integer_matrices(draw, max_n=10):
    """Square matrices with entries up to 10**30 in size; about a third are
    made singular by replacing a row with a combination of two others."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(n)))[:3]
        c = draw(st.integers(-5, 5))
        rows[k] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@st.composite
def symmetric_matrices(draw, max_n=10):
    """Symmetric matrices up to max_n x max_n with entries below 4 or near
    10**30 in size (those need several batches of primes): plain, with a
    zero diagonal (D_1 = 0), or singular (a zero row and column, spread by
    congruences A <- E A E^T with E = I + c e_ij, so D_n = 0)."""
    n = draw(st.integers(0, max_n))
    entries = st.sampled_from([
        st.integers(-3, 3),
        st.integers(10**29, 10**30).flatmap(lambda x: st.sampled_from([x, -x])),
    ]).flatmap(lambda s: s)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    shape = draw(st.sampled_from(["plain", "zero diagonal", "singular"]))
    if shape == "zero diagonal":
        for i in range(n):
            rows[i][i] = 0
    elif shape == "singular" and n >= 2:
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            rows[k][i] = rows[i][k] = 0
        for _ in range(draw(st.integers(1, 6))):
            # row i += c row j, then column i += c column j
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += c * row[j]
    return rows


@st.composite
def positive_definite_matrices(draw, max_n=10):
    """B^T B + I for an r x n integer B, r up to n + 2, with entries below
    4 or up to 10**15 in size (then the entries of the product are near
    10**30 and need several batches of primes).  Positive definite, so
    every leading principal minor is positive."""
    n = draw(st.integers(0, max_n))
    r = draw(st.integers(0, n + 2))
    big = draw(st.booleans())
    entries = st.integers(-10**15, 10**15) if big else st.integers(-3, 3)
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(row[i] * row[j] for row in b) + (i == j) for j in range(n)]
            for i in range(n)]


def faddeev_leverrier_fraction(rows):
    """Reference: monic char poly of a rational matrix over Fraction,
    ascending coefficients."""
    m = [[Fraction(x) for x in row] for row in rows]
    dim = len(m)
    coeffs = [Fraction(0)] * dim + [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, dim + 1):
        if k > 1:
            shifted = [row[:] for row in mk]
            for i in range(dim):
                shifted[i][i] += coeffs[dim - k + 1]
            mk = [[sum(m[i][l] * shifted[l][j] for l in range(dim)) for j in range(dim)]
                  for i in range(dim)]
        coeffs[dim - k] = -sum(mk[i][i] for i in range(dim)) / k
    return coeffs


@st.composite
def char_poly_matrices(draw):
    """Square matrices up to 10 x 10 for char_poly_exact: entries below 4,
    of 2**20 to 2**40 (reduced mod each prime) in an int64 array, or near
    10**30 in an object array; plain, singular (a row replaced by a
    combination of two others) or nilpotent (strictly upper triangular,
    conjugated by integer row and column operations, so still nilpotent)."""
    n = draw(st.integers(0, 10))
    scale = draw(st.sampled_from(["small", "int64", "object"]))
    entries = {
        "small": st.integers(-3, 3),
        "int64": st.integers(2**20, 2**40).flatmap(lambda x: st.sampled_from([x, -x])),
        "object": st.integers(10**29, 10**30).flatmap(lambda x: st.sampled_from([x, -x])),
    }[scale]
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "singular", "nilpotent"]))
    if shape == "singular" and n >= 3:
        i, j, k = draw(st.permutations(range(n)))[:3]
        c = draw(st.integers(-5, 5))
        rows[k] = [x + c * y for x, y in zip(rows[i], rows[j])]
    elif shape == "nilpotent" and n >= 2:
        rows = [[x if c > r else 0 for c, x in enumerate(row)] for r, row in enumerate(rows)]
        for _ in range(draw(st.integers(1, 6))):
            # A <- E A E^-1 with E = I + c e_ij: row i += c row j, then col j -= c col i
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
    if scale == "small":
        return rows
    return np.array(rows, dtype=np.int64 if scale == "int64" else object).reshape(n, n)


def sylvester_hadamard(n):
    """The n x n Sylvester-Hadamard matrix (n a power of two): symmetric,
    entries +-1, H @ H = n I."""
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


class TestIntPoly:
    def test_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
        assert IntPoly([0, 0]).is_zero()
        assert not IntPoly([0, 1]).is_zero()
        assert IntPoly([0]).degree == -1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            IntPoly([1.5, 2])

    # bool subclasses int; a trailing False must not be trimmed away as 0
    @pytest.mark.parametrize("coeffs", [[1, True], [True], [1, False], [False, 3],
                                        [np.bool_(True)]])
    def test_rejects_bools(self, coeffs):
        with pytest.raises(TypeError, match="integer coefficient expected, got"):
            IntPoly(coeffs)

    def test_arithmetic(self):
        x = IntPoly([0, 1])
        assert IntPoly([1, 1]) * IntPoly([-1, 1]) == IntPoly([-1, 0, 1])
        assert x ** 3 == IntPoly([0, 0, 0, 1])

    def test_evaluate(self):
        p = IntPoly([2, 0, 1])  # x^2 + 2
        assert p.evaluate_at(3) == 11
        assert p.evaluate_at(Fraction(1, 2)) == Fraction(9, 4)

    @settings(max_examples=100, deadline=None)
    @given(small_polys, st.one_of(st.fractions(), ints))
    def test_evaluate_matches_fraction_horner(self, p, x):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        value = p.evaluate_at(x)
        assert type(value) is Fraction and value == acc

    @settings(max_examples=100, deadline=None)
    @given(small_polys, small_polys)
    def test_derivative_product_rule(self, p, q):
        # both sides have degree below len(p) + len(q), so they are equal
        # once they agree at that many points
        lhs = (p * q).derivative()
        dp, dq = p.derivative(), q.derivative()
        for x in range(len(p.coeffs) + len(q.coeffs)):
            assert lhs.evaluate_at(x) == (dp.evaluate_at(x) * q.evaluate_at(x)
                                          + p.evaluate_at(x) * dq.evaluate_at(x))

    @settings(max_examples=100, deadline=None)
    @given(small_polys, small_polys, st.fractions())
    def test_mul_evaluates_pointwise(self, p, q, x):
        assert (p * q).evaluate_at(x) == p.evaluate_at(x) * q.evaluate_at(x)


class TestCharPoly:
    @settings(max_examples=100, deadline=None)
    @given(ints, ints, ints, ints)
    def test_two_by_two(self, a, b, c, d):
        p = char_poly_exact([[a, b], [c, d]])
        assert p == IntPoly([a * d - b * c, -(a + d), 1])

    def test_identity_matrix(self):
        p = char_poly_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert p == IntPoly([-1, 1]) ** 3

    def test_companion_matrix(self):
        # companion of x^3 - 2x^2 + 5x - 7
        m = [[0, 0, 7], [1, 0, -5], [0, 1, 2]]
        assert char_poly_exact(m) == IntPoly([-7, 5, -2, 1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_rational_route_agrees(self, rows):
        reference = faddeev_leverrier_fraction(rows)
        assert all(c.denominator == 1 for c in reference)
        assert char_poly_exact(rows) == IntPoly([int(c) for c in reference])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_quotient_char_poly_matches_rational_reference(self, rows):
        # the char poly of L*Q rescaled by x -> x/L, against Faddeev-LeVerrier
        # over Fraction with the denominators cleared
        q = QuotientMatrix(tuple(tuple(row) for row in rows))
        reference = faddeev_leverrier_fraction(rows)
        lcm_den = math.lcm(*(c.denominator for c in reference))
        assert q.char_poly() == IntPoly([int(c * lcm_den) for c in reference])

    @settings(max_examples=150, deadline=None)
    @given(char_poly_matrices())
    @example([])
    @example([[0] * 10] * 10)
    @example(np.array([[10**30 + i - j for j in range(10)] for i in range(10)], dtype=object))
    @example(np.array([[2**40 - 3 * i * j for j in range(10)] for i in range(10)],
                      dtype=np.int64))
    @example([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])   # nilpotent
    def test_matches_integer_faddeev_leverrier(self, rows):
        assert char_poly_exact(rows) == char_poly_faddeev_leverrier(rows)

    def test_coefficients_past_one_batch_of_primes(self, monkeypatch):
        # entries near 10**30 give coefficients of several hundred digits:
        # the primes come in more than one batch of _DET_BATCH
        batches = []
        kernel = exact._char_poly_mod_primes

        def counted(ints, primes):
            batches.append(len(primes))
            return kernel(ints, primes)

        monkeypatch.setattr(exact, "_char_poly_mod_primes", counted)
        rng = random.Random(3)
        for n in (4, 10):
            rows = [[rng.randint(-10**30, 10**30) for _ in range(n)] for _ in range(n)]
            batches.clear()
            assert char_poly_exact(rows) == char_poly_faddeev_leverrier(rows)
            assert len(batches) >= 2 and batches[0] == exact._DET_BATCH

    @pytest.mark.parametrize("n, s", [(4, 15), (16, 45), (16, 251061)])
    def test_scaled_hadamard_needs_every_prime(self, n, s):
        """s * H has row norms s * sqrt(n), integers here, and |c_n| = |det|
        = their product, so |c_n| is within a factor (1 + 1/(s sqrt n))**n
        of the bound B = prod(1 + row norm).  Each s is chosen so that the
        primes whose product first passes 2B are needed to the last: with
        one fewer, c_n falls outside the symmetric CRT range, and primes
        chosen against B instead of 2B stop one short.  At s = 251061 the
        last prime is the 17th, alone in the second batch."""
        r = s * math.isqrt(n)
        assert r * r == s * s * n
        bound, c_n = (1 + r) ** n, r ** n
        primes = [_det_prime(0)]
        while math.prod(primes) <= 2 * bound:
            primes.append(_det_prime(len(primes)))
        assert bound < math.prod(primes[:-1]) <= 2 * c_n
        expected = IntPoly([-n * s * s, 0, 1]) ** (n // 2)
        assert abs(expected.coeffs[0]) == c_n
        assert char_poly_exact(s * sylvester_hadamard(n)) == expected

    def test_dimension_guard(self):
        # an entry of A (M + c I) is n + 1 products below 2**40: exact in
        # float64 up to DET_MAX_DIM, the determinant's cap
        assert (DET_MAX_DIM + 1) * 2**40 <= 2**53
        row = [0] * (DET_MAX_DIM + 1)
        with pytest.raises(ValueError, match="dimension"):
            char_poly_exact([row] * (DET_MAX_DIM + 1))


class TestDeterminant:
    def test_known_values(self):
        assert det_exact([]) == 1
        assert det_exact([[5]]) == 5
        assert det_exact([[2, 1], [1, 2]]) == 3
        assert det_exact([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
        assert det_exact([[-1, 2], [2, -5]]) == 1      # D_1 < 0 is not 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ints, min_size=6, max_size=6))
    def test_matches_cofactor_expansion(self, entries):
        a, b, c, e, f, i = entries
        m = [[a, b, c], [b, e, f], [c, f, i]]
        minors = [a, a * e - b * b,
                  a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)]
        if all(minors):
            assert det_exact(m) == minors[2]
        else:
            first = minors.index(0) + 1
            with pytest.raises(ValueError, match=f"D_{first} is 0"):
                det_exact(m)

    def test_determinant_constant_term_of_char_poly(self):
        m = [[4, 1, -2], [1, 3, 0], [-2, 0, 5]]
        p = char_poly_exact(m)
        # p(0) = det(-M) = (-1)^3 det(M)
        assert p.evaluate_at(0) == -det_exact(m) == -bareiss_det(m)

    @settings(max_examples=150, deadline=None)
    @given(positive_definite_matrices())
    @example([])
    @example([[1]])
    @example([[10**30 + 1, 10**30], [10**30, 10**30 + 1]])
    def test_matches_bareiss(self, rows):
        # positive definite by Sylvester's criterion
        assert all(minor > 0 for minor in leading_minors(rows))
        assert det_exact(rows) == bareiss_det(rows)

    def test_large_entries_need_several_batches_of_primes(self, monkeypatch):
        # strictly diagonally dominant with a positive diagonal, so
        # positive definite
        batches = []
        kernel = exact._det_mod_primes
        monkeypatch.setattr(exact, "_det_mod_primes",
                            lambda ints, primes: batches.append(primes) or kernel(ints, primes))
        rng = random.Random(11)
        for n in (6, 10):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-10**30, 10**30)
                rows[i][i] = n * 10**30 + rng.randint(1, 10**30)
            batches.clear()
            assert det_exact(rows) == bareiss_det(rows) != 0
            assert len(batches) >= 2 and len(batches[0]) == exact._DET_BATCH

    def test_first_pivot_zero_mod_the_first_prime(self, monkeypatch):
        p = _det_prime(0)
        batches = []
        kernel = exact._det_mod_primes
        monkeypatch.setattr(exact, "_det_mod_primes",
                            lambda ints, primes: batches.append(primes) or kernel(ints, primes))
        # the bound isqrt(2 (p**2 + 1)) takes two primes; p divides D_1,
        # so a third one replaces it
        assert det_exact([[p, 1], [1, 1]]) == p - 1
        assert batches == [[p, _det_prime(1)], [_det_prime(2)]]
        m = [[p, 1, 2], [1, 1, 0], [2, 0, 2 * p + 1]]
        assert det_exact(m) == bareiss_det(m)
        # a residue of 0 under one prime is not a determinant of 0
        assert det_exact([[p, 0], [0, 1]]) == p
        assert kernel(np.array([[p, 1], [1, 1]], dtype=np.int64), [p, _det_prime(1)]) \
            == [0, [(p - 1) % _det_prime(1)]]

    def test_prime_dividing_a_later_minor_is_replaced(self):
        # D_1 = 1, D_2 = p and D_3 = 2p - 1: the pivot at column 1 is 0 mod p
        p, q = _det_prime(0), _det_prime(1)
        m = [[1, 1, 0], [1, p + 1, 1], [0, 1, 2]]
        assert leading_minors(m) == [1, p, 2 * p - 1]
        assert exact._det_mod_primes(np.array(m, dtype=np.int64), [p, q]) \
            == [1, [(2 * p - 1) % q]]
        assert det_exact(m) == 2 * p - 1

    @pytest.mark.parametrize("rows,message", [
        ([[0]], "D_1 is 0"),
        ([[0, 1], [1, 0]], "D_1 is 0"),
        ([[1, 1], [1, 1]], "D_2 is 0"),
        ([[1, 0], [0, 0]], "D_2 is 0"),                           # a zero row
        # the first prime divides D_1 = p: the zero row's norm counts as 1
        # in the bound, so that alone does not prove D_1 = 0
        ([[_det_prime(0), 0], [0, 0]], "D_2 is 0"),
        ([[1, 1, 1], [1, 2, 1], [1, 1, 1]], "D_3 is 0"),
        ([[1, 2], [3, 4]], "symmetric"),
        ([[0, 1], [0, 0]], "symmetric"),
        ([[10**30, 1], [2, 10**30]], "symmetric"),
    ])
    def test_refuses_input_outside_the_contract(self, rows, message):
        with pytest.raises(ValueError, match=message):
            det_exact(rows)

    @settings(max_examples=60, deadline=None)
    @given(integer_matrices())
    def test_refuses_every_asymmetric_matrix(self, rows):
        if rows == [list(col) for col in zip(*rows)]:
            return
        with pytest.raises(ValueError, match="symmetric"):
            det_exact(rows)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 2, -1], [2, 0, 3], [-1, 3, 0]])
    @example([[10**30, 1], [1, 10**30]])
    @example([[1, 1, 2], [1, 1, 3], [2, 3, 5]])     # D_1 != 0, D_2 = 0, D_3 != 0
    def test_symmetric_matches_bareiss(self, rows):
        # the determinant when every leading minor is nonzero; otherwise
        # ValueError naming the first that is 0
        assert rows == [list(col) for col in zip(*rows)]
        minors = leading_minors(rows)
        if not rows or minors[-1]:
            assert det_exact(rows) == bareiss_det(rows)
        else:
            with pytest.raises(ValueError, match=f"D_{len(minors)} is 0"):
                det_exact(rows)

    def test_reduced_laplacians_of_random_graphs(self):
        # the matrix-tree theorem: the count is positive iff g is connected,
        # and otherwise the reduced Laplacian has a zero leading minor
        rng = random.Random(3)
        connected = set()
        for _ in range(80):
            n = rng.randint(2, 14)
            density = rng.choice([0.15, 0.3, 0.6, 0.9])
            g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < density])
            reduced = g.laplacian_matrix().astype(np.int64)[1:, 1:]
            count = bareiss_det(reduced.tolist())
            assert (count > 0) == (len(g.components) == 1)
            if count:
                assert det_exact(reduced) == count
            else:
                with pytest.raises(ValueError, match="is 0"):
                    det_exact(reduced)
            connected.add(count > 0)
        assert connected == {True, False}

    def test_disconnected_laplacian_is_refused_quickly(self):
        # 300 vertices in two 10-regular components: every prime reports
        # the column where the second component is complete, and the
        # primes multiply past the bound after a few batches
        g = disjoint_union(random_regular(GenConfig(10, 150, 1)),
                           random_regular(GenConfig(10, 150, 2)))
        reduced = g.laplacian_matrix().astype(np.int64)[1:, 1:]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="D_299 is 0"):
            det_exact(reduced)
        assert time.perf_counter() - start < 2

    def test_reductions_per_pivot_row(self, monkeypatch):
        # per pivot row: its coefficients L[k, j], then the row in place;
        # per panel with rows after it: its rows scaled into L^T.  No
        # column is reduced: 2n + b - 1 reductions for b panels
        calls = []
        sym_mod = exact._sym_mod
        monkeypatch.setattr(exact, "_sym_mod", lambda x, p: calls.append(1) or sym_mod(x, p))
        primes = [_det_prime(i) for i in range(16)]

        def reductions(ints):
            calls.clear()
            result = exact._det_mod_primes(ints, primes)
            return len(calls), result

        two_k4 = disjoint_union(complete_graph(4), complete_graph(4))
        for g in (petersen_graph(), two_k4, random_regular(GenConfig(10, 80, 0)),
                  random_regular(GenConfig(6, 2 * exact._DET_PANEL + 6, 0))):
            ints = g.laplacian_matrix().astype(np.int64)[1:, 1:]
            panels = -(-len(ints) // exact._DET_PANEL)
            assert reductions(ints)[0] == 2 * len(ints) + panels - 1
        # two disjoint K4: the last pivot is 0 under every prime, and the
        # kernel reports that column, 6, for each
        assert reductions(two_k4.laplacian_matrix().astype(np.int64)[1:, 1:])[1] == [6] * 16
        # a zero pivot under one prime changes nothing for the others
        p = primes[0]
        count, result = reductions(np.array([[p, 1], [1, 1]], dtype=np.int64))
        assert count == 4 and result[0] == 0 and result[1:] == [[(p - 1) % q] for q in primes[1:]]

    def test_laplacian_minors_match_bareiss(self):
        for g in (petersen_graph(), build_family(HD, 8), random_regular(GenConfig(10, 60, 3))):
            lap = g.laplacian_matrix().astype(np.int64).tolist()
            reduced = [row[1:] for row in lap[1:]]
            assert det_exact(reduced) == bareiss_det(reduced)

    def test_dimension_guard(self):
        # float64 stays exact while p + n * p**2 < 2**53 for p < 2**20
        assert DET_MAX_DIM * 2**40 + 2**20 < 2**53 < (DET_MAX_DIM + 1) * 2**40 + 2**20
        # one shared row keeps the oversized input small: the guard
        # fires before any copy is made
        row = [0] * (DET_MAX_DIM + 1)
        with pytest.raises(ValueError, match="dimension"):
            det_exact([row] * (DET_MAX_DIM + 1))

    def test_prime_table_is_built_on_first_use(self):
        # a fresh interpreter, so no earlier det_exact call has filled it
        code = ("import treepack.exact as e; assert e._det_primes == []; "
                "e.det_exact([[2, 1], [1, 2]]); assert e._det_primes")
        src = str(Path(treepack.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("entry", [True, False, np.bool_(True)])
    def test_bool_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="bool"):
            det_exact([[entry]])
        with pytest.raises(ValueError, match="bool"):
            char_poly_exact([[entry]])

    def test_numpy_integer_entries_accepted(self):
        m = np.array([[2, 1], [1, 2]], dtype=np.int64)
        assert det_exact(m) == 3
        assert char_poly_exact(m) == IntPoly([3, -4, 1])

    @pytest.mark.parametrize("rows", [
        [[2, 1], [1, 2]],                         # exact ints: the one-pass check
        [[np.int64(2), 1], [1, np.int32(2)]],     # numpy ints: entry by entry
        [[10**30 + 2, 1], [1, 2]],                # past int64: an object array
    ])
    def test_list_rows_accepted(self, rows):
        assert det_exact(rows) == 2 * int(rows[0][0]) - 1
        assert char_poly_exact(rows) == IntPoly(
            [2 * int(rows[0][0]) - 1, -int(rows[0][0]) - 2, 1])

    @pytest.mark.parametrize("rows,message", [
        ([[1, 2.0], [3, 4]], "integer entries required$"),
        ([[1, np.float64(2)], [3, 4]], "integer entries required$"),
        ([[1, 2], [np.bool_(False), 4]], "bool"),
        ([[1, 2], [3]], "not square"),
        ([[1, 2, 3], [4, 5, 6]], "not square"),
    ])
    def test_list_rows_refused(self, rows, message):
        with pytest.raises(ValueError, match=message):
            det_exact(rows)
        with pytest.raises(ValueError, match=message):
            char_poly_exact(rows)


@st.composite
def lifting_matrices(draw):
    """Symmetric integer matrices up to 12 x 12 with small or large entries;
    half are made diagonally dominant with a nonnegative diagonal, so that
    the lifting takes its diagonal bound."""
    n = draw(st.integers(1, 12))
    entries = st.integers(-9, 9) | st.integers(-10**6, 10**6)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = sum(abs(x) for j, x in enumerate(rows[i]) if j != i) \
                + draw(st.integers(0, 3))
    return rows


def complete_reduced(n):
    return complete_graph(n).laplacian_matrix().astype(np.int64)[1:, 1:]


def bridged_cliques(a, b):
    """The reduced Laplacian of K_a and K_b joined by one edge: its sandpile
    group is (Z/a)^(a-2) + (Z/b)^(b-2), far from cyclic, and it has
    a^(a-2) b^(b-2) spanning trees."""
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(a + u, a + v) for u in range(b) for v in range(u + 1, b)] + [(0, a)]
    return make_graph(a + b, edges).laplacian_matrix().astype(np.int64)[1:, 1:]


def det_outcome(rows):
    """det_exact(rows), or the text of the ValueError it raises."""
    try:
        return det_exact(rows)
    except ValueError as e:
        return str(e)


class TestLifting:
    """det_exact's default path, _det_by_lifting, against Bareiss, and the
    inputs it hands to the multi-modular fallback."""

    @settings(max_examples=150, deadline=None)
    @given(lifting_matrices())
    @example([[1]])
    @example([[-1, 2], [2, -5]])
    @example([[4, -1, -1], [-1, 4, -1], [-1, -1, 4]])
    def test_matches_bareiss(self, rows):
        minors = leading_minors(rows)
        if not all(minors):
            return
        lifted = exact._det_by_lifting(np.array(rows, dtype=np.int64))
        if lifted is None:
            # the one input these entries can hand on: the lifting prime
            # divides a leading minor
            assert any(m % _det_prime(0) == 0 for m in minors)
        else:
            assert lifted == minors[-1]
        assert det_exact(rows) == minors[-1]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 60))
    @example(2)
    @example(40)
    def test_complete_graphs(self, n):
        # the worst case: s = n, and the cofactor is nearly all of n**(n-2)
        reduced = complete_reduced(n)
        assert exact._det_by_lifting(reduced) == n ** (n - 2) \
            == leading_minors(reduced.tolist())[-1]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 16))
    @example(2, 2)
    @example(12, 16)
    def test_cliques_joined_by_a_bridge(self, a, b):
        reduced = bridged_cliques(a, b)
        expected = leading_minors(reduced.tolist())[-1]
        assert expected == a ** (a - 2) * b ** (b - 2)
        assert exact._det_by_lifting(reduced) == det_exact(reduced) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vectors_move_only_the_cofactor(self, monkeypatch, seed):
        # b and u decide s and so how many cofactor primes run, never det
        monkeypatch.setattr(exact, "_LIFT_SEED", seed)
        for reduced in (bridged_cliques(9, 12), complete_reduced(30),
                        random_regular(GenConfig(3, 60, seed)).laplacian_matrix()
                        .astype(np.int64)[1:, 1:]):
            assert exact._det_by_lifting(reduced) == leading_minors(reduced.tolist())[-1]

    p = _det_prime(0)
    # the largest absolute row sum the lifting takes at n = 2
    edge = (2**53 - 1) // (2 * (p // 2 + 1))

    @pytest.mark.parametrize("rows", [
        # the lifting prime divides a leading minor that is not 0
        [[p, 1], [1, 1]],
        [[p, 1, 0], [1, 2, 1], [0, 1, 3]],              # diagonally dominant
        [[1, 1, 0], [1, p + 1, 1], [0, 1, 2]],          # D_2 = p
        # a leading minor is 0: every prime divides it
        [[1, 1], [1, 1]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],        # the full Laplacian of K3
        # an entry past the float64 bound of the lifting
        [[edge, 1], [1, edge]],
        [[2**40, 1], [1, 2**40]],
        [[2**40, 2**40], [2**40, 2**40]],
        [[-2**63, 1], [1, 1]],
        [[10**30, 1], [1, 10**30]],                      # an object array
    ])
    def test_forced_fallback_gives_the_same(self, monkeypatch, rows):
        assert exact._det_by_lifting(exact._int_array(rows)) is None
        outcome = det_outcome(rows)
        minors = leading_minors(rows)
        assert outcome == (minors[-1] if all(minors)
                           else f"leading principal minor D_{len(minors)} is 0")
        monkeypatch.setattr(exact, "_det_by_lifting", lambda ints: None)
        assert det_outcome(rows) == outcome

    def test_float_bound_is_exact_at_its_edge(self):
        # row sums of edge, the largest the float64 bound admits at n = 2:
        # the lifting runs and equals Bareiss
        rows = [[self.edge - 1, 1], [1, self.edge - 1]]
        assert exact._det_by_lifting(np.array(rows, dtype=np.int64)) \
            == (self.edge - 1) ** 2 - 1 == bareiss_det(rows)

    def test_rational_reconstruction(self):
        m = _det_prime(0) ** 3
        assert exact._rational(-3 * pow(7, -1, m) % m, m, 10, 10) == (-3, 7)
        assert exact._rational(0, m, 10, 10) == (0, 1)
        # a fraction past the bounds is not found
        assert exact._rational(pow(10**6 + 3, -1, m), m, 10, 10) is None


def elimination_case(n, seed, n_primes, which, zero_pivot, zero_column, big):
    """A symmetric n x n integer matrix and its primes for the elimination
    tests.

    Entries are residues mod p = primes[which] plus multiples of p, up to
    about 10**30 when big (then an object array); the upper triangle, of
    the residues and of the lifted entries, is mirrored.  zero_pivot = c
    makes row and column c 0 mod p inside the leading (c + 1) x (c + 1)
    block, so p divides D_(c+1); zero_column = z makes row and column z 0
    mod p, so p divides D_(z+1) and every later leading minor.
    """
    primes = [_det_prime(i) for i in range(n_primes)]
    p = primes[which]
    rng = random.Random(seed)
    res = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    res = [[res[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if zero_pivot is not None:
        for j in range(zero_pivot + 1):
            res[zero_pivot][j] = res[j][zero_pivot] = 0
    if zero_column is not None:
        res[zero_column] = [0] * n
        for row in res:
            row[zero_column] = 0
    spread = 10**30 // p if big else 3
    rows = [[r + p * rng.randint(-spread, spread) for r in row] for row in res]
    rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return np.array(rows, dtype=object if big else np.int64), primes


PANEL = exact._DET_PANEL
case_defaults = dict(seed=5, n_primes=16, which=3, zero_pivot=None, zero_column=None,
                     big=False, panel=PANEL)


class TestBlockedElimination:
    """The panel elimination against the column-by-column reference, residue
    by residue, and column by column where a prime divides a leading
    minor.  zero_pivot is an offset from the panel width b, so the forced
    zero pivots fall at columns b - 1, b and b + 1."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 2 * PANEL + 8), panel=st.sampled_from([1, 2, 3, 5, 8, PANEL]),
           seed=st.integers(0, 2**32 - 1), n_primes=st.integers(1, 16),
           which=st.integers(0, 15), zero_pivot=st.sampled_from([None, -1, 0, 1]),
           zero_column=st.none() | st.integers(0, 2 * PANEL + 7), big=st.booleans())
    @example(n=1, **case_defaults)
    @example(n=PANEL - 7, **case_defaults)                      # n < b
    @example(n=2 * PANEL + 5, **case_defaults)                  # n not a multiple of b
    @example(n=2 * PANEL, **{**case_defaults, "big": True})     # entries near 10**30
    @example(n=PANEL + 9, **{**case_defaults, "zero_pivot": -1})
    @example(n=PANEL + 9, **{**case_defaults, "zero_pivot": 0})
    @example(n=PANEL + 9, **{**case_defaults, "zero_pivot": 1})
    @example(n=PANEL + 9, **{**case_defaults, "zero_column": PANEL + 2})
    def test_residues_match_unblocked_reference(self, n, panel, seed, n_primes, which,
                                                zero_pivot, zero_column, big):
        which %= n_primes
        pivot_col = None if zero_pivot is None else panel + zero_pivot
        if pivot_col is not None and pivot_col >= n:
            pivot_col = None
        if zero_column is not None and zero_column >= n:
            zero_column = None
        ints, primes = elimination_case(n, seed, n_primes, which, pivot_col, zero_column, big)
        assert np.array_equal(ints, ints.T)
        expected = det_mod_primes_unblocked(ints, primes)
        for col in (pivot_col, zero_column):
            if col is not None:
                # reported at that column, or at one before it whose minor
                # p divides as well
                assert isinstance(expected[which], int) and expected[which] <= col
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_DET_PANEL", panel)
            assert exact._det_mod_primes(ints, primes) == expected

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2 * PANEL + 5), seed=st.integers(0, 2**32 - 1),
           n_primes=st.integers(1, 16), which=st.integers(0, 15),
           zero_pivot=st.none() | st.integers(0, 2 * PANEL + 4), big=st.booleans())
    @example(n=2 * PANEL + 5, seed=5, n_primes=16, which=3, zero_pivot=PANEL, big=False)
    def test_only_the_upper_triangle_is_read(self, n, seed, n_primes, which, zero_pivot, big):
        # the trailing update skips the lower triangle, so nothing may read it
        which %= n_primes
        if zero_pivot is not None and zero_pivot >= n:
            zero_pivot = None
        ints, primes = elimination_case(n, seed, n_primes, which, zero_pivot, None, big)
        mixed = ints.copy()
        rng = random.Random(seed + 1)
        spread = 10**30 if big else 2**40
        for i in range(n):
            for j in range(i):
                mixed[i, j] = rng.randint(-spread, spread)
        assert exact._det_mod_primes(mixed, primes) == exact._det_mod_primes(ints, primes)

    def test_every_benchmark_style_laplacian(self):
        primes = [_det_prime(i) for i in range(16)]
        for seed in range(4):
            g = random_regular(GenConfig(10, 80, seed))
            ints = g.laplacian_matrix().astype(np.int64)[1:, 1:]
            assert exact._det_mod_primes(ints, primes) == det_mod_primes_unblocked(ints, primes)


class TestDeterminantOfArrays:
    """An integer ndarray is checked by its dtype and shape, not entry by entry."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_integer_dtypes(self, dtype):
        assert det_exact(np.array([[2, 1], [1, 2]], dtype=dtype)) == 3

    def test_uint64_entries_past_int64(self):
        assert det_exact(np.array([[2**64 - 1, 1], [1, 1]], dtype=np.uint64)) == 2**64 - 2

    @pytest.mark.parametrize("rows", [
        [[2**62, 1], [1, 2**62]],
        [[-2**63, 1], [1, 1]],
        [[3 * 10**9, 5, 1], [5, -3 * 10**9, 7], [1, 7, 3 * 10**9]],
    ])
    def test_int64_entries_whose_squares_overflow(self, rows):
        assert det_exact(np.array(rows, dtype=np.int64)) == bareiss_det(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_int64_array_matches_list(self, rows):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]
        array = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
        if all(leading_minors(rows)):
            assert det_exact(array) == det_exact(rows) == bareiss_det(rows)
        else:
            for m in (array, rows):
                with pytest.raises(ValueError, match="is 0"):
                    det_exact(m)

    def test_bool_dtype_rejected(self):
        with pytest.raises(ValueError, match="bool"):
            det_exact(np.array([[True, False], [False, True]]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    def test_float_and_complex_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="integer entries required"):
            det_exact(np.array([[2, 1], [1, 2]], dtype=dtype))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="not square"):
            det_exact(np.ones(shape, dtype=np.int64))

    def test_object_arrays_go_entry_by_entry(self):
        assert det_exact(np.array([[10**30, 1], [1, 10**30]], dtype=object)) == 10**60 - 1
        with pytest.raises(ValueError, match="integer entries required"):
            det_exact(np.array([[1, 2.5], [3, 4]], dtype=object))
        with pytest.raises(ValueError, match="bool"):
            det_exact(np.array([[True, 1], [1, 1]], dtype=object))


def test_squarefree_decomposition():
    p = poly_from_roots([1, 1, -2])          # (x-1)^2 (x+2)
    layers = squarefree_decomposition(p)
    assert (IntPoly([2, 1]), 1) in layers
    assert (IntPoly([-1, 1]), 2) in layers
    assert squarefree_part(p) == poly_from_roots([1, -2]).primitive()


def fraction_rem(num, den):
    """Reference: the remainder of num by den (nonzero), ascending Fraction
    lists, by long division over Fraction."""
    rem = num[:]
    while len(rem) >= len(den):
        q = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        for i, c in enumerate(den):
            rem[shift + i] -= q * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def fraction_sturm_chain(sf):
    """Reference: the classical Sturm chain f, f', -rem(f_{i-1}, f_i), ...
    over Fraction."""
    chain = [[Fraction(c) for c in sf.coeffs], [Fraction(c) for c in sf.derivative().coeffs]]
    while len(chain[-1]) > 1:
        rem = fraction_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def fraction_gcd(a, b):
    """Reference: gcd(a, b) by Euclid's algorithm over Fraction, scaled to a
    primitive integer polynomial with positive leading coefficient."""
    x, y = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while y:
        x, y = y, fraction_rem(x, y)
    scale = math.lcm(*(c.denominator for c in x))
    return IntPoly([int(c * scale) for c in x]).primitive()


def fraction_variations(chain, x):
    values = []
    for cs in chain:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        values.append(acc)
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def divisions(monkeypatch, f, *args):
    """The number of pseudo-divisions that f(*args) makes."""
    calls = []
    divmod_ = exact._divmod
    monkeypatch.setattr(exact, "_divmod", lambda *a: calls.append(a) or divmod_(*a))
    f(*args)
    return len(calls)


class TestSturm:
    def test_count_half_open_semantics(self):
        p = poly_from_roots([1, 2, 3])
        assert count_real_roots(p, Fraction(0), Fraction(3)) == 3
        assert count_real_roots(p, Fraction(1), Fraction(3)) == 2   # lo excluded
        assert count_real_roots(p, Fraction(1), Fraction(2)) == 1   # hi included
        assert count_real_roots(p, Fraction(3), Fraction(10)) == 0

    def test_counts_repeated_roots_once(self):
        p = poly_from_roots([2, 2, 5])
        assert count_real_roots(p, Fraction(0), Fraction(10)) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
           st.integers(min_value=-9, max_value=9),
           st.integers(min_value=-9, max_value=9))
    def test_count_matches_known_roots(self, roots, a, b):
        if a == b:
            return
        lo, hi = (Fraction(min(a, b)), Fraction(max(a, b)))
        p = poly_from_roots(roots)
        expected = len({r for r in roots if lo < r <= hi})
        assert count_real_roots(p, lo, hi) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
           st.lists(ints, min_size=1, max_size=5),
           st.lists(st.builds(Fraction, st.integers(-800, 800), st.integers(1, 64)),
                    min_size=1, max_size=8))
    # x^4 + x: the chain x^4 + x, x^3, -x, 1 drops two degrees under a
    # negative leading coefficient, where the sign rule is not simply -1
    @example([0, -1], [1, -1, 1], [Fraction(-2), Fraction(-1, 2), Fraction(1, 3)])
    def test_variations_match_fraction_chain(self, roots, extra, points):
        p = poly_from_roots(roots) * IntPoly(extra)
        if p.is_zero():
            return
        reference = fraction_sturm_chain(squarefree_part(p))
        chain = sturm_chain(p)
        assert len(chain) == len(reference)
        for x in points:
            count, on_root = _variations(chain, x.numerator, x.denominator)
            assert count == fraction_variations(reference, x)
            assert on_root == (squarefree_part(p).evaluate_at(x) == 0)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, small_polys, st.lists(ints, min_size=1, max_size=3).map(IntPoly))
    # deg a < deg b: the first remainder is a itself, with delta + 1 <= 0
    @example(IntPoly([0, 1]), IntPoly([0, 0, 0, 1]), IntPoly([1]))
    @example(IntPoly([0, -1]), IntPoly([0, 0, 1]), IntPoly([1]))
    @example(IntPoly([0, -2]), IntPoly([0, 0, 0, 5]), IntPoly([-1, 1]))
    # constant arguments and a zero b
    @example(IntPoly([-6]), IntPoly([4, 2]), IntPoly([1]))
    @example(IntPoly([3, 0, -1]), IntPoly([-4]), IntPoly([1]))
    @example(IntPoly([3, 0, -1]), IntPoly([]), IntPoly([2, -1]))
    def test_gcd_matches_fraction_euclid(self, a, b, common):
        a, b = a * common, b * common
        assert exact._gcd(a, b) == fraction_gcd(a, b)

    @settings(max_examples=150, deadline=None)
    @given(bisection_polys(), st.lists(ints, min_size=1, max_size=4).map(IntPoly))
    # x^4: Yun's decomposition takes gcd(x, x^3), where delta + 1 <= 0
    @example(IntPoly([0, 0, 0, 0, 1]), IntPoly([1]))
    @example(IntPoly([-3]), IntPoly([1]))
    @example(IntPoly([1, -2, 1]), IntPoly([0, -5]))
    def test_matches_two_pass_chain(self, p, extra):
        # bisection_polys repeat factors: the chain is rebuilt from f / gcd(f, f')
        p = p * extra
        if p.is_zero():
            with pytest.raises(ValueError, match="zero polynomial"):
                sturm_chain(p)
            return
        assert sturm_chain(p) == sturm_chain_two_pass(p)

    @pytest.mark.parametrize("spec, d, bound", [(HD, 16, 18), (GD, 12, 4)])
    def test_family_verification_division_count(self, monkeypatch, spec, d, bound):
        # a squarefree polynomial's chain is one remainder sequence, and
        # isolation takes it from the gcd pass of Yun's decomposition; taking
        # gcd(p, p') first and then the chain took 54 and 19 pseudo-divisions,
        # and building the chain again after Yun's gcd pass 30 and 9
        assert divisions(monkeypatch, verify_family, spec, d) <= bound

    def test_cauchy_bound_exceeds_roots(self):
        p = poly_from_roots([3, -7, 11])
        b = cauchy_bound(p)
        assert b > 11 and -b < -7


class TestRootIsolation:
    def test_sqrt2(self):
        p = IntPoly([-2, 0, 1])
        iso = sturm_isolate_largest_root(p, Fraction(1, 10 ** 15))
        assert abs(iso.as_float() - 2 ** 0.5) < 1e-14

    def test_exact_rational_root(self):
        p = poly_from_roots([4])
        iso = sturm_isolate_largest_root(p, Fraction(1, 10 ** 12))
        assert iso.lo <= 4 <= iso.hi

    def test_no_real_root_raises(self):
        with pytest.raises(ValueError):
            sturm_isolate_largest_root(IntPoly([1, 0, 1]), Fraction(1, 100))

    def test_isolate_with_multiplicities(self):
        p = poly_from_roots([1, 1, -3])
        found = isolate_real_roots(p, Fraction(1, 10 ** 9))
        assert len(found) == 2
        (i1, m1), (i2, m2) = found
        assert m1 == 1 and abs(i1.as_float() + 3) < 1e-8
        assert m2 == 2 and abs(i2.as_float() - 1) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4))
    def test_isolation_covers_all_roots(self, roots):
        p = poly_from_roots(roots)
        found = isolate_real_roots(p, Fraction(1, 10 ** 9))
        assert sum(mult for _, mult in found) == len(roots)
        recovered = sorted(iv.as_float() for iv, _ in found for _ in range(1))
        for r in sorted(set(roots)):
            assert any(abs(r - x) < 1e-8 for x in recovered)

    @settings(max_examples=80, deadline=None)
    @given(bisection_polys(), st.sampled_from([12, 30]))
    # x(x - 1): the first split is at the root 0, which then sits at hi;
    # (x - 1) is found at the midpoint 1 as a point interval
    @example(IntPoly([0, -1, 1]), 12)
    # (2x - 1)(4x + 3)^2: a repeated factor beside a simple one
    @example(IntPoly([-1, 2]) * IntPoly([3, 4]) ** 2, 30)
    def test_matches_sturm_count_bisection(self, p, digits):
        prec = Fraction(1, 10 ** digits)
        assert isolate_real_roots(p, prec) == sturm_count_roots(p, prec)
        assert sturm_isolate_largest_root(p, prec) == sturm_count_largest_root(p, prec)

    def test_point_interval_and_root_at_hi(self):
        # the two corner cases the comparison above has to reach
        (at_hi, _), (point, _) = isolate_real_roots(IntPoly([0, -1, 1]))
        assert at_hi.lo < at_hi.hi == 0
        assert point.lo == point.hi == 1

    @pytest.mark.parametrize("p, bound", [
        (p10_poly(16), 9),
        (poly_from_roots([3, 1, 1, -2, -2, -2, 5, 5, 5, 5]), 21),
    ])
    def test_division_count(self, monkeypatch, p, bound):
        # the last layer's chain is the gcd pass of Yun's decomposition that
        # found it squarefree; building it again took 21 and 27
        assert divisions(monkeypatch, isolate_real_roots, p) <= bound

    def test_single_root_steps_skip_the_chain(self, monkeypatch):
        # once an interval holds one root, bisection signs the first chain
        # member only; counting every member at every step took 1,025 calls
        calls = []
        variations = exact._variations
        monkeypatch.setattr(exact, "_variations", lambda *a: calls.append(a) or variations(*a))
        isolate_real_roots(p10_poly(16), Fraction(1, 10 ** 30))
        assert len(calls) <= 50


@st.composite
def grid_roots(draw):
    """An interval (lo/den, hi/den] that bisection halves s times, and a
    polynomial with a root r on its final grid of 2**s cells: on a grid
    point (a point interval, or the top end hi) or off one by much less than
    a cell.  An optional second factor puts a root within about a cell of
    r, or an irrational pair around it, so the interval may hold several
    roots closer together than prec."""
    den, lo, span = draw(st.integers(1, 40)), draw(st.integers(-60, 60)), draw(st.integers(1, 60))
    s = draw(st.integers(0, 64))
    scale = den << s
    r = Fraction((lo << s) + draw(st.integers(1, 1 << s)) * span, scale)
    r += draw(st.sampled_from([0, 0, 1, -1])) * Fraction(1, scale * draw(st.integers(2, 10**6)))
    p = IntPoly([-r.numerator, r.denominator])
    near = draw(st.sampled_from(["none", "rational", "irrational"]))
    if near == "rational":
        q = r + Fraction(draw(st.integers(-3, 3)) or 1, scale * draw(st.integers(1, 4)))
        p = p * IntPoly([-q.numerator, q.denominator])
    elif near == "irrational":
        # (m x - m r)^2 = k: roots r +- sqrt(k)/m, within a few cells of r
        m, k = scale * draw(st.integers(1, 8)), draw(st.sampled_from([2, 3, 5]))
        c = m * r
        p = p * IntPoly([c.numerator ** 2 - k * c.denominator ** 2,
                         -2 * m * c.numerator * c.denominator,
                         (m * c.denominator) ** 2])
    return p, lo, lo + span, den, Fraction(span, scale)


@st.composite
def clustered_polys(draw):
    """Products of factors b x - a with large b and neighbouring a, so some
    roots lie closer together than 10**-6, times dyadic and repeated roots."""
    p = IntPoly([draw(st.sampled_from([-1, 1, 2]))])
    b = 10 ** draw(st.integers(3, 40))
    a = draw(st.integers(-5 * b, 5 * b))
    for _ in range(draw(st.integers(2, 3))):
        p = p * IntPoly([-a, b])
        a += draw(st.integers(1, 1000))
    if draw(st.booleans()):
        p = p * draw(bisection_polys())
    return p


def _bisection_steps(lo, hi, den, prec):
    """The halvings bisection takes from (lo/den, hi/den] down to prec."""
    s = 0
    while (hi - lo) * prec.denominator > prec.numerator * (den << s):
        s += 1
    return s


class TestCellSearch:
    """The single-root search returns bisection's interval exactly."""

    @settings(max_examples=300, deadline=None)
    @given(grid_roots())
    # the root at the top end: f(hi) = 0
    @example((IntPoly([-1, 1]), 0, 1, 1, Fraction(1, 2 ** 64)))
    # the root on an interior grid point: a point interval
    @example((IntPoly([-3, 8]), 0, 1, 1, Fraction(1, 2 ** 64)))
    # a root 5 * 2**-15 below hi and another 2**-15 above it: secants
    # through probes on either side point past hi or land just under it, and
    # only the midpoints after two of them keep the search to 3 probes per
    # halving (without them it moves one cell at a time)
    @example((IntPoly([-(2 ** 15 - 5), 2 ** 15]) * IntPoly([-(2 ** 15 + 1), 2 ** 15]),
              0, 1, 1, Fraction(1, 2 ** 64)))
    def test_matches_bisection_on_the_grid(self, case):
        p, lo, hi, den, prec = case
        chain = sturm_chain(p)
        v_lo, v_hi = _variations(chain, lo, den)[0], _variations(chain, hi, den)[0]
        if v_lo == v_hi:
            return      # the offset moved the root out of the interval
        # with one root in the interval every evaluation is the search's:
        # the top end, then at most 3 probes per halving
        budget = [3 * _bisection_steps(lo, hi, den, prec) + 1 if v_lo - v_hi == 1 else None]
        value = exact._value

        def counting_value(*args):
            if budget[0] is not None:
                budget[0] -= 1
                assert budget[0] >= 0, "more than 3 probes per halving"
            return value(*args)

        with mock.patch.object(exact, "_value", counting_value):
            found = exact._bisect_top(chain, lo, hi, den, v_lo, v_hi, prec)
        assert found == bisect_top_reference(chain, lo, hi, den, v_lo, v_hi, prec)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(bisection_polys(), clustered_polys()), st.integers(0, 60))
    def test_isolations_match_bisection(self, p, digits):
        prec = Fraction(1, 10 ** digits)
        assert isolate_real_roots(p, prec) == by_bisection(isolate_real_roots, p, prec)
        assert (sturm_isolate_largest_root(p, prec)
                == by_bisection(sturm_isolate_largest_root, p, prec))

    @pytest.mark.parametrize("spec", [GD, HD], ids=["Gd", "Hd"])
    def test_families_match_bisection(self, spec):
        for d in range(spec.d_min, 101):
            for prec in (exact.DEFAULT_PRECISION, Fraction(1, 10 ** 30)):
                p = spec.poly(d)
                assert isolate_real_roots(p, prec) == by_bisection(isolate_real_roots, p, prec)

    def test_probes_per_halving(self, monkeypatch):
        # per single-root interval: [bisection's steps, sign evaluations]
        calls, inside = [], []
        find_cell, value = exact._find_cell, exact._value

        def counting_find_cell(f, lo, hi, den, prec):
            inside.append([_bisection_steps(lo, hi, den, prec), 0])
            try:
                return find_cell(f, lo, hi, den, prec)
            finally:
                calls.append(inside.pop())

        def counting_value(*args):
            if inside:
                inside[-1][1] += 1
            return value(*args)

        monkeypatch.setattr(exact, "_find_cell", counting_find_cell)
        monkeypatch.setattr(exact, "_value", counting_value)
        isolate_real_roots(HD.poly(16), Fraction(1, 10 ** 30))
        assert sum(steps for steps, _ in calls) == 981
        # the top end, then at most 3 probes per halving
        assert all(evals <= 3 * steps + 1 for steps, evals in calls)
        assert sum(evals for _, evals in calls) <= 123


@st.composite
def distinct_linear_products(draw):
    """Products of distinct linear factors b x - a, so every root is real
    and simple, with some roots closer together than a root cell and
    some on dyadic points; and proposals for them: each root's float, moved
    by up to a few cells or far, left out or doubled, and a few stray
    floats."""
    big = 10 ** draw(st.integers(0, 12))
    roots = draw(st.sets(st.one_of(
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 8, 1024])),
        st.builds(Fraction, st.integers(-30 * big, 30 * big), st.just(big)),
    ), min_size=1, max_size=6))
    p = IntPoly([draw(st.sampled_from([-2, -1, 1, 3]))])
    for r in roots:
        p = p * IntPoly([-r.numerator, r.denominator])
    proposals = []
    for r in sorted(roots):
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            shift = draw(st.sampled_from([0, 0, 0, 1e-15, -1e-15, 1e-10, -1e-10, 1e-3]))
            proposals.append(float(r) * (1 + shift) + shift)
    proposals += draw(st.lists(st.floats(-40, 40), max_size=3))
    return p, draw(st.permutations(proposals))


class TestRootCells:
    """Proposed cells, checked by signs, give isolate_real_roots' intervals."""

    @settings(max_examples=300, deadline=None)
    @given(distinct_linear_products(),
           st.sampled_from([Fraction(1, 10 ** 12), Fraction(1, 10 ** 30),
                            Fraction(1, 3), Fraction(2), Fraction(1, 2 ** 40)]))
    # x(x - 1): both roots are grid points, so a cell end signs 0
    @example((IntPoly([0, -1, 1]), [0.0, 1.0]), Fraction(1, 10 ** 12))
    # roots 1/3 and 1/3 + 1e-12 share a cell
    @example((IntPoly([-1, 3]) * IntPoly([-(10 ** 12 + 3), 3 * 10 ** 12]),
              [1 / 3, 1 / 3 + 1e-12]), Fraction(1, 10 ** 30))
    def test_accepted_cells_are_the_isolation(self, case, prec):
        p, proposals = case
        found = root_cells(p, proposals, prec)
        if found is not None:
            assert found == isolate_real_roots(p, prec)

    @pytest.mark.parametrize("spec", [GD, HD], ids=["Gd", "Hd"])
    def test_families_are_proved_from_their_roots(self, spec):
        for d in range(spec.d_min, 31):
            for prec in (exact.DEFAULT_PRECISION, Fraction(1, 10 ** 30)):
                p = spec.poly(d)
                expected = isolate_real_roots(p, prec)
                proposals = [iv.as_float() for iv, _ in expected] + [float(d), -1.0]
                assert root_cells(p, proposals, prec) == expected

    @pytest.mark.parametrize("proposals", [
        [10 / 3, 4 / 3],                        # no proposal for -5/3
        [10 / 3, 4 / 3, 4 / 3],                 # -5/3 missing, 4/3 doubled
        [10 / 3, 4 / 3, -5 / 3 + 1e-3],         # -5/3 moved far out of its cell
        [10 / 3, 4 / 3, float("nan")],
        [10 / 3, 4 / 3, float("inf"), -5 / 3],
    ], ids=["missing", "doubled", "moved", "nan", "inf"])
    def test_refused(self, proposals):
        # (3x - 10)(3x - 4)(3x + 5): no root on the grid, so only the
        # proposals decide
        p = IntPoly([-10, 3]) * IntPoly([-4, 3]) * IntPoly([5, 3])
        prec = Fraction(1, 10 ** 12)
        assert root_cells(p, [10 / 3, 4 / 3, -5 / 3], prec) == isolate_real_roots(p, prec)
        assert root_cells(p, proposals, prec) is None

    def test_refuses_a_root_on_the_grid_and_a_constant(self):
        # 0 is the midpoint of (-B, B], so its cell ends there
        assert root_cells(IntPoly([0, 1]), [0.0]) is None
        assert root_cells(IntPoly([0, -1, 1]), [0.0, 1.0]) is None
        assert root_cells(IntPoly([5]), [1.0]) is None

    def test_cells_are_about_two_to_the_minus_33_wide(self, monkeypatch):
        # each sign-changing cell is handed to _find_cell with the value of
        # p at its top end, which the cell check has already taken
        p = p10_poly(100)
        expected = isolate_real_roots(p, Fraction(1, 10 ** 30))
        handed = []
        find_cell = exact._find_cell

        def spy(f, lo, hi, den, prec, f_hi):
            handed.append(Fraction(hi - lo, den))
            assert f_hi == exact._value(f, hi, den)
            return find_cell(f, lo, hi, den, prec, f_hi)

        monkeypatch.setattr(exact, "_find_cell", spy)
        assert root_cells(p, [iv.as_float() for iv, _ in expected], Fraction(1, 10 ** 30)) \
            == expected
        assert len(handed) == 10
        assert all(Fraction(1, 2 ** 34) < w <= Fraction(1, 2 ** 33) for w in handed)

    @pytest.mark.parametrize("poly", [p3_poly, p10_poly])
    @pytest.mark.parametrize("precision", [exact.DEFAULT_PRECISION, Fraction(1, 10 ** 30)])
    def test_handed_top_value_keeps_every_probe(self, monkeypatch, poly, precision):
        # f_hi is scaled to the search's grid, so each cell's search probes
        # what one that signs the top end itself probes after that end
        proposals = {d: [iv.as_float() for iv, _ in isolate_real_roots(poly(d), precision)]
                     for d in (4, 16, 100)}
        handed = []
        find_cell, value = exact._find_cell, exact._value
        monkeypatch.setattr(exact, "_find_cell",
                            lambda *args: handed.append(args) or find_cell(*args))
        for d, roots in proposals.items():
            root_cells(poly(d), roots, precision)
        monkeypatch.setattr(exact, "_find_cell", find_cell)
        assert len(handed) == 3 * poly(4).degree
        for f, lo, hi, den, prec, f_hi in handed:
            runs = []
            for top in (None, f_hi):
                seen = []
                monkeypatch.setattr(exact, "_value",
                                    lambda cs, a, b: seen.append((a, b)) or value(cs, a, b))
                runs.append((find_cell(f, lo, hi, den, prec, top), seen))
            assert runs[1] == (runs[0][0], runs[0][1][1:])


def test_descartes_positivity():
    p = IntPoly([-6, 11, -6, 1])    # (x-1)(x-2)(x-3)
    report = descartes_positivity_check(p, 4)
    assert report.all_positive
    assert report.values[0] == 6    # p(4)
    assert not descartes_positivity_check(p, 0).all_positive
    # all derivatives positive at a point implies no roots at or beyond it
    assert count_real_roots(p, Fraction(4), cauchy_bound(p)) == 0


# ---------------------------------------------------------------------------
# Root isolation pinned on a fixed corpus.  The hashes were recorded with the
# Sturm chain over Fraction that the integer chain replaced; every interval
# endpoint, multiplicity and count must stay exactly as it was.


def _pin_corpus():
    polys = [p3_poly(d) for d in range(4, 13)]
    polys += [p10_poly(d) for d in range(6, 17)]
    polys += [claimed_charpoly(GD, d) for d in range(4, 13)]
    polys += [claimed_charpoly(HD, d) for d in range(6, 17)]
    polys.append(char_poly_exact(adjacency_int(petersen_graph())))
    # seeded products of repeated rational roots b x - a, some with a
    # quadratic factor that may have no real roots
    rng = random.Random(20130501)
    for _ in range(16):
        p = IntPoly([rng.choice([-3, -1, 1, 2])])
        for _ in range(rng.randint(1, 3)):
            root = IntPoly([-rng.randint(-9, 9), rng.randint(1, 4)])
            p = p * root ** rng.randint(1, 3)
        if rng.random() < 0.5:
            p = p * IntPoly([rng.randint(-6, 6), rng.randint(-4, 4), 1])
        polys.append(p)
    return polys


def _count_points(p):
    """Interval ends for count_real_roots: halves and thirds on [-20, 20]
    (some fall exactly on rational roots) and the Cauchy bound."""
    bound = cauchy_bound(p)
    pts = {Fraction(k, 2) for k in range(-40, 41)}
    pts |= {Fraction(k, 3) for k in range(-59, 60, 2)}
    pts |= {-bound, bound}
    return sorted(pts)


def _pin_record(name, prec):
    rows = []
    for p in _pin_corpus():
        if name == "isolate_real_roots":
            rows.append([[str(iv.lo), str(iv.hi), m] for iv, m in isolate_real_roots(p, prec)])
        elif name == "sturm_isolate_largest_root":
            iv = sturm_isolate_largest_root(p, prec)
            rows.append([str(iv.lo), str(iv.hi)])
        else:
            pts = _count_points(p)
            rows.append([count_real_roots(p, lo, hi) for lo, hi in zip(pts, pts[1:])]
                        + [count_real_roots(p, pts[0], hi) for hi in pts[1::5]])
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


PINNED_ROOTS = {
    ("isolate_real_roots", 12):
        "d469a71faff3e9ab9cef62c6e859712c24e8d521f3e0c0e8167772470aafbc31",
    ("isolate_real_roots", 30):
        "1c557771985537fe081c3049c0ddb1f352151fe308b0afefebbc92022414327f",
    ("sturm_isolate_largest_root", 12):
        "f44ee6eda74408292b061e4233a0ad8c19b42421a66281f1b8b37c76070e0904",
    ("sturm_isolate_largest_root", 30):
        "3077141725cb58d09900bc662994bd13c93686deaa23a6d84c2989af02ac9c8e",
    ("count_real_roots", 0):
        "f43e7fb45fa69b592e3077f73142dc8cf28dc6b4158b270508389548ef202321",
}


@pytest.mark.parametrize("name,digits", sorted(PINNED_ROOTS))
def test_root_isolation_is_pinned(name, digits):
    prec = Fraction(1, 10 ** digits)
    assert _pin_record(name, prec) == PINNED_ROOTS[name, digits]
