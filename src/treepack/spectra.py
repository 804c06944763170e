"""Dense symmetric eigensolving, a certified bound on lambda2, quotient
matrices, and interlacing checks."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, ldexp
from typing import Sequence

import numpy as np

from .exact import IntPoly, char_poly_exact, isolate_real_roots
from .graphs import Graph, VertexPartition

INTERLACING_TOL = 1e-9
GROUPING_TOL = 1e-7


def multiplicities(values: Sequence[float]) -> list[tuple[float, int]]:
    """Group descending values within GROUPING_TOL: list of (representative, count)."""
    groups: list[tuple[float, int]] = []
    for v in values:
        if groups and abs(groups[-1][0] - v) <= GROUPING_TOL:
            rep, cnt = groups[-1]
            groups[-1] = (rep, cnt + 1)
        else:
            groups.append((v, 1))
    return groups


def eig_symmetric(m: np.ndarray) -> tuple[float, ...]:
    """Eigenvalues of a dense, exactly symmetric matrix as a descending
    tuple; any other matrix is refused."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return tuple(float(v) for v in np.linalg.eigvalsh(a)[::-1])


def adjacency_spectrum(g: Graph) -> tuple[float, ...]:
    """Adjacency eigenvalues, descending."""
    if g.n == 0:
        raise ValueError("empty graph has no spectrum")
    return eig_symmetric(g.adjacency_matrix())


def lambda2(g: Graph) -> float:
    """Second-largest adjacency eigenvalue."""
    if g.n == 1:
        raise ValueError("lambda2 undefined for a single vertex")
    return adjacency_spectrum(g)[1]


def certify_lambda2_below(g: Graph, a: int, b: int) -> bool:
    """True when a float Cholesky proves lambda2 < a/b for a d-regular g
    with a/b <= d; False when it does not, and for an irregular g or
    a/b > d, where the bound holds for every d-regular g and proves
    nothing.  At a/b = d it proves that g is connected (K2 at q_1 = 1).

    The integer matrix M = n(aI - bA) + (bd - a + 1)J has eigenvalue n on
    the all-ones vector and nb(a/b - lambda_i) on its complement, so M is
    positive definite exactly when lambda2 < a/b.  M depends on a and b,
    not only on a/b.  Its entries are exact in float64.  The proof holds
    only when ``np.linalg.cholesky`` succeeds on M - sigma I, with sigma
    the least power of two at or above 2^8 (n + 1) 2^-53 tr(M) and the
    shifted diagonal checked to be exact.  A Cholesky that runs to
    completion on a symmetric B returns R with R^T R = B + E and
    ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(B) (Demmel; Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3).  That is
    about (n + 1) 2^-53 tr(M), and sigma is at least 2^8 times it, so
    M = R^T R + sigma I - E is positive definite.

    A certified M has lambda_min(M) >= sigma - ||E|| > 0, so a/b - lambda2
    is at least about 2^8 (n + 1) 2^-53 tr(M) / (nb): 5e-10 for a
    10-regular graph with n = 44 at theta_2 = 10 - 3/11, and 7e-6 at
    n = 5000, far above the error of a dense float eigensolve (about
    1e-13 there).  The float lambda2 of a certified graph therefore lies
    below a/b too.

    The call holds three n x n float64 arrays at once (M, numpy's working
    copy and the factor): 600 MB at n = 5000.
    """
    if b < 1:
        raise ValueError("b must be a positive integer")
    d = g.degree_if_regular()
    if not d or a > b * d:
        return False
    n = g.n
    ones = b * d - a + 1        # J's coefficient, at least 1
    diag = n * a + ones
    # sigma = 2**e, the least power of two >= 2**8 (n+1) 2**-53 tr(M),
    # with tr(M) = n * diag
    sigma = ldexp(1.0, ((n + 1) * n * diag - 1).bit_length() - 45)
    if Fraction(diag - sigma) != diag - Fraction(sigma):
        return False
    m = np.full((n, n), float(ones))
    us, vs = g.edge_index.T
    m[us, vs] = m[vs, us] = ones - n * b
    np.fill_diagonal(m, diag - sigma)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def laplacian_spectrum(g: Graph) -> tuple[float, ...]:
    """Laplacian eigenvalues sorted ascending (mu_1 = 0 for any graph)."""
    if g.n == 0:
        raise ValueError("empty graph")
    return tuple(reversed(eig_symmetric(g.laplacian_matrix())))


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged neighbor counts b_ij = e(X_i, X_j) / |X_i| for a partition.

    The diagonal carries the average internal degree 2 e(X_i, X_i) / |X_i|.
    Entries are exact Fractions; row i sums to d for a d-regular graph.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def t(self) -> int:
        return len(self.entries)

    def char_poly(self) -> IntPoly:
        """Exact char poly, denominators cleared (roots unchanged).

        With L the lcm of the denominators, cp(x) = det(xI - LQ) has
        cp(Lx) = L^t chi_Q(x): the coefficients c_i L^i of cp(Lx) are those
        of chi_Q up to a constant factor, which .primitive() removes.
        """
        scale = lcm(*(x.denominator for row in self.entries for x in row))
        cp = char_poly_exact([[int(x * scale) for x in row] for row in self.entries])
        return IntPoly([c * scale ** i for i, c in enumerate(cp.coeffs)]).primitive()

    def eigenvalues_exact(self) -> list[float]:
        """Eigenvalues via the exact char-poly + Sturm route, descending.

        Quotient matrices are not symmetric in general, but for a graph
        partition they are similar to a symmetric matrix, so all roots
        are real; this route avoids a nonsymmetric float eigensolver.  Each
        root is the float midpoint of its Sturm interval, repeated by
        multiplicity.  Raises unless all t roots are real.
        """
        cp = self.char_poly()
        out = [interval.as_float()
               for interval, mult in isolate_real_roots(cp) for _ in range(mult)]
        out.sort(reverse=True)
        if len(out) != cp.degree:
            raise AssertionError("characteristic polynomial must have only real roots")
        return out


def quotient_matrix(g: Graph, p: VertexPartition) -> QuotientMatrix:
    """Quotient matrix of a partition, with exact Fraction entries.

    Each edge is counted once from each end, so the diagonal holds twice
    the internal edge count of its block."""
    if p.n != g.n:
        raise ValueError("partition does not match graph")
    owner = p.block_of
    counts = [[0] * p.t for _ in range(p.t)]
    for u, v in g.edges:
        i, j = owner[u], owner[v]
        counts[i][j] += 1
        counts[j][i] += 1
    sizes = p.sizes()
    return QuotientMatrix(
        tuple(tuple(Fraction(c, sizes[i]) for c in row) for i, row in enumerate(counts)))


def equitable_quotient(g: Graph, p: VertexPartition) -> list[list[int]] | None:
    """The quotient of an equitable partition as integer rows: row i holds
    the neighbors that every vertex of block i has in each block.  None
    when some two vertices of one block count differently."""
    if p.n != g.n:
        raise ValueError("partition does not match graph")
    owner = p.block_of
    rows: list[list[int] | None] = [None] * p.t
    for v in range(g.n):
        counts = [0] * p.t
        for w in g.neighbors[v]:
            counts[owner[w]] += 1
        b = owner[v]
        if rows[b] is None:
            rows[b] = counts
        elif rows[b] != counts:
            return None
    return rows


@dataclass(frozen=True)
class InterlacingResult:
    ok: bool
    worst_margin: float   # most negative slack over both chains, >= -INTERLACING_TOL if ok


def check_interlacing(outer: Sequence[float], inner: Sequence[float]) -> InterlacingResult:
    """Check lambda_i(A) >= lambda_i(B) >= lambda_{n-m+i}(A) within INTERLACING_TOL.

    Both inputs are descending eigenvalue sequences.
    """
    n, m = len(outer), len(inner)
    if m > n:
        raise ValueError("inner spectrum longer than outer")
    worst = float("inf")
    for i in range(m):
        worst = min(worst, outer[i] - inner[i], inner[i] - outer[n - m + i])
    return InterlacingResult(worst >= -INTERLACING_TOL, worst)

