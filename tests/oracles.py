"""Reference oracles the tests compare treepack against.

Each one works straight from a definition and shares no code with the
algorithm it checks: nothing here imports `treepack.packing`,
`treepack.connectivity` or `treepack.spectra`.  The brute-force ones
enumerate, and their guards keep the enumerations small;
`exact_adjacency_roots` takes the eigenvalues from the exact
characteristic polynomial instead of the float eigensolver, and
`sturm_count_roots` and `sturm_count_largest_root` isolate roots with a
Sturm count at every bisection step; `det_mod_primes_unblocked` eliminates
one column at a time, updating the whole trailing block at every pivot;
`char_poly_faddeev_leverrier` runs Faddeev-LeVerrier on Python integers,
with no primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from treepack.exact import (
    IntPoly,
    RootInterval,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    isolate_real_roots,
    squarefree_decomposition,
    squarefree_part,
)
from treepack.graphs import Graph

BELL_GUARD = 12          # sigma_bruteforce refuses above this vertex count
BRUTE_FORCE_GUARD = 16   # edge_connectivity_bruteforce refuses above this


@dataclass(frozen=True)
class SigmaOracle:
    sigma: int
    tau1: Fraction | None   # min over partitions of crossing / (t - 1)


def sigma_bruteforce(g: Graph) -> SigmaOracle:
    """Exact sigma by enumerating every set partition (Nash-Williams/Tutte).

    Refuses n > 12: the Bell numbers take over.  Also returns the exact
    strength tau_1; sigma = floor(tau_1).
    """
    n = g.n
    if n > BELL_GUARD:
        raise ValueError(f"brute-force oracle limited to n <= {BELL_GUARD}")
    if n <= 1:
        return SigmaOracle(0, None)

    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    # seed with the all-singletons partition (t = n, crossing = m); the
    # running minimum is kept as an integer pair for exact comparisons
    best_num, best_den = g.m, n - 1

    # restricted-growth enumeration: vertex v joins an existing block or
    # opens a new one; crossing edges are counted incrementally, and a
    # branch dies once crossing / (max reachable t - 1) >= current best.
    def descend(v: int, blocks: list[int], assigned: int, crossing: int):
        nonlocal best_num, best_den
        finest = len(blocks) + (n - v) - 1
        if finest >= 1 and crossing * best_den >= best_num * finest:
            return
        if v == n:
            t = len(blocks)
            if t >= 2 and crossing * best_den < best_num * (t - 1):
                best_num, best_den = crossing, t - 1
            return
        external = adj[v] & assigned
        for b in range(len(blocks)):
            inc = (external & ~blocks[b]).bit_count()
            blocks[b] |= 1 << v
            descend(v + 1, blocks, assigned | (1 << v), crossing + inc)
            blocks[b] &= ~(1 << v)
        blocks.append(1 << v)
        descend(v + 1, blocks, assigned | (1 << v), crossing + external.bit_count())
        blocks.pop()

    descend(1, [1], 1, 0)
    tau1 = Fraction(best_num, best_den)
    return SigmaOracle(int(tau1), tau1)


def adjacency_int(g: Graph) -> list[list[int]]:
    """The adjacency matrix in Python ints, read off the edge set."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return a


def exact_adjacency_roots(g: Graph) -> list[float]:
    """All n adjacency eigenvalues, descending and repeated by multiplicity,
    as the float midpoints of the Sturm intervals of the exact
    characteristic polynomial."""
    roots = isolate_real_roots(char_poly_exact(adjacency_int(g)))
    return sorted((iv.as_float() for iv, mult in roots for _ in range(mult)), reverse=True)


def _bisect_by_counts(f: IntPoly, lo: Fraction, hi: Fraction,
                      prec: Fraction) -> RootInterval:
    """Halve (lo, hi] around the largest root of f in it, keeping the upper
    half whenever a Sturm count finds a root there."""
    while hi - lo > prec:
        mid = (lo + hi) / 2
        if count_real_roots(f, mid, hi) > 0:
            lo = mid
        elif f.evaluate_at(mid) == 0:
            return RootInterval(mid, mid)
        else:
            hi = mid
    return RootInterval(lo, hi)


def sturm_count_largest_root(p: IntPoly, prec: Fraction) -> RootInterval:
    """`sturm_isolate_largest_root` by bisecting (-B, B] on Fractions, B the
    Cauchy bound of the squarefree part, with a Sturm count at every step.
    p must have a real root."""
    f = squarefree_part(p)
    bound = cauchy_bound(f)
    return _bisect_by_counts(f, -bound, bound, prec)


def sturm_count_roots(p: IntPoly, prec: Fraction) -> list[tuple[RootInterval, int]]:
    """`isolate_real_roots` by splitting (-B, B] of each squarefree factor
    until each part holds one root, then bisecting that part, all with a
    Sturm count at every step."""
    found = []
    for f, mult in squarefree_decomposition(p):
        pending = [(-cauchy_bound(f), cauchy_bound(f))]
        while pending:
            lo, hi = pending.pop()
            count = count_real_roots(f, lo, hi)
            if count == 1:
                found.append((_bisect_by_counts(f, lo, hi, prec), mult))
            elif count > 1:
                mid = (lo + hi) / 2
                pending += [(mid, hi), (lo, mid)]     # lower half first
    return sorted(found, key=lambda item: item[0].lo)


def edge_connectivity_bruteforce(g: Graph) -> int:
    """Minimum crossing count over all proper subsets containing vertex 0."""
    if g.n > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_GUARD}")
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best = g.m + 1
    for half in range(1 << (n - 1)):
        mask = (half << 1) | 1      # vertex 0 always inside
        if mask == full:
            continue
        outside = full & ~mask
        crossing = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            crossing += (adj[v] & outside).bit_count()
            m &= m - 1
        if crossing < best:
            best = crossing
    return best


def count_spanning_trees_exhaustive(g: Graph) -> int:
    """Literal enumeration of all spanning trees: every (n-1)-edge subset
    that connects the vertex set.  Guard m <= 18."""
    if g.m > 18:
        raise ValueError("exhaustive count limited to m <= 18")
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n == 1:
        return 1
    return sum(_joins_all(g.n, subset)
               for subset in combinations(sorted(g.edges), g.n - 1))


def _joins_all(n: int, edges) -> bool:
    """Whether the edges connect vertices 0..n-1, by a plain union-find."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    joins = 0
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            joins += 1
    return joins == n - 1


def det_mod_primes_unblocked(ints: np.ndarray, primes: list[int]) -> list[int]:
    """det(ints) mod each prime by column-by-column float64 elimination over
    a (primes, n, n) array: `exact._det_mod_primes` without panels.

    Row and column k are reduced mod p only when they become the pivots,
    and the whole trailing block takes the rank-1 update of every pivot.
    A pivot that is 0 mod p swaps rows in that prime's slice only; a column
    that is 0 mod p leaves the residue 0.
    """
    n = len(ints)
    work = (ints[None] % np.array(primes, dtype=ints.dtype)[:, None, None]).astype(np.float64)
    p_vec = np.array(primes, dtype=np.float64)
    p_col = p_vec[:, None]
    det = np.ones(len(primes))
    for k in range(n):
        col = work[:, k:, k] = np.remainder(work[:, k:, k], p_col)
        for j in np.flatnonzero(col[:, 0] == 0):
            below = np.flatnonzero(col[j])
            if below.size:
                i = k + int(below[0])
                work[j, [k, i]] = work[j, [i, k]]
                det[j] = primes[j] - det[j]
        row = work[:, k, k:] = np.remainder(work[:, k, k:], p_col)
        det = np.remainder(det * row[:, 0], p_vec)
        if k + 1 < n:
            inv = np.array([pow(int(x), -1, p) if x else 0
                            for x, p in zip(row[:, 0].tolist(), primes)], dtype=np.float64)
            factor = np.remainder(work[:, k + 1:, k] * inv[:, None], p_col)
            work[:, k + 1:, k + 1:] -= factor[:, :, None] * row[:, None, 1:]
    return [int(r) for r in det]


def char_poly_faddeev_leverrier(rows) -> IntPoly:
    """Monic det(xI - M) by Faddeev-LeVerrier over Python integers: the
    single-modulus reference for `exact.char_poly_exact`.

    M_1 = M, M_k = M (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k; every
    division is exact.
    """
    a = [[int(x) for x in row] for row in rows]
    dim = len(a)
    # coeffs[dim] = 1, coeffs[dim - k] = c_k from the recurrence
    coeffs = [0] * dim + [1]
    nonzero = [[(l, x) for l, x in enumerate(row) if x] for row in a]
    mk = [row[:] for row in a]
    for k in range(1, dim + 1):
        if k > 1:
            # mk <- a @ (mk_prev + c_(k-1) I), over the nonzeros of each row of a
            for i in range(dim):
                mk[i][i] += coeffs[dim - k + 1]
            next_mk = []
            for terms in nonzero:
                acc = [0] * dim
                for l, x in terms:
                    acc = [s + x * y for s, y in zip(acc, mk[l])]
                next_mk.append(acc)
            mk = next_mk
        q, r = divmod(-sum(mk[i][i] for i in range(dim)), k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        coeffs[dim - k] = q
    return IntPoly(coeffs)
