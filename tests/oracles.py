"""Reference oracles the tests compare treepack against.

Each one works straight from a definition and shares no code with the
algorithm it checks: nothing here imports `treepack.packing`,
`treepack.connectivity` or `treepack.spectra`.  The brute-force ones
enumerate, and their guards keep the enumerations small;
`exact_adjacency_roots` takes the eigenvalues from the exact
characteristic polynomial instead of the float eigensolver, and
`sturm_count_roots` and `sturm_count_largest_root` isolate roots with a
Sturm count at every bisection step, on the squarefree layers of
`squarefree_decomposition`, a Yun decomposition that runs a separate gcd
pass for each squarefree part (`isolate_real_roots` reuses its remainder
sequence for the chain); `bisect_top_reference` narrows an
isolated root by one bisection step per halving, and `by_bisection` runs
the isolations with it; `sturm_chain_two_pass` takes the squarefree part
by a remainder sequence run to a zero remainder, then builds its chain by
a second one; `det_mod_primes_unblocked` eliminates
one column at a time without pivoting, updating the whole trailing block
at every pivot;
`char_poly_faddeev_leverrier` runs Faddeev-LeVerrier on Python integers,
with no primes; `reference_edge_connectivity` runs Stoer-Wagner on one
weight dict per vertex, each phase from a heap; `leading_minors` takes
the leading principal minors of an integer matrix by Bareiss elimination
on Python integers; `reference_pack` packs
with a labeling search that enqueues every labeled edge, on forests kept
by union-find and re-rooted whole.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import gcd
from unittest import mock

import numpy as np

import treepack.exact as exact
from treepack.exact import (
    IntPoly,
    RootInterval,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    isolate_real_roots,
    _divmod,
    _exact_quotient,
    _gcd,
    _value,
    _variations,
)
from treepack.graphs import Edge, Graph

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


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), as a primitive IntPoly with positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    # a constant's derivative is 0, so the gcd is the constant and the
    # quotient is 1
    return _exact_quotient(p, _gcd(p, p.derivative()))


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun-style decomposition: p = c * prod q_i^i with each q_i squarefree.

    Returns the nonconstant (q_i, i) factors.  Used to recover eigenvalue
    multiplicities from characteristic polynomials.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    out: list[tuple[IntPoly, int]] = []
    work = p.primitive()
    mult = 1
    while work.degree > 0:
        sf = squarefree_part(work)
        # factor appearing with multiplicity >= mult is sf; peel one layer:
        # q = work / sf has exactly the factors of multiplicity >= 2 in work.
        q = _exact_quotient(work, sf)
        # factors exactly at this multiplicity: sf / squarefree_part-of-q's-support
        layer = _exact_quotient(sf, _gcd(sf, q))
        if layer.degree > 0:
            out.append((layer, mult))
        work = q
        mult += 1
    return out


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


def bisect_top_reference(chain, lo: int, hi: int, den: int, v_lo: int, v_hi: int,
                         prec: Fraction) -> RootInterval:
    """`exact._bisect_top` by plain bisection: halve (lo/den, hi/den] around
    the largest root of the chain in it until the width is at most prec.

    A step doubles lo, hi and den, so the midpoint is the integer lo + hi
    over the new den.  While the interval holds several roots, a variation
    count at the midpoint keeps the half with the largest one.  Once it
    holds one, the first member f of the chain decides alone: the root lies
    above the midpoint iff f(hi) = 0 or f(mid) and f(hi) differ in sign.  A
    midpoint that is the root ends the search with a point interval.
    """
    f_hi = None         # f at hi (its sign), fixed once one root remains
    while (hi - lo) * prec.denominator > prec.numerator * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if v_lo - v_hi > 1:
            v_mid, on_root = _variations(chain, mid, den)
        else:
            if f_hi is None:
                f_hi = _value(chain[0], hi, den)
            f_mid = _value(chain[0], mid, den)
            # the count at mid: one more than at hi iff the root is above mid
            v_mid = v_hi + (f_mid != 0 and f_hi * f_mid <= 0)
            on_root = not f_mid
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        elif on_root:
            # mid is a root and none lies above it
            return RootInterval(Fraction(mid, den), Fraction(mid, den))
        else:
            hi, v_hi = mid, v_mid
    return RootInterval(Fraction(lo, den), Fraction(hi, den))


def by_bisection(isolate, p: IntPoly, prec: Fraction):
    """isolate(p, prec), for `isolate_real_roots` or
    `sturm_isolate_largest_root`, with every interval narrowed by
    bisect_top_reference."""
    with mock.patch.object(exact, "_bisect_top", bisect_top_reference):
        return isolate(p, prec)


def sturm_chain_two_pass(p: IntPoly) -> list[list[int]]:
    """`sturm_chain` in two passes.  The first divides p by gcd(p, p'),
    taken by a primitive remainder sequence (content removed, signs left
    as they come) run until a remainder is zero.  The second builds the
    chain of that squarefree part: member i+1 is the pseudo-remainder of
    members i-1 and i, content removed and signed -sign(lc)^(delta + 1),
    with lc the leading coefficient of member i and delta >= 0 the drop in
    degree."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a, b = p.coeffs, p.derivative().coeffs
    while b:
        r = _divmod(a, b)[1]
        content = gcd(*r)
        a, b = b, [c // content for c in r]
    sf = _exact_quotient(p, IntPoly(a).primitive())
    chain = [list(sf.coeffs), list(sf.derivative().primitive().coeffs)]
    while len(chain[-1]) > 1:
        prev, cur = chain[-2], chain[-1]
        rem = _divmod(prev, cur)[1]
        if not rem:
            break
        sign = -((1 if cur[-1] > 0 else -1) ** (len(prev) - len(cur) + 1))
        content = sign * gcd(*rem)
        chain.append([c // content for c in rem])
    if not chain[-1]:
        chain.pop()
    return chain


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


def reference_edge_connectivity(g: Graph) -> tuple[int, frozenset[int]]:
    """Stoer-Wagner as (value, side), on a sparse contracted graph.

    The contracted graph is one weight dict per vertex, and each
    maximum-adjacency phase pops a heap ordered by (-attachment, vertex)
    with lazy deletion: maximum attachment, ties to the smallest index,
    the same rule as `edge_connectivity`, so both return the same side.
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    comps = g.components
    if len(comps) > 1:
        return 0, min(comps, key=min)

    n = g.n
    adj: list[dict[int, int]] = [dict.fromkeys(nbrs, 1) for nbrs in g.neighbors]
    merged = [frozenset((v,)) for v in range(n)]
    best: tuple[int, frozenset[int]] | None = None

    for size in range(n, 1, -1):
        # Heap keys are v - attach * n: smallest key means largest
        # attachment, then smallest index, and key % n recovers v.
        # Attachments only grow, so a vertex's freshest key pops first and
        # its older keys are skipped.
        attach = [0] * n
        done = [False] * n
        heap = [0]
        s = t = 0
        for _ in range(size):
            v = heappop(heap) % n
            while done[v]:
                v = heappop(heap) % n
            done[v] = True
            s, t = t, v
            for u, w in adj[v].items():
                if not done[u]:
                    attach[u] += w
                    heappush(heap, u - attach[u] * n)
        if best is None or attach[t] < best[0]:
            best = attach[t], merged[t]
        for u, w in adj[t].items():        # contract t into s
            del adj[u][t]
            if u != s:
                adj[s][u] = adj[s].get(u, 0) + w
                adj[u][s] = adj[s][u]
        adj[t] = {}
        merged[s] |= merged[t]

    assert best is not None
    return best


def leading_minors(rows) -> list[int]:
    """The leading principal minors D_1, D_2, ... of an integer matrix by
    fraction-free Bareiss elimination without pivoting, up to and
    including the first zero one, after which an unpivoted step would
    divide by zero.  After step k the pivot a[k][k] is D_{k+1}, and each
    division by the previous pivot is exact.  By Sylvester's criterion a
    symmetric matrix is positive definite exactly when every D_j > 0."""
    a = [list(map(int, r)) for r in rows]
    minors: list[int] = []
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        minors.append(pivot)
        if pivot == 0:
            break
        row_k = a[k][k + 1:]
        for i in range(k + 1, len(a)):
            a_ik = a[i][k]
            a[i][k + 1:] = [(x * pivot - a_ik * y) // prev
                            for x, y in zip(a[i][k + 1:], row_k)]
        prev = pivot
    return minors


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


def det_mod_primes_unblocked(ints: np.ndarray, primes: list[int]) -> list[list[int] | int]:
    """det(ints) mod each prime as [residue], by column-by-column float64
    elimination without pivoting over a (primes, n, n) array:
    `exact._det_mod_primes` without panels, and eliminating below each
    pivot (its column and the whole trailing block) rather than only the
    pivot rows of the upper triangle.

    Row and column k are reduced mod p only when they become the pivots,
    and the whole trailing block takes the rank-1 update of every pivot.
    A prime whose pivot at column k is 0 mod p, the first such column,
    divides the leading minor D_(k+1), and k is reported in its place.
    """
    n = len(ints)
    work = (ints[None] % np.array(primes, dtype=ints.dtype)[:, None, None]).astype(np.float64)
    p_vec = np.array(primes, dtype=np.float64)
    p_col = p_vec[:, None]
    det = np.ones(len(primes))
    first_zero: list[int | None] = [None] * len(primes)
    for k in range(n):
        work[:, k:, k] = np.remainder(work[:, k:, k], p_col)
        row = work[:, k, k:] = np.remainder(work[:, k, k:], p_col)
        for j in np.flatnonzero(row[:, 0] == 0):
            if first_zero[j] is None:
                first_zero[j] = k
        det = np.remainder(det * row[:, 0], p_vec)
        if k + 1 < n:
            inv = np.array([pow(int(x), -1, p) if x else 0
                            for x, p in zip(row[:, 0].tolist(), primes)], dtype=np.float64)
            factor = np.remainder(work[:, k + 1:, k] * inv[:, None], p_col)
            work[:, k + 1:, k + 1:] -= factor[:, :, None] * row[:, None, 1:]
    return [[int(r)] if z is None else z for r, z in zip(det, first_zero)]


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


# ---------------------------------------------------------------------------
# The reference packer: matroid-union augmentation whose labeling search
# enqueues every labeled edge and whose clumps are a union-find, on forests
# kept as `packing._Packer` kept them before its component ids.


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class UnionFindForests:
    """The forest state of `packing._Packer` before component ids: a
    union-find per forest, a stale flag, and a whole-forest re-root at the
    next path query or right after a chain that shrank the forest."""

    def __init__(self, g: Graph, k: int):
        self.k = k
        self.n = g.n
        self.forest_adj: list[dict[int, set[int]]] = [dict() for _ in range(k)]
        self.dsu: list[_DSU] = [_DSU(g.n) for _ in range(k)]
        self.edge_forest: dict[Edge, int] = {}
        self.total = 0
        # rooted form of each forest, for path queries: parent and depth
        # per vertex (a root is its own parent).  Adding or removing an edge
        # marks the forest stale; the next path query re-roots it, unless
        # the chain that removed the edge has re-rooted it already.
        self.parent: list[list[int]] = [list(range(g.n)) for _ in range(k)]
        self.depth: list[list[int]] = [[0] * g.n for _ in range(k)]
        self.stale = [False] * k

    def _forest_add(self, i: int, e: Edge):
        u, v = e
        self.forest_adj[i].setdefault(u, set()).add(v)
        self.forest_adj[i].setdefault(v, set()).add(u)
        self.edge_forest[e] = i
        self.stale[i] = True

    def _forest_remove(self, i: int, e: Edge):
        u, v = e
        self.forest_adj[i][u].discard(v)
        self.forest_adj[i][v].discard(u)
        del self.edge_forest[e]
        self.stale[i] = True

    def _root_forest(self, i: int):
        """Root every tree of forest i in one traversal."""
        adj = self.forest_adj[i]
        parent = list(range(self.n))
        depth = [0] * self.n
        seen = [False] * self.n
        for r in adj:
            if seen[r]:
                continue
            seen[r] = True
            stack = [r]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        stack.append(y)
        self.parent[i], self.depth[i], self.stale[i] = parent, depth, False

    def _tree_path(self, i: int, u: int, v: int) -> list[Edge]:
        """Edges on the unique u-v path in forest i (same component assumed).

        The edges run from v to u: v's side climbs to the lowest common
        ancestor, then u's side follows in reverse.  The order fixes the
        order of the labeling search, and so the trees the packer builds.
        """
        if self.stale[i]:
            self._root_forest(i)
        parent, depth = self.parent[i], self.depth[i]
        from_v: list[Edge] = []
        from_u: list[Edge] = []
        while depth[v] > depth[u]:
            p = parent[v]
            from_v.append((p, v) if p < v else (v, p))
            v = p
        while depth[u] > depth[v]:
            p = parent[u]
            from_u.append((p, u) if p < u else (u, p))
            u = p
        while u != v:
            p = parent[v]
            from_v.append((p, v) if p < v else (v, p))
            v = p
            p = parent[u]
            from_u.append((p, u) if p < u else (u, p))
            u = p
        from_u.reverse()
        return from_v + from_u

    def _apply_chain(self, edge: Edge, forest: int, label: dict[Edge, Edge | None]):
        """Cascade of swaps: move `edge` into `forest`, its predecessor into
        the forest `edge` vacated, and so on back to the new edge."""
        shrunk: set[int] = set()
        cur, target = edge, forest
        while label[cur] is not None:
            src = self.edge_forest[cur]
            self._forest_remove(src, cur)
            self._forest_add(target, cur)
            self.dsu[target].union(*cur)
            shrunk.add(src)
            cur, target = label[cur], src
        self._forest_add(target, cur)   # cur is the new edge
        self.dsu[target].union(*cur)
        self.total += 1
        # a forest that only gained edges is up to date after its unions; one
        # that lost an edge is re-rooted, and its rooted parent array, where a
        # root is its own parent, replaces its union-find array as it stands
        for i in shrunk:
            self._root_forest(i)
            self.dsu[i].parent = self.parent[i][:]

    def forests_as_edge_sets(self) -> list[frozenset[Edge]]:
        out: list[set[Edge]] = [set() for _ in range(self.k)]
        for e, i in self.edge_forest.items():
            out[i].add(e)
        return [frozenset(s) for s in out]




class ReferencePacker(UnionFindForests):
    """Packer whose labeling search enqueues every labeled edge and whose
    clumps are a union-find."""

    def __init__(self, g: Graph, k: int):
        super().__init__(g, k)
        self.clumps = _DSU(g.n)

    def try_insert(self, e: Edge) -> bool:
        if self.clumps.find(e[0]) == self.clumps.find(e[1]):
            return False
        label: dict[Edge, Edge | None] = {e: None}
        queue = deque([e])
        while queue:
            f = queue.popleft()
            for i, d in enumerate(self.dsu):
                if d.find(f[0]) != d.find(f[1]):
                    self._apply_chain(f, i, label)
                    return True
            for i in range(self.k):
                for h in self._tree_path(i, *f):
                    if h not in label:
                        label[h] = f
                        queue.append(h)
        for a, b in label:
            self.clumps.union(a, b)
        return False


def reference_pack(g: Graph, k: int):
    """(success, trees in forest order, witness blocks) as `pack_trees`
    reports them, from ReferencePacker: a disconnected graph fails with its
    components as the witness, and a failed pack with its clumps."""
    if g.n <= 1:
        return True, [[] for _ in range(k)], None
    comps = sorted((sorted(c) for c in g.components), key=min)
    if len(comps) > 1:
        return False, None, comps
    packer = ReferencePacker(g, k)
    for e in sorted(g.edges):
        if packer.try_insert(e) and packer.total == k * (g.n - 1):
            return True, [sorted(t) for t in packer.forests_as_edge_sets()], None
    groups: dict[int, list[int]] = {}
    for x in range(g.n):
        groups.setdefault(packer.clumps.find(x), []).append(x)
    return False, None, sorted(groups.values(), key=min)
