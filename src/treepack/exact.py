"""Exact integer/rational polynomial arithmetic and real-root location.

The workhorses are:

* ``IntPoly`` — integer-coefficient univariate polynomials (ascending
  coefficient order, trailing zeros trimmed);
* one multi-modular engine for exact linear algebra on integer matrices:
  float64 residues in (-p, p) modulo the primes just below 2**20, batched
  across primes in a (primes, n, n) array, one symmetric reduction
  x - p*rint(x/p), and one Chinese remainder step up to a Hadamard bound.
  Two kernels run on it:

  - ``char_poly_exact`` — Faddeev-LeVerrier mod p, one batched matrix
    product per step, no pivots;
  - ``_det_mod_primes`` — a blocked unpivoted L D L^T mod p of a symmetric
    matrix whose leading principal minors are nonzero, on the contiguous
    pivot rows D L^T of its upper triangle, with batched matrix products
    (BLAS dgemm) for the trailing update after each panel.  Rows are never
    swapped: a prime that divides a leading minor is replaced by the next
    one.  Blocking only regroups the products: each entry still takes one
    product of two residues per earlier pivot, so the float64 bound, and
    with it ``DET_MAX_DIM``, are those of a column-by-column elimination;
* ``det_exact`` — for such a matrix, the reduced Laplacian of a connected
  graph for one, p-adic lifting (Dixon, Numer. Math. 1982; unchecked) by
  default: one symmetric Schur-complement inverse modulo one prime p,
  float64 lifting steps of A x = b, rational reconstruction of u.x, whose
  denominator s divides det, and the cofactor det / s from det mod p,
  with primes from ``_det_mod_primes`` added only when H / s is past p/2.
  H is Hadamard's bound on det and every cofactor: prod max(a_ii, 1) for a
  diagonally dominant A with a nonnegative diagonal, the row-norm product
  otherwise.  A leading minor that p divides, an entry past the float64
  bound of the lifting, or an object array takes the multi-modular
  L D L^T alone, which names a zero leading minor in its ValueError;
* Sturm chains of primitive integer polynomials (pseudo-remainders with
  their content removed) for exact root counting, interval isolation of
  the largest real root, and full real-root isolation with multiplicities.
  One remainder sequence, ``_remainders``, serves both the gcd and the
  chain: it ends in gcd(f, f'), so a squarefree f takes one pass.
  ``isolate_real_roots`` runs Yun's squarefree decomposition on it, and
  the gcd pass that finds the last layer squarefree is that layer's chain.
  Signs
  and values at a rational point a/b come from the homogenised sum
  sum c_i a^i b^(deg - i) (``_value``), so no ``Fraction`` arithmetic is
  involved.
  Both isolations narrow an interval with one routine, ``_bisect_top``,
  which follows the largest root of the chain inside the interval: it
  bisects by variation counts while the interval holds several roots;
  once it holds one, a secant search on the sign of the chain's first
  member alone finds the cell of bisection's final grid that holds the
  root, so the interval is the one bisection gives;
* root cells beside Sturm isolation: ``root_cells`` takes float proposals
  for the roots (a family's quotient eigenvalues), puts each in a cell of
  bisection's grid and checks it by two exact signs.  When the cells show
  deg p sign changes, every root is simple and isolated, and the same
  secant search returns bisection's intervals without a chain; otherwise
  it gives None and ``isolate_real_roots`` runs;
* ``descartes_positivity_check`` — exact sign report for p, p', ..., p^(deg)
  at a rational point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isfinite, isqrt, prod
from typing import Iterable, Sequence

import numpy as np


class IntPoly:
    """Integer-coefficient polynomial; coeffs[i] is the x^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = list(coeffs)
        for c in cs:
            # bool subclasses int, but True is not a coefficient
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other) -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate_at(self, x: Fraction | int) -> Fraction:
        """Exact value at x, always returned as a reduced Fraction."""
        return Fraction(_value(self.coeffs, x.numerator, x.denominator),
                        x.denominator ** max(self.degree, 0))

    def primitive(self) -> "IntPoly":
        """Divide out the content; sign normalized so the leading coeff is positive."""
        if self.is_zero():
            return self
        g = gcd(*self.coeffs)
        sign = 1 if self.leading() > 0 else -1
        return IntPoly([sign * c // g for c in self.coeffs])


# ---------------------------------------------------------------------------
# Exact linear algebra on integer matrices
# ---------------------------------------------------------------------------

def _int_array(m) -> np.ndarray:
    """m as a square int64 array, or an object array of Python ints when an
    entry is past int64.  An integer ndarray is checked by its dtype and
    shape; square rows of exact ints in one pass over their types; anything
    else goes entry by entry.  More than DET_MAX_DIM rows are refused
    first, before any copy."""
    if len(m) > DET_MAX_DIM:
        raise ValueError(f"exact linear algebra is limited to dimension <= {DET_MAX_DIM}")
    if isinstance(m, np.ndarray) and m.dtype != object:
        if m.dtype.kind == "b":
            raise ValueError("integer entries required, got a bool")
        if m.dtype.kind not in "iu":
            raise ValueError("integer entries required")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix is not square")
        if np.can_cast(m.dtype, np.int64):
            return m.astype(np.int64, copy=False)
        m = m.tolist()      # uint64, whose entries may be past int64
    ints = [list(r) for r in m]
    if not (all(len(r) == len(ints) for r in ints)
            and set(map(type, chain.from_iterable(ints))) <= {int}):
        for r in ints:
            if len(r) != len(ints):
                raise ValueError("matrix is not square")
            for x in r:
                # bool subclasses int and np.bool_.item() is a bool: neither
                # is an integer entry
                if isinstance(x, (bool, np.bool_)):
                    raise ValueError("integer entries required, got a bool")
                # numpy int64 etc. are fine once converted; reject floats
                if not (isinstance(x, int) or hasattr(x, "item") and isinstance(x.item(), int)):
                    raise ValueError("integer entries required")
        ints = [[int(x) for x in r] for r in ints]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


# The multi-modular engine below works modulo the primes just below 2**20,
# on float64 residues: every residue lies in (-p, p), so every product of
# two is below 2**40 in size, and a sum of them is exact while it stays
# below 2**53.  An elimination entry starts in (-p, p) and takes at most n
# unreduced updates, one product per earlier pivot, so it stays below
# p + n*p**2; a Faddeev-LeVerrier entry is a sum of n + 1 products.  Both
# are below 2**53 for n <= DET_MAX_DIM.
_PRIME_CEILING = 1 << 20
DET_MAX_DIM = (2**53 - _PRIME_CEILING) // _PRIME_CEILING**2
# Primes per (primes, n, n) work array, so the array stays 16 * n * n
# floats: the characteristic polynomial, the fallback of det_exact and its
# cofactor primes take their primes in batches of this many.  The reduced
# Laplacian of a random 10-regular graph needs at most one cofactor batch
# up to n = 650.
_DET_BATCH = 16
# Pivot rows per panel and per trailing row block: 48-64 ran fastest at n = 320-650.
_DET_PANEL = 64
# The largest block _inverse_mod sweeps one pivot at a time: 24-48 ran
# fastest at n = 80-650.
_INVERSE_BASE = 32
# The seed of the fixed vectors b and u of _det_by_lifting.
_LIFT_SEED = 2026
_det_primes: list[int] = []    # descending from _PRIME_CEILING, filled on first use


def _det_prime(i: int) -> int:
    """The i-th largest prime below 2**20."""
    q = _det_primes[-1] if _det_primes else _PRIME_CEILING
    while len(_det_primes) <= i:
        q -= 1
        if q < 3:
            raise ValueError("Hadamard bound exceeds the primes below 2**20")
        if q % 2 and all(q % f for f in range(3, isqrt(q) + 1, 2)):
            _det_primes.append(q)
    return _det_primes[i]


def _multimodular(kernel, ints: np.ndarray, bound: int,
                  known: Sequence[list[int]] = ()) -> list[int]:
    """The integers in [-bound, bound] that kernel(ints, primes) gives
    modulo each prime, as one list of residues per prime.

    The largest primes below 2**20 are taken, as few as give a product M
    above 2 * bound (at least one), in batches of _DET_BATCH per kernel
    call; the Chinese remainder theorem combines the residues of each
    value in (-M/2, M/2).  known holds the residues under the first
    primes, already computed: the kernel runs only on the primes after
    them, and not at all when they suffice.

    For a prime that divides a leading principal minor D_(j+1) of ints,
    the kernel may report the column j in place of the residues.  That
    prime is replaced by the next one.  bound covers every leading minor,
    so once the primes reported at one column multiply past it, that
    minor is 0, and ValueError names it.  A prime the kernel gives None
    for is replaced and proves nothing.
    """
    primes = [_det_prime(i) for i in range(len(known))]
    rows = list(known)
    reported: dict[int, int] = {}    # column -> product of the primes reported there
    modulus, taken = prod(primes), len(primes)
    while modulus <= 2 * bound or not primes:
        batch = [_det_prime(taken)]
        while len(batch) < _DET_BATCH and modulus * prod(batch) <= 2 * bound:
            batch.append(_det_prime(taken + len(batch)))
        taken += len(batch)
        for p, row in zip(batch, kernel(ints, batch)):
            if row is None:
                continue
            if isinstance(row, int):
                reported[row] = reported.get(row, 1) * p
                if reported[row] > bound:
                    raise ValueError(f"leading principal minor D_{row + 1} is 0")
            else:
                primes.append(p)
                rows.append(row)
                modulus *= p
    weights = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    sums = [sum(r * w for r, w in zip(column, weights)) % modulus for column in zip(*rows)]
    return [x - modulus if 2 * x > modulus else x for x in sums]


def _sym_mod(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x mod p as a float64 residue in (-p, p), for integer-valued x below
    2**53 in size.  rint(x / p) is within 1/2 + 2**-20 of x/p, so the
    residue is within p/2 + 1 of 0, and it is 0 exactly when p divides x."""
    return x - p * np.rint(x / p)


def _residues(ints: np.ndarray, primes: list[int]) -> np.ndarray:
    """ints mod each prime as a (primes, n, n) float64 array with entries in
    (-p, p); entries already in that range go in unreduced."""
    if -min(primes) < ints.min() and ints.max() < min(primes):
        return np.repeat(ints[None].astype(np.float64), len(primes), axis=0)
    return (ints[None] % np.array(primes, dtype=ints.dtype)[:, None, None]).astype(np.float64)


def _norms_sq(ints: np.ndarray) -> list[int]:
    """The squared row norms, as int64 sums while n * max|x|**2 fits."""
    if ints.dtype == object or max(int(ints.max()), -int(ints.min())) ** 2 * len(ints) >= 2**63:
        return [sum(x * x for x in row) for row in ints.tolist()]
    return (ints * ints).sum(axis=1).tolist()


def _char_poly_mod_primes(ints: np.ndarray, primes: list[int]) -> list[list[int]]:
    """c_1, ..., c_n of det(xI - A) = x^n + c_1 x^(n-1) + ... + c_n modulo
    each prime, by Faddeev-LeVerrier on a (primes, n, n) float64 array:
    M_1 = A, M_k = A (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k, with one
    batched matrix product per step and the inverses of 1..n mod p taken
    once.  No pivots, so no residue is ever a special case.  Only the
    diagonal of M_(k-1) + c_(k-1) I reaches 2p in size, and an entry of the
    product takes one diagonal entry, so it stays below (n + 1) * p**2."""
    a = _residues(ints, primes)
    n = len(ints)
    p_col = np.array(primes, dtype=np.float64)[:, None]
    inv = np.array([[pow(k, -1, p) for k in range(1, n + 1)] for p in primes],
                   dtype=np.float64)
    coeffs = np.empty((len(primes), n))
    m = a.copy()
    for k in range(n):
        if k:
            # M + c I, through a flat view of the diagonal (m is contiguous)
            m.reshape(len(primes), -1)[:, ::n + 1] += coeffs[:, k - 1, None]
            m = _sym_mod(a @ m, p_col[:, :, None])
        coeffs[:, k] = _sym_mod(-np.trace(m, axis1=1, axis2=2) * inv[:, k], p_col[:, 0])
    return coeffs.astype(np.int64).tolist()


def char_poly_exact(m: Sequence[Sequence[int]] | np.ndarray) -> IntPoly:
    """Monic characteristic polynomial det(xI - M) of an integer matrix, by
    multi-modular Faddeev-LeVerrier.

    c_k, the coefficient of x^(n-k), is up to sign the sum of the k x k
    principal minors.  Hadamard's inequality bounds each minor by the
    product of its rows' norms, so with r_i the row norms of M,
    |c_k| <= e_k(r) <= B = prod(1 + ceil(r_i)).  Primes are taken
    until their product M exceeds 2B, and the Chinese remainder theorem
    combines the residues in (-M/2, M/2).
    """
    ints = _int_array(m)
    if len(ints) == 0:
        return IntPoly([1])
    # 1 + ceil(sqrt(s)) for a squared norm s
    bound = prod(2 + isqrt(s - 1) if s else 1 for s in _norms_sq(ints))
    return IntPoly(_multimodular(_char_poly_mod_primes, ints, bound)[::-1] + [1])


def _det_mod_primes(ints: np.ndarray, primes: list[int]) -> list[list[int] | int]:
    """det(ints) mod each prime, as [residue] with the residue in [0, p),
    by one blocked unpivoted L D L^T over a (primes, n, n) float64 array;
    ints is symmetric, and only its upper triangle is read.  A prime whose
    pivot at column j is 0, the first such column, divides the leading
    minor D_(j+1): the column j is reported in its place.

    The pivot rows U = D L^T go in panels of _DET_PANEL; L is not stored.
    Inside a panel, row k takes the products it missed from the panel's
    earlier pivots j, with L[k, j] = U[j, k] / d_j formed and reduced for
    it, in one batched vector-matrix product, and is reduced in place.
    After the panel, its rows scaled by their pivots' inverses are L^T,
    and the upper triangle of the trailing block takes L U by blocks of
    _DET_PANEL rows.  Each entry still takes one product of two reduced
    residues per earlier pivot, so the float64 bound is that of a
    column-by-column elimination.  A zero pivot's inverse is 0, so every
    entry stays a residue; each prime's residue is its diagonal's product.
    """
    n = len(ints)
    p_col = np.array(primes, dtype=np.float64)[:, None]
    work = _residues(ints, primes)
    inv = np.empty((len(primes), n))    # per column, the pivot's inverse under each prime
    for k0 in range(0, n, _DET_PANEL):
        k1 = min(k0 + _DET_PANEL, n)
        for k in range(k0, k1):
            row = work[:, k, k:]
            coeffs = _sym_mod(work[:, k0:k, k] * inv[:, k0:k], p_col)
            row -= (coeffs[:, None] @ work[:, k0:k, k:])[:, 0]
            row[:] = _sym_mod(row, p_col)
            pivot = row[:, 0].astype(np.int64).tolist()
            inv[:, k] = [pow(x, -1, p) if x else 0 for x, p in zip(pivot, primes)]
        if k1 < n:
            u, trailing = work[:, k0:k1, k1:], work[:, k1:, k1:]
            lt = _sym_mod(u * inv[:, k0:k1, None], p_col[:, :, None]).transpose(0, 2, 1)
            for r in range(0, n - k1, _DET_PANEL):
                trailing[:, r:r + _DET_PANEL, r:] -= lt[:, r:r + _DET_PANEL] @ u[:, :, r:]
    per_prime = np.diagonal(work, axis1=1, axis2=2).astype(np.int64).tolist()
    return [column.index(0) if 0 in column else [prod(column) % p]
            for column, p in zip(per_prime, primes)]


def _inverse_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, int] | None:
    """(A^-1, det A) modulo p for a symmetric float64 matrix A of residues
    of size at most p/2 + 1, the inverse as such residues and det A in
    [0, p); None when p divides a leading principal minor of A.

    Recursive by Schur complements with no pivoting: with B = A11^-1,
    X = B A12 and S = A22 - A12^T X, the inverse is [[B + Y X^T, -Y],
    [-Y^T, S^-1]] for Y = X S^-1, and det A = det A11 det S.  Each product
    is one BLAS call of residues, reduced at once.  A block of at most
    _INVERSE_BASE rows is swept in place, one pivot at a time, to -A^-1.
    det A is the product of the pivots, and every pivot is a ratio of two
    consecutive leading minors of A, so a pivot of 0 is such a minor."""
    m = len(a)
    if m <= _INVERSE_BASE:
        a, det = a.copy(), 1
        for k in range(m):
            v = _sym_mod(a[k], p)    # row k, and column k by symmetry
            pivot = int(v[k]) % p
            if not pivot:
                return None
            det = det * pivot % p
            inv = pow(pivot, -1, p)
            r = _sym_mod(v * inv, p)
            a -= v[:, None] * r
            a[k] = a[:, k] = r
            a[k, k] = -inv
        return _sym_mod(-a, p), det
    h = m // 2
    top = _inverse_mod(a[:h, :h], p)
    if top is None:
        return None
    x = _sym_mod(top[0] @ a[:h, h:], p)
    bottom = _inverse_mod(_sym_mod(a[h:, h:] - a[:h, h:].T @ x, p), p)
    if bottom is None:
        return None
    y = _sym_mod(x @ bottom[0], p)
    return (np.block([[_sym_mod(top[0] + y @ x.T, p), -y], [-y.T, bottom[0]]]),
            top[1] * bottom[1] % p)


def _rational(x: int, modulus: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b x mod modulus, |a| <= num_bound, 0 < b <= den_bound
    and gcd(a, b) = 1, or None.  While 2 num_bound den_bound < modulus at
    most one such fraction a/b exists, and the extended Euclidean
    algorithm on (modulus, x), stopped at the first remainder of at most
    num_bound, finds it (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = modulus, x % modulus, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if 0 < t1 <= den_bound and gcd(r1, t1) == 1 else None


def _det_by_lifting(ints: np.ndarray) -> int | None:
    """det(ints) for a symmetric integer matrix, by p-adic lifting modulo
    the prime p = _det_prime(0); None when p divides a leading principal
    minor, when an entry is past the float64 bound below (an object array
    holds one past int64), or when the reconstruction fails, and the
    caller then runs _multimodular alone.

    H bounds |det A| and every cofactor of A.  When A has a nonnegative
    diagonal and is diagonally dominant it is positive semidefinite
    (Gershgorin), and so is its adjugate: Hadamard's inequality gives
    H = prod max(a_ii, 1).  Every reduced Laplacian is such a matrix.  Any
    other A takes the row-norm bound of det_exact.

    C = A^-1 mod p comes from _inverse_mod.  With b and u fixed vectors of
    -1, 0 and 1, each step takes x_i = C r_i mod p and r_(i+1) =
    (r_i - A x_i) / p from r_0 = b, so x = sum x_i p^i solves A x = b
    modulo p^K.  Every r_i stays within norm, the largest absolute row
    sum of A, so each step is exact in float64 while n (p//2 + 1) norm
    < 2**53.  By Cramer's rule u.x = u adj(A) b / det A, a fraction with
    numerator at most n**2 H and denominator at most H in size, so
    rational reconstruction of u.x mod p^K gives it once p^K > 2 n**2 H**2.
    Its denominator s, in lowest terms, divides det A, and t = det A / s
    lies in [-H/s, H/s].  t mod p is det A mod p over s; _multimodular
    adds cofactor primes to it while their product is at most 2H/s,
    skipping those that report a zero pivot: a prime that divides s
    divides det A, the last leading minor, so it is one of them.  Only the
    time depends on b and u, through the size of t, never the result."""
    n, p = len(ints), _det_prime(0)
    # the largest norm with n (p//2 + 1) norm < 2**53; an entry past it
    # fails first, before the int64 row sums could overflow
    limit = (2**53 - 1) // (n * (p // 2 + 1))
    if max(int(ints.max()), -int(ints.min())) > limit:
        return None
    row_sums = np.abs(ints).sum(axis=1)
    if row_sums.max() > limit:
        return None
    diag = np.diagonal(ints)
    if (diag >= 0).all() and (2 * diag >= row_sums).all():
        bound = prod(max(x, 1) for x in diag.tolist())
    else:
        bound = isqrt(prod(s or 1 for s in _norms_sq(ints)))
    a = ints.astype(np.float64)
    inverse = _inverse_mod(_sym_mod(a, p), p)
    if inverse is None:
        return None
    c, det_p = inverse
    vectors = np.frombuffer(random.Random(_LIFT_SEED).randbytes(2 * n), np.uint8)
    b, u = vectors.reshape(2, n) % 3 - 1.0
    r, dot, scale, target = b, 0, 1, 2 * n * n * bound * bound
    while scale <= target:
        x = _sym_mod(c @ r, p)
        dot += int(u @ x) * scale
        scale *= p
        r = (r - a @ x) / p
    fraction = _rational(dot, scale, n * n * bound, bound)
    if fraction is None:
        return None
    s = fraction[1]

    def cofactor(ints: np.ndarray, primes: list[int]) -> list[list[int] | None]:
        return [None if isinstance(row, int) else [row[0] * pow(s, -1, q) % q]
                for q, row in zip(primes, _det_mod_primes(ints, primes))]

    return s * _multimodular(cofactor, ints, bound // s, [[det_p * pow(s, -1, p) % p]])[0]


def det_exact(m: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact determinant of a symmetric integer matrix whose leading
    principal minors are nonzero, a positive definite one for example.
    Any other input raises ValueError.

    It tries _det_by_lifting first: one inverse modulo one prime, p-adic
    lifting and a few cofactor primes.  That succeeds only when no leading
    minor is 0 modulo that prime, so none is 0.  Otherwise, and for entries
    past its float64 bound, multi-modular L D L^T alone: Hadamard's bound
    gives |D_j| <= isqrt(prod of the squared row norms) for every leading
    minor D_j, a zero row counted as norm 1.  Primes are taken until their
    product M exceeds twice that, one blocked float64 elimination over a
    (primes, n, n) array per batch of primes yields det mod every prime,
    and the Chinese remainder theorem combines them in (-M/2, M/2).  A
    prime that divides some D_j is replaced; primes that divide one D_j
    and multiply past the bound prove D_j = 0.
    """
    ints = _int_array(m)
    if not np.array_equal(ints, ints.T):
        raise ValueError("symmetric matrix required")
    if len(ints) == 0:
        return 1
    det = _det_by_lifting(ints)
    if det is not None:
        return det
    bound = isqrt(prod(s or 1 for s in _norms_sq(ints)))
    return _multimodular(_det_mod_primes, ints, bound)[0]


# ---------------------------------------------------------------------------
# Division, gcd and Sturm chains over the integers
# ---------------------------------------------------------------------------
# Polynomials in this section are int sequences, ascending, trailing zeros
# trimmed.

def _divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: (q, r) with lc(den)^(delta + 1) * num = q * den + r.

    delta = deg num - deg den and deg r < deg den.  With deg num < deg den,
    q is empty and r is num, which lets a gcd take its arguments in either
    order.  No division at all, so remainder sequences and exact quotients
    both stay in integers.
    """
    dd = len(den) - 1
    lead = den[-1]
    r = list(num)
    q = [0] * (len(r) - dd)
    for k in range(len(q) - 1, -1, -1):
        c = r[-1]
        q = [x * lead for x in q]
        q[k] = c
        r = [x * lead for x in r[:-1]]
        for i in range(dd):
            r[k + i] -= c * den[i]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _exact_quotient(num: IntPoly, den: IntPoly) -> IntPoly:
    """num / den, where den divides num, as a primitive IntPoly."""
    q, r = _divmod(num.coeffs, den.coeffs)
    if r:
        raise AssertionError("exact polynomial division expected")
    return IntPoly(q).primitive()


def _remainders(f: Sequence[int], g: Sequence[int]) -> list[list[int]]:
    """f, g (left out when zero), then each primitive pseudo-remainder of
    the last two members, signed as a Sturm member; it stops at a constant
    member or a zero remainder, so the last member is gcd(f, g) up to a
    constant.

    Pseudo-division scales by lc^(delta + 1), with lc the leading
    coefficient of the divisor and delta the drop in degree, so the sign
    -sign(lc)^(delta + 1) makes every member a positive multiple of the
    classical rational member -rem(f_{i-1}, f_i).  It is -1 when lc > 0 or
    delta is odd, else +1; delta + 1 may be 0 or less, when deg f < deg g.
    """
    seq = [list(f), list(g)] if g else [list(f)]
    while len(seq) > 1 and len(seq[-1]) > 1:
        prev, cur = seq[-2], seq[-1]
        rem = _divmod(prev, cur)[1]
        if not rem:
            break
        sign = -1 if cur[-1] > 0 or (len(prev) - len(cur)) % 2 else 1
        content = sign * gcd(*rem)
        seq.append([c // content for c in rem])
    return seq


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    return IntPoly(_remainders(a.coeffs, b.coeffs)[-1]).primitive()


def sturm_chain(p: IntPoly) -> list[list[int]]:
    """Sturm chain of the squarefree part of p, one primitive member each.

    Member i+1 is the pseudo-remainder of members i-1 and i, content
    removed and signed so that signs at every point, and so all root
    counts, are those of the classical chain (see _remainders).  The
    remainders of f and f' end in gcd(f, f'): when that is a constant, f is
    squarefree and they are the chain; otherwise the chain is rebuilt from
    f / gcd(f, f').
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = p.primitive()
    chain = _remainders(f.coeffs, f.derivative().primitive().coeffs)
    if len(chain[-1]) > 1:
        f = _exact_quotient(f, IntPoly(chain[-1]))
        chain = _remainders(f.coeffs, f.derivative().primitive().coeffs)
    return chain


def _value(cs: Sequence[int], a: int, b: int) -> int:
    """b^deg f(a/b) = sum c_i a^i b^(deg - i), a positive multiple of f(a/b)
    for b > 0, by a homogenised Horner scheme in integers."""
    acc, bp = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bp
        bp *= b
    return acc


def _variations(chain: Sequence[Sequence[int]], a: int, b: int) -> tuple[int, bool]:
    """Sign changes along the chain at a/b (b > 0), and whether a/b is a root."""
    values = [_value(cs, a, b) for cs in chain]
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:])), not values[0]


def cauchy_bound(p: IntPoly) -> Fraction:
    """B with every real root of p in (-B, B): 1 + max |a_i| / |lead|."""
    if p.is_zero() or p.degree == 0:
        raise ValueError("nonconstant polynomial required")
    lead = abs(p.leading())
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(top, lead)


def count_real_roots(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Requires lo < hi.  Multiplicities are ignored (the chain starts from
    the squarefree part).  Endpoint roots: a root exactly at hi counts,
    a root exactly at lo does not — the classical Sturm convention.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    chain = sturm_chain(p)
    # the variation count at x is the number of roots above x plus the
    # count at +infinity, which cancels in the difference
    lo, hi = Fraction(lo), Fraction(hi)
    return (_variations(chain, lo.numerator, lo.denominator)[0]
            - _variations(chain, hi.numerator, hi.denominator)[0])


@dataclass(frozen=True)
class RootInterval:
    """Rational interval [lo, hi] isolating one real root (lo == hi when exact)."""

    lo: Fraction
    hi: Fraction

    def as_float(self) -> float:
        """The midpoint, rounded to a float."""
        return float((self.lo + self.hi) / 2)


DEFAULT_PRECISION = Fraction(1, 10**12)


def _bisect_top(chain: Sequence[Sequence[int]], lo: int, hi: int, den: int,
                v_lo: int, v_hi: int, prec: Fraction) -> RootInterval:
    """The interval that bisection of (lo/den, hi/den] down to width prec
    leaves around the largest root of the chain in it; v_lo and v_hi are
    the variation counts at lo/den and hi/den.

    A bisection step doubles lo, hi and den, so the midpoint is the integer
    lo + hi over the new den.  While the interval holds several roots, a
    variation count at the midpoint keeps the half with the largest one,
    and a midpoint that is that root ends the search with a point interval.

    Once it holds one root r (v_lo - v_hi == 1), bisection's answer depends
    only on where r sits on the grid it would stop on: the 2**s + 1 points
    x_j that split (lo/den, hi/den] into equal cells, s the steps it still
    has to take.  Every midpoint it visits is an x_j; it returns the cell
    (x_j, x_(j+1)] that holds r, unless r is an interior x_j: then r was the
    midpoint of some step, which returned [r, r].  So _find_cell may probe
    the grid in any order and returns the same interval.
    """
    while v_lo - v_hi > 1 and (hi - lo) * prec.denominator > prec.numerator * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        v_mid, on_root = _variations(chain, mid, den)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        elif on_root:
            # mid is a root and none lies above it
            return RootInterval(Fraction(mid, den), Fraction(mid, den))
        else:
            hi, v_hi = mid, v_mid
    if v_lo - v_hi > 1:
        return RootInterval(Fraction(lo, den), Fraction(hi, den))
    return _find_cell(chain[0], lo, hi, den, prec)


def _level(span: int, bound: int) -> int:
    """The least s >= 0 with span <= bound * 2**s (span >= 0, bound > 0)."""
    s = max(0, span.bit_length() - bound.bit_length())
    return s + (span > bound << s)


def _find_cell(f: Sequence[int], lo: int, hi: int, den: int,
               prec: Fraction, f_hi: int | None = None) -> RootInterval:
    """The cell of bisection's final grid on (lo/den, hi/den] that holds the
    one root r of the squarefree f there, or [r, r] when r is an interior
    grid point, by a safeguarded secant search over the grid.

    s is the least level with (hi - lo) * prec.den <= prec.num * den * 2**s,
    and grid point j, 0 <= j <= 2**s, is x_j = (lo 2**s + j (hi - lo)) /
    (den 2**s).  A bracket [a, b] of grid indices keeps r in (x_a, x_b].
    f is squarefree, so it changes sign exactly at its simple roots, and r
    lies above x iff f(hi) = 0 or f(x) and f(hi) differ in sign: the rule
    bisection decides by.  Each probe is one exact sign evaluation.  The
    top end x_(2**s) counts as the first probe, so the first real one is
    the midpoint; after that each probe goes to the first grid point past
    the zero of the secant through the last two probes, on the far side of
    r from the last one, so that a good estimate lands the next two probes
    on either side of r.  It is clamped into (a, b).  A probe that leaves
    the bracket as wide as before halving, twice running, is followed by
    the midpoint, so no halving of bisection takes more than 3 probes.
    Such a safeguard midpoint only narrows the bracket: the next secant
    still runs through the two probes before it, which lie near r, rather
    than through a far point.  f_hi, when given, is _value(f, hi, den),
    which the top end's value is 2**(s deg f) times.
    """
    s = _level((hi - lo) * prec.denominator, prec.numerator * den)
    base, step, scale = lo << s, hi - lo, den << s
    a, b = 0, 1 << s
    f_top = _value(f, base + b * step, scale) if f_hi is None else f_hi << (s * (len(f) - 1))
    # the secant runs through the last two probes that were not safeguard
    # midpoints: last, and prev before it
    last, f_last = b, f_top
    prev = f_prev = None
    stalls = 0
    while b - a > 1:
        level = (b - a - 1).bit_length()    # the least L with b - a <= 2**L
        safeguard = stalls == 2
        if safeguard or prev is None or f_last == f_prev:
            j = (a + b) // 2
        else:
            # the secant's zero is last - num / div
            num, div = f_last * (last - prev), f_last - f_prev
            if not f_top or f_last * f_top < 0:     # r above last: aim above r
                j = last + -num // div + 1
            else:
                j = last - num // div - 1
            j = min(max(j, a + 1), b - 1)
        f_j = _value(f, base + j * step, scale)
        if not f_j:
            x = Fraction(base + j * step, scale)
            return RootInterval(x, x)
        if not f_top or f_j * f_top < 0:
            a = j
        else:
            b = j
        if not safeguard:
            prev, f_prev, last, f_last = last, f_last, j, f_j
        stalls = 0 if (b - a - 1).bit_length() < level else stalls + 1
    return RootInterval(Fraction(base + a * step, scale), Fraction(base + b * step, scale))


def sturm_isolate_largest_root(
    p: IntPoly, precision: Fraction = DEFAULT_PRECISION
) -> RootInterval:
    """Interval of width <= precision containing the largest real root of p:
    the one that bisection with exact Sturm counts gives (see _bisect_top).
    Endpoints stay rational throughout.  Raises if p has no real root.
    """
    if p.is_zero() or p.degree == 0:
        raise ValueError("nonconstant polynomial required")
    chain = sturm_chain(p)
    bound = cauchy_bound(IntPoly(chain[0]))
    lo, hi, den = -bound.numerator, bound.numerator, bound.denominator
    v_lo, v_hi = _variations(chain, lo, den)[0], _variations(chain, hi, den)[0]
    if v_lo == v_hi:
        raise ValueError("polynomial has no real root")
    return _bisect_top(chain, lo, hi, den, v_lo, v_hi, Fraction(precision))


def isolate_real_roots(
    p: IntPoly, precision: Fraction = DEFAULT_PRECISION
) -> list[tuple[RootInterval, int]]:
    """All real roots of p with multiplicities, ascending by root.

    Each root comes back as a (RootInterval, multiplicity) pair; every
    interval has width <= precision.

    Yun's decomposition peels p into squarefree layers, the roots of
    multiplicity 1, 2, ... in turn.  With rad(w) the product of x - r over
    the distinct roots r of w, the remainder sequence of w and w' ends in
    g = gcd(w, w') = w / rad(w), which holds every root of w once less; the
    layer of w's simple roots is rad(w) / gcd(rad(w), g), and the next step
    takes w = g.  Once g is a constant, w is squarefree and its remainder
    sequence is already its Sturm chain, so the last layer takes one pass.
    """
    if p.is_zero() or p.degree == 0:
        raise ValueError("nonconstant polynomial required")
    # layers holds the (Sturm chain, multiplicity) of each nonconstant layer
    layers, work, mult = [], p.primitive(), 1
    while True:
        seq = _remainders(work.coeffs, work.derivative().primitive().coeffs)
        g = IntPoly(seq[-1]).primitive()
        if g.degree == 0:
            layers.append((seq, mult))
            break
        rad = _exact_quotient(work, g)
        layer = _exact_quotient(rad, _gcd(rad, g))
        if layer.degree > 0:
            layers.append((sturm_chain(layer), mult))
        work, mult = g, mult + 1
    prec = Fraction(precision)
    found: list[tuple[RootInterval, int]] = []
    for chain, mult in layers:
        bound = cauchy_bound(IntPoly(chain[0]))

        def refine(lo: int, hi: int, den: int, v_lo: int, v_hi: int):
            # v_lo - v_hi = number of roots of the layer in (lo/den, hi/den]
            if v_lo == v_hi:
                return
            if v_lo - v_hi == 1:
                found.append((_bisect_top(chain, lo, hi, den, v_lo, v_hi, prec), mult))
                return
            mid = lo + hi
            v_mid = _variations(chain, mid, 2 * den)[0]
            refine(2 * lo, mid, 2 * den, v_lo, v_mid)
            refine(mid, 2 * hi, 2 * den, v_mid, v_hi)

        top, den = bound.numerator, bound.denominator
        refine(-top, top, den, _variations(chain, -top, den)[0],
               _variations(chain, top, den)[0])
    found.sort(key=lambda item: item[0].lo)
    return found


# Root cells are 2**-ROOT_CELL_BITS (1.2e-10) wide at most: far wider than
# the error of the quotient eigensolve that proposes the roots of P3 and
# P10 (at most 7.1e-14 for d <= 100), far narrower than their least root gap
# (4.3e-6, P10 at d = 100).
ROOT_CELL_BITS = 33


def root_cells(
    p: IntPoly, proposals: Iterable[float], precision: Fraction = DEFAULT_PRECISION
) -> list[tuple[RootInterval, int]] | None:
    """``isolate_real_roots(p, precision)`` when the float proposals put
    every root of p in a grid cell of its own, else None.

    The grid is the dyadic one that bisection splits (-B, B] by, with
    B = cauchy_bound(p.primitive()), at the least level K whose cells are
    at most 2**-ROOT_CELL_BITS wide, or at bisection's final level if that
    is coarser.  Each proposal names the cell that holds it, and two exact
    signs of p at the cell's ends check it.  When deg p distinct cells
    change sign, p has deg p distinct real roots, one inside each, so every
    root is simple.  Such a root r is no grid point up to level K, and its
    level-K cell holds no other root, so bisection isolates r in a cell of
    some level up to K and narrows it to the final cell that holds r, or
    to [r, r] when r is a finer grid point: its answer depends on r, B and
    the precision alone (see _bisect_top), and ``_find_cell`` gives it from
    the level-K cell and the value of p at its top end, already taken.

    A sign 0 at a cell end (a root on the grid, whose interval depends on
    bisection's path), a proposal that is not finite, and fewer than deg p
    sign changes (a root without a proposal, two roots in one cell) give
    None.  A cell outside (-B, B] holds no root, so it changes no sign.
    """
    f = p.primitive().coeffs
    if len(f) < 2:
        return None
    bound = cauchy_bound(IntPoly(f))
    top, den, prec = bound.numerator, bound.denominator, Fraction(precision)
    level = min(_level(top << (ROOT_CELL_BITS + 1), den),
                _level(2 * top * prec.denominator, prec.numerator * den))
    scale = den << level
    cells = set()
    for x in proposals:
        if not isfinite(x):
            return None
        # the cell j is (x_j, x_(j+1)], with x_j = (2j - 2**level) top / scale
        a, b = float(x).as_integer_ratio()
        cells.add(((a * den + top * b) << level) // (2 * top * b))
    values = {}
    for j in {e for j in cells for e in (j, j + 1)}:
        values[j] = _value(f, (2 * j - (1 << level)) * top, scale)
        if not values[j]:
            return None
    changing = sorted(j for j in cells if (values[j] > 0) != (values[j + 1] > 0))
    if len(changing) < len(f) - 1:
        return None
    return [(_find_cell(f, (2 * j - (1 << level)) * top, (2 * j + 2 - (1 << level)) * top,
                        scale, prec, values[j + 1]), 1)
            for j in changing]


@dataclass(frozen=True)
class PositivityReport:
    """Exact signs of p^(n)(point) for n = 0..deg(p)."""

    values: tuple[Fraction, ...]     # values[n] = p^(n)(point)
    all_positive: bool


def descartes_positivity_check(p: IntPoly, point: Fraction | int) -> PositivityReport:
    """True iff every derivative p^(n) is strictly positive at the point.

    When this holds, the shifted polynomial p(x + point) has no sign
    changes, so by Descartes' rule p has no root above the point.
    """
    values = []
    cur = p
    for _ in range(p.degree + 1):
        values.append(cur.evaluate_at(point))
        cur = cur.derivative()
    return PositivityReport(tuple(values), all(v > 0 for v in values))
