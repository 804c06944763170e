"""Global edge connectivity by Stoer-Wagner."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph
from .spectra import certify_lambda2_below


@dataclass(frozen=True)
class CutResult:
    """Minimum cut value together with one side achieving it."""

    value: int
    side: frozenset[int]


def certified_floor(g: Graph, c: int) -> int:
    """c when kappa' >= c is proved for a d-regular g, else 0; always 0
    for an irregular g.  A regular g refuses c outside 1..d with
    ValueError, as no such c is a bound this proof can give.

    A side of s <= d vertices sends at least s(d + 1 - s) >= d edges out,
    so each side of a cut with t < d edges has at least d + 1 vertices.
    With n < 2(d + 1) no such cut exists and kappa' = d without further
    work.  Otherwise the cut's two-block quotient interlaces to
    lambda2 >= d - tn/(s(n - s)) >= d - tn/((d + 1)(n - d - 1)) (Haemers,
    Linear Algebra Appl. 1995; its n-free form d - 2t/(d + 1) is Cioaba's
    kappa' bound, Linear Algebra Appl. 2010).  So lambda2 below
    q_c = d - (c - 1)n/((d + 1)(n - d - 1)) rules out every cut of at most
    c - 1 edges, and `spectra.certify_lambda2_below(g, q_c)` proves that
    with one shifted float Cholesky.

    `packing.sigma` is the one caller: it proves its candidate cut here
    and runs `edge_connectivity` only when this refuses.  Random
    10-regular graphs certify at c = d (every graph of the `analyze`
    benchmark pool, n = 80), and so do Petersen, C6, C7 and the prisms
    C5 x K2 and C6 x K2; K_n and C5 need no Cholesky, as n < 2(d + 1).
    Gd and Hd never do at c = d, as kappa' < d.  Random cubic graphs
    rarely do, as q_3 tends to 2.5 from below, under their typical
    lambda2 near 2 sqrt 2: over seeds 0-39 at each n = 20, 50, 100, 200,
    4, 0, 0 and 0 certified, against 38, 33, 28 and 12 4-regular and all
    5-, 6- and 10-regular ones.  On a 2-vCPU host `sigma` took 0.7 s on
    a random 10-regular graph with n = 4000, its one pack included,
    peaking at 421 MB RSS; the full Stoer-Wagner takes 52.5 s there.  The
    Cholesky holds three n x n float64 arrays (M, numpy's working copy
    and the factor), 600 MB at the 5000 vertices a sweep admits, and
    frees them before it returns (see `randgen.SWEEP_MAX_VERTICES`).
    """
    d = g.degree_if_regular()
    if d is None:
        return 0
    if not 1 <= c <= d:
        raise ValueError(f"a {d}-regular graph has no kappa' bound c = {c} outside 1..{d}")
    n = g.n
    if n < 2 * (d + 1):
        return c
    return c if certify_lambda2_below(g, d - Fraction((c - 1) * n, (d + 1) * (n - d - 1))) else 0


def edge_connectivity(g: Graph) -> CutResult:
    """Exact global minimum edge cut via Stoer-Wagner with unit weights.

    The contracted graph is one n x n int64 weight matrix ``w`` with rows
    and columns in vertex order, so each maximum-adjacency step is two
    vector operations: ``s = attach.argmax()`` and ``attach += w[s]``.
    The diagonal, and every column of a vertex contracted away, holds a
    sentinel below -m; a picked or contracted vertex therefore sits below
    every live attachment, which stays in 0..m.  ``argmax`` returns the
    first maximum, so selection is deterministic (maximum attachment,
    ties to the smallest index) and repeated runs return the same side.
    The n - 1 phases take O(n^3) time in n^2 numpy steps: on a 2-vCPU
    host a random 10-regular graph with n = 4000 took 52.5 s.  ``w``
    takes 8 n^2 bytes: 51 KB at n = 80, 3.4 MB at the 650 vertices
    `analyze` admits, and 200 MB at the 5000 vertices a sweep admits.
    Only `hunt`'s counterexample path can run it there, after that
    trial's certificate and `sigma`'s have freed their arrays.
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    comps = g.components
    if len(comps) > 1:
        return CutResult(0, min(comps, key=min))

    n = g.n
    # No int64 overflow: a live off-diagonal entry is a contracted weight
    # in 0..m.  A contraction adds row t into row s and drops t, so over
    # the live rows the magnitude in each dead column never grows past the
    # n * (m + 1) it had when the column was set; an attachment sums at
    # most n rows, so it stays within n**2 * (m + 1) in size.  With
    # m < n**2 / 2 that is below 2**63 for every n up to 65,000, where w
    # alone would take 34 GB.
    sentinel = -(g.m + 1)
    w = np.zeros((n, n), dtype=np.int64)
    us, vs = g.edge_index.T
    w[us, vs] = w[vs, us] = 1
    np.fill_diagonal(w, sentinel)
    rows = list(w)       # views into w; they follow every contraction
    merged = [frozenset((v,)) for v in range(n)]
    best_value = g.m + 1     # above every cut, as a cut has at most m edges
    best_side: frozenset[int] = frozenset()

    for size in range(n, 1, -1):
        # Every phase starts at vertex 0, the smallest index; it is never
        # the last vertex of a phase, so it is never contracted away.  The
        # contracted graph stays connected, so up to the last step some
        # unpicked vertex has a positive attachment, and each step picks
        # one of those: a maximum-adjacency order.
        attach = rows[0].copy()
        s = 0
        for _ in range(size - 2):
            s = attach.argmax()
            attach += rows[s]
        t = attach.argmax()
        phase_weight = int(attach[t])
        if phase_weight < best_value:
            best_value = phase_weight
            best_side = merged[t]
        # contract t into s; the live part of w stays symmetric
        rows[s] += rows[t]
        w[:, s] = rows[s]
        w[s, s] = sentinel
        w[:, t] = sentinel
        merged[s] |= merged[t]

    return CutResult(best_value, best_side)
