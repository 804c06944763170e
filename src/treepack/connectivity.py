"""Global edge connectivity by Stoer-Wagner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .spectra import certify_lambda2_below


@dataclass(frozen=True)
class CutResult:
    """Minimum cut value together with one side achieving it."""

    value: int
    side: frozenset[int]


def _certified_floor(g: Graph) -> int:
    """d when `certify_lambda2_below` proves lambda2 < q_d = d - 2(d-1)/(d+1)
    for a d-regular g, which forces kappa' = d; else 0.  See
    `edge_connectivity`."""
    d = g.degree_if_regular()
    return d if d and certify_lambda2_below(g, d * d - d + 2, d + 1) else 0


def edge_connectivity(g: Graph) -> CutResult:
    """Exact global minimum edge cut via Stoer-Wagner with unit weights.

    A d-regular g first gets a proven lower bound on kappa'.  A side of
    s <= d vertices sends at least s(d + 1 - s) >= d edges out, so each
    side of a cut with t < d edges has at least d + 1 vertices.  The
    two-block quotient of that cut then interlaces to
    lambda2 >= d - t(1/s + 1/(n - s)) >= d - 2t/(d + 1) (the kappa' form of
    Cioaba, Linear Algebra Appl. 2010).  So lambda2 < q_d = d - 2(d-1)/(d+1)
    proves kappa' = d.  `spectra.certify_lambda2_below(g, d^2 - d + 2, d + 1)`
    proves that with a shifted float Cholesky of the integer matrix
    M = n((d^2 - d + 2) I - (d + 1) A) + (2d - 1) J, which is positive
    definite exactly when lambda2 < q_d.  Otherwise (g not regular, or no
    factor) the bound is 0.

    The phase loop stops once the best phase weight is at or below the
    bound.  Phase 1 of a d-regular graph ends at the last vertex's degree
    d, so a certified graph stops after one phase with the (value, side)
    the full run returns: only a strictly smaller phase replaces the best.
    Random 10-regular graphs certify (every graph of the `analyze`
    benchmark pool, n = 80), and so do Petersen, K_n and C5-C7.
    Gd and Hd never do, as kappa' < d.  Random 3- and 4-regular graphs
    rarely do, as q_3 = 2 and q_4 = 2.8 lie below their typical lambda2
    near 2 sqrt(d - 1): over 40 seeds at each n = 20, 50, 100, 200, no
    3-regular graph did and 15 4-regular ones did, all at n = 20.

    The contracted graph is one n x n int64 weight matrix ``w`` with rows
    and columns in vertex order, so each maximum-adjacency step is two
    vector operations: ``s = attach.argmax()`` and ``attach += w[s]``.
    The diagonal, and every column of a vertex contracted away, holds a
    sentinel below -m; a picked or contracted vertex therefore sits below
    every live attachment, which stays in 0..m.  ``argmax`` returns the
    first maximum, so selection is deterministic (maximum attachment,
    ties to the smallest index) and repeated runs return the same side.
    A certified run is one LAPACK Cholesky (n^3/3 flops) and one phase of
    n vector steps; only an uncertified run takes all n - 1 phases, O(n^3)
    time in n^2 numpy steps.  On a 2-vCPU host a random 10-regular graph
    with n = 4000 took 1.5 s, against 52.5 s without the bound.  ``w``
    takes 8 n^2 bytes: 51 KB at n = 80, 3.4 MB at the 650 vertices
    `analyze` admits, and 200 MB at the 5000 vertices a sweep admits.
    The certificate holds three n x n float64 arrays (M, numpy's working
    copy and the factor) and frees them before ``w`` is allocated.  At
    n = 5000 (random 10-regular) the call peaked at 632 MB RSS, 587 MB
    above the process before it.  Only `hunt`'s counterexample path runs
    it there, after that trial's own certificate at theta_k, which holds
    the same three arrays (see `randgen.SWEEP_MAX_VERTICES`).
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    comps = g.components
    if len(comps) > 1:
        return CutResult(0, min(comps, key=min))

    n = g.n
    floor = _certified_floor(g)    # its n x n arrays are freed before w
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
        if best_value <= floor:
            break       # no later phase can go below a proven lower bound
        # contract t into s; the live part of w stays symmetric
        rows[s] += rows[t]
        w[:, s] = rows[s]
        w[s, s] = sentinel
        w[:, t] = sentinel
        merged[s] |= merged[t]

    return CutResult(best_value, best_side)
