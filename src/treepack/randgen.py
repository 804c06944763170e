"""Seeded random d-regular simple graphs and theorem implication sweeps.

Generation uses the stub-pairing (configuration) model restricted to
simple outcomes: stubs are shuffled and paired, clashing pairs (loops or
repeats) are thrown back, and the whole attempt restarts from scratch
when no progress is possible.  No edge-switch repair is ever applied, so
every returned graph is an honest sample of the restricted pairing
process, bit-reproducible from its seed.

The stubs are shuffled by a Fisher-Yates on the `getrandbits` of
`random.Random(seed)` that makes the draws of CPython's
`random.Random.shuffle` (3.10 to 3.13) without its per-element method
calls: for m = len(stubs) down to 2 it redraws getrandbits(m.bit_length())
until the value r is below m, then swaps positions m-1 and r.  Every
graph depends on these draws, so a test holds the two shuffles to the
same permutation and the same generator state.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .graphs import Edge, Graph, VertexPartition, make_graph
from .packing import pack_trees, sigma as packing_sigma, verify_pack_result
from .spectra import adjacency_spectrum, certify_lambda2_below, theorem_threshold

_MASK64 = (1 << 64) - 1
# random_regular gives up after this many pairing attempts
MAX_PAIRING_ATTEMPTS = 10_000
# Sweeps refuse larger graphs before drawing one.  One certified d = 10,
# k = 2 trial (drawing, the premise certificate and pack_trees) took 1.1 s
# at n = 2600, 2.2 s at n = 3900 and 4.6 s at n = 5000, peaking at 632 MB
# RSS there (the certificate's three n x n float64 arrays), on a 2-vCPU x86
# host with one BLAS thread.  A trial the certificate refuses also takes a
# dense eigensolve, 20 s at n = 5000.
SWEEP_MAX_VERTICES = 5000


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 sequence: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


@dataclass(frozen=True)
class GenConfig:
    d: int
    n: int
    seed: int

    def __post_init__(self):
        if self.d < 1 or self.d >= self.n:
            raise ValueError("need 1 <= d < n")
        if (self.n * self.d) % 2 != 0:
            raise ValueError("n*d must be even")


def random_regular(cfg: GenConfig) -> Graph:
    """Random d-regular simple graph, deterministic given cfg.seed.

    Raises ValueError when no attempt in MAX_PAIRING_ATTEMPTS yields a
    simple graph: (d, n) is then too dense for the pairing model.
    """
    getrandbits = random.Random(cfg.seed & _MASK64).getrandbits
    for _ in range(MAX_PAIRING_ATTEMPTS):
        edges = _pairing_attempt(getrandbits, cfg.n, cfg.d)
        if edges is not None:
            g = make_graph(cfg.n, edges)
            if g.degree_if_regular() != cfg.d:
                raise AssertionError(f"random_regular drew a graph that is not {cfg.d}-regular")
            return g
    raise ValueError(
        f"no simple {cfg.d}-regular pairing on {cfg.n} vertices "
        f"after {MAX_PAIRING_ATTEMPTS} attempts"
    )


def _shuffle(x: list[int], getrandbits: Callable[[int], int]) -> None:
    """Shuffle x in place as random.Random.shuffle would, given that
    generator's getrandbits.  One pass per run of m sharing k =
    m.bit_length(), so k is not recomputed per element."""
    top = len(x)
    while top > 1:
        k = top.bit_length()
        bottom = 1 << (k - 1)
        for m in range(top, bottom - 1, -1):
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            m -= 1
            x[m], x[r] = x[r], x[m]
        top = bottom - 1


def _pairing_attempt(getrandbits: Callable[[int], int], n: int, d: int) -> list[Edge] | None:
    # an edge u < v is held as the int u*n + v, whose order is that of (u, v)
    stubs = [v for v in range(n) for _ in range(d)]
    edges: set[int] = set()
    while stubs:
        _shuffle(stubs, getrandbits)
        leftover: list[int] = []
        for u, v in zip(stubs[0::2], stubs[1::2]):
            e = u * n + v if u < v else v * n + u
            if u == v or e in edges:
                leftover.extend((u, v))
            else:
                edges.add(e)
        if len(leftover) == len(stubs):
            return None     # dead end: discard the whole attempt
        stubs = leftover
    return [divmod(e, n) for e in sorted(edges)]


@dataclass(frozen=True)
class Counterexample:
    """A graph where the spectral premise held but the packing fell short.

    witness: the partition from the failed k-packing, whose crossing-edge
    total is at most k(t-1) - 1 (None when not recorded).
    """

    graph: Graph
    d: int
    n: int
    k: int
    lambda2: float
    sigma: int
    seed: int
    witness: VertexPartition | None = None


@dataclass(frozen=True)
class TheoremReport:
    """Tallies of (premise, conclusion) over a seeded trial batch.

    Premise: lambda2 < d - (2k-1)/(d+1).  Conclusion: the graph packs k
    edge-disjoint spanning trees.  For k in {2, 3} the implication is
    proved in the paper, so any counterexample is an implementation bug.
    For k >= 4 it is reported proved as well (Liu, Hong, Gu & Lai, Linear
    Algebra Appl. 2014; citation unchecked), so a counterexample there is a
    suspected bug to re-verify.  `conjecture` still marks k >= 4, because
    the CLI reports those hits under their own verdict and exit code.
    """

    d: int
    n: int
    k: int
    trials: int
    seed: int
    premise_and_conclusion: int = 0
    premise_only: int = 0
    conclusion_only: int = 0
    neither: int = 0
    counterexamples: tuple[Counterexample, ...] = field(default=())

    @property
    def conjecture(self) -> bool:
        return self.k >= 4

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def check_sweep_args(d: int, n: int, k: int, trials: int) -> None:
    """Raise ValueError unless theorem_check(d, n, k, trials, ...) can run:
    k >= 2, trials >= 1, n <= SWEEP_MAX_VERTICES and a d-regular graph on
    n vertices exists."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n > SWEEP_MAX_VERTICES:
        raise ValueError(f"sweeps are limited to {SWEEP_MAX_VERTICES} vertices, got n = {n}")
    GenConfig(d=d, n=n, seed=0)


def theorem_check(d: int, n: int, k: int, trials: int, seed: int) -> TheoremReport:
    """Test 'small lambda2 forces k disjoint spanning trees' empirically.

    The statements under test hypothesize d >= 2k; below that the premise
    is counted as false for every trial (the run is vacuous, never a bug)
    and no eigenvalue is computed.  Arguments that `check_sweep_args`
    rejects are rejected before any graph is drawn.

    The premise lambda2 < theta_k is proved by
    `spectra.certify_lambda2_below(g, theta_k)`.  Only a trial that
    certificate refuses compares the float lambda2 exactly with theta_k,
    so only those trials, and the lambda2 recorded in a counterexample of
    a certified trial, take a dense eigensolve: a refused trial's
    counterexample records the premise's lambda2.  A certified trial's
    float lambda2 lies below theta_k as well, so every tally is the one
    the float comparison alone gives.
    """
    check_sweep_args(d, n, k, trials)
    degree_ok = d >= 2 * k
    threshold = theorem_threshold(d, k)
    state = seed & _MASK64
    both = premise_only = conclusion_only = neither = 0
    bad: list[Counterexample] = []
    for _ in range(trials):
        state, trial_seed = splitmix64(state)
        g = random_regular(GenConfig(d=d, n=n, seed=trial_seed))
        lam = (None if not degree_ok or certify_lambda2_below(g, threshold)
               else adjacency_spectrum(g)[1])
        premise = degree_ok and (lam is None or lam < threshold)
        packed = pack_trees(g, k)
        check = verify_pack_result(g, packed)
        if not check.ok:
            raise AssertionError(f"pack_trees certificate invalid: {check.reason}")
        if premise and packed.success:
            both += 1
        elif premise:
            premise_only += 1
            bad.append(Counterexample(
                graph=g, d=d, n=n, k=k,
                lambda2=adjacency_spectrum(g)[1] if lam is None else lam,
                sigma=packing_sigma(g).sigma, seed=trial_seed,
                witness=packed.witness,
            ))
        elif packed.success:
            conclusion_only += 1
        else:
            neither += 1
    return TheoremReport(
        d=d, n=n, k=k, trials=trials, seed=seed,
        premise_and_conclusion=both, premise_only=premise_only,
        conclusion_only=conclusion_only, neither=neither,
        counterexamples=tuple(bad),
    )
