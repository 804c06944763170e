"""The tight d-regular families Gd and Hd and their mechanical verifiers.

Gd glues three copies of K_{d+1}-minus-an-edge with three connecting
edges; it is d-regular, has edge connectivity 2, packs only one spanning
tree, yet its second adjacency eigenvalue theta_d squeezes into
(d - 3/(d+2), d - 3/(d+3)).  Hd does the analogous job one level up:
five copies of K_{d+1} minus two disjoint edges, ten connectors, sigma 2,
and gamma_d in [d - 5/(d+1), d - 5/(d+3)).  Both spectra reduce to small
equitable-quotient matrices (9x9 and 25x25) whose characteristic
polynomials factor through the certificate polynomials P3 and P10; every
claim is re-checked here in exact arithmetic.

Each family is a `FamilySpec` record (`GD`, `HD`, looked up by name in
`FAMILIES`): the copy count, the missing edges and the connectors, the
certificate polynomial, the simple eigenvalues and the expected sigma and
kappa'.  One builder, one pair of partition functions and one verifier,
`verify_family`, serve both; only the interval evidence differs and is
the spec's own function.  The quotient matrix whose characteristic
polynomial is factored is the equitable quotient of the built graph, and
its float eigenvalues propose the roots of the certificate polynomial,
which exact signs then prove (`exact.root_cells`): no Sturm chain is built
unless the proposals fail.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .exact import (
    DEFAULT_PRECISION,
    ROOT_CELL_BITS,
    IntPoly,
    RootInterval,
    char_poly_exact,
    descartes_positivity_check,
    isolate_real_roots,
    root_cells,
)
from .graphs import Edge, Graph, VertexPartition, edge_blocks, make_graph, partition
from .packing import sigma as tree_packing_sigma, verify_certificate
from .spectra import adjacency_spectrum, equitable_quotient, theorem_threshold

SPECTRUM_TOL = 1e-7
ROOT_MATCH_TOL = 1e-8
# build_family refuses larger degrees, so construct and verify-family fail
# at once.  On a 2-vCPU x86 host whose speed drifts by about 1.6x, one
# verify_family call took 0.04-0.07 s on Gd and 0.09-0.15 s on Hd at
# d = 100, and 0.12-0.19 s and 0.24-0.43 s at d = 160 with the cap raised
# (three sets of five runs, after import); in a cProfile of Hd at d = 100
# its one pack_trees call takes 34%, building the graph 24%, the Cholesky
# that proves kappa' 4% and the root cells 0.5%.  construct Hd took 1.5 s
# at d = 400 and 13.8 s with 886 MB peak RSS at d = 1000.
FAMILY_MAX_DEGREE = 100


def p3_poly(d: int) -> IntPoly:
    """Cubic certificate polynomial for Gd; theta_d is its largest root."""
    return IntPoly([2 * d - 3, 1 - 2 * d, 2 - d, 1])


def p10_poly(d: int) -> IntPoly:
    """Degree-10 certificate polynomial for Hd; gamma_d is its largest root."""
    return IntPoly([
        -d * d + 5 * d - 5,
        4 * d * d - 13 * d + 5,
        14 * d * d - 83 * d + 109,
        -20 * d * d + 57 * d - 21,
        -29 * d * d + 140 * d - 146,
        8 * d * d + 18 * d - 70,
        20 * d * d - 66 * d + 36,
        8 * d * d - 50 * d + 58,
        d * d - 16 * d + 30,
        8 - 2 * d,
        1,
    ])


def gd_interval(d: int) -> tuple[Fraction, Fraction]:
    """Open interval (d - 3/(d+2), d - 3/(d+3)) pinching theta_d."""
    return Fraction(d) - Fraction(3, d + 2), Fraction(d) - Fraction(3, d + 3)


def hd_interval(d: int) -> tuple[Fraction, Fraction]:
    """Half-open interval [d - 5/(d+1), d - 5/(d+3)) pinching gamma_d; the
    lower end is the three-tree threshold theta_3."""
    return theorem_threshold(d, 3), Fraction(d) - Fraction(5, d + 3)


# ---------------------------------------------------------------------------
# family records, builder and partitions


@dataclass(frozen=True)
class FamilySpec:
    """One tight family as data: `copies` copies of K_{d+1}, each missing
    the edges between the label pairs in `missing`, joined by `connectors`.

    Vertex `label` of copy i is i*(d+1) + label.  Labels below `labelled`
    name the vertices that touch a missing edge or a connector (a, b, ...);
    the rest of each copy is its interior, one block of the equitable
    partition.
    """

    name: str
    copies: int
    d_min: int
    labelled: int
    missing: tuple[tuple[int, int], ...]                        # label pairs
    connectors: tuple[tuple[tuple[int, int], tuple[int, int]], ...]   # (copy, label) pairs
    crossing_claim: str
    poly: Callable[[int], IntPoly]              # certificate polynomial in d
    poly_name: str
    # simple eigenvalues besides d: the claimed char poly of the quotient is
    # (x - d) prod (x - s) (x + 1)^2 P^2, and -1 fills the rest of the spectrum
    other_simple: tuple[int, ...]
    factorization: str
    sigma: int
    kappa_prime: int
    kappa_check: str
    kappa_claim: str
    # (d, certificate polynomial, its real roots as isolate_real_roots
    # gives them)
    interval_evidence: Callable[[int, IntPoly, list[tuple[RootInterval, int]]],
                                list[NamedCheck]]


def check_family_degree(spec: FamilySpec, d: int) -> None:
    """Refuse a degree the family does not have or that is over the cap."""
    if d < spec.d_min:
        raise ValueError(f"{spec.name} needs d >= {spec.d_min}")
    if d > FAMILY_MAX_DEGREE:
        raise ValueError(f"{spec.name} is limited to d <= {FAMILY_MAX_DEGREE}")


def build_family(spec: FamilySpec, d: int) -> Graph:
    """The family member of degree d, as the spec describes it; whether it
    is d-regular with one connector per pair of copies is for
    `verify_family` to check."""
    check_family_degree(spec, d)
    size = d + 1
    edges: list[Edge] = []
    for i in range(spec.copies):
        off = i * size
        skip = {(off + x, off + y) for x, y in spec.missing}
        for u in range(off, off + size):
            for v in range(u + 1, off + size):
                if (u, v) not in skip:
                    edges.append((u, v))
    edges += [(i * size + x, j * size + y) for (i, x), (j, y) in spec.connectors]
    return make_graph(spec.copies * size, edges)


def natural_partition(spec: FamilySpec, d: int) -> VertexPartition:
    """The copy vertex sets."""
    size = d + 1
    return partition(spec.copies * size,
                     [range(i * size, (i + 1) * size) for i in range(spec.copies)])


def equitable_partition(spec: FamilySpec, d: int) -> VertexPartition:
    """The orbits: the interiors of the copies, then each labelled vertex
    alone, copy by copy -- the row order of the quotient matrix."""
    size = d + 1
    blocks = [range(i * size + spec.labelled, (i + 1) * size) for i in range(spec.copies)]
    blocks += [[i * size + x] for i in range(spec.copies) for x in range(spec.labelled)]
    return partition(spec.copies * size, blocks)


def claimed_charpoly(spec: FamilySpec, d: int) -> IntPoly:
    """(x - d) prod (x - s) (x + 1)^2 P(d)^2 -- the asserted factorization."""
    lin = IntPoly([-d, 1])
    for s in spec.other_simple:
        lin = lin * IntPoly([-s, 1])
    return lin * IntPoly([1, 1]) ** 2 * spec.poly(d) ** 2


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class NamedCheck:
    name: str
    passed: bool
    computed: str
    claimed: str
    margin: float | None = None


@dataclass(frozen=True)
class FamilyReport:
    family: str
    d: int
    graph: Graph
    sigma: int
    kappa_prime: int
    lambda2: float
    lambda2_interval: tuple[Fraction, Fraction]
    spectrum_expected: tuple[tuple[float, int], ...]
    checks: tuple[NamedCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _largest_root_vs(p: IntPoly, roots: list[tuple[RootInterval, int]],
                     bound: Fraction) -> int | None:
    """Sign of (largest real root r of p) - bound: 1, 0 or -1, decided from
    p's root cells; None when p has a repeated real root.

    roots is p's root list from root_cells or isolate_real_roots.  When
    every root is simple the intervals are disjoint cells of one grid, so
    the last, (lo, hi] or [r, r], holds r and no other root.  A bound
    outside it is decided by its position.  One inside it takes the sign of
    p there: above r that is the sign of p's leading coefficient, and
    between lo and the simple root r the opposite one."""
    if any(mult > 1 for _, mult in roots):
        return None
    lo, hi = roots[-1][0].lo, roots[-1][0].hi
    if lo == hi:
        return (lo > bound) - (lo < bound)
    if bound <= lo:
        return 1
    if bound > hi:
        return -1
    side = p.evaluate_at(bound) * p.leading()
    return (side < 0) - (side > 0)


def _spectrum_check(computed: tuple[float, ...],
                    expected: tuple[tuple[float, int], ...]) -> tuple[bool, float]:
    flat = sorted((v for v, mult in expected for _ in range(mult)), reverse=True)
    if len(flat) != len(computed):
        return False, float("inf")
    worst = max(abs(a - b) for a, b in zip(computed, flat)) if flat else 0.0
    return worst <= SPECTRUM_TOL, worst


def verify_family(spec: FamilySpec, d: int,
                  precision: Fraction = DEFAULT_PRECISION) -> FamilyReport:
    """Re-check every claim about the family member of degree d: counts,
    sigma, connectivity, the exact interval of lambda2, the spectrum
    multiset, and the quotient identity.

    sigma is handed the copy partition, the paper's witness that sigma+1
    trees do not pack: when it violates the count at sigma+1 it ends the
    climb in place of a failing pack.  It does not depend on the spec's
    sigma claim, and `verify_certificate` re-checks the trees and that
    witness as it would the packer's.  The same partition gives kappa':
    a copy's boundary edges are a cut, and one Cholesky proves no smaller
    cut exists, so no Stoer-Wagner runs (see `packing.sigma`).  That
    does not read the spec's kappa' claim either; a member the certificate
    refuses gets the full Stoer-Wagner.

    The roots of the certificate polynomial P are eigenvalues of the
    equitable quotient, so the quotient's float eigenvalues propose them
    and `root_cells` proves each in its cell by exact signs; the intervals
    are those of `isolate_real_roots`, which runs only when the proposals
    do not account for every root (or the partition is not equitable).
    The interval evidence compares each bound with the top root's cell."""
    g = build_family(spec, d)
    p = spec.poly(d)
    n = spec.copies * (d + 1)
    checks: list[NamedCheck] = []

    checks.append(NamedCheck("vertex_count", g.n == n, str(g.n), str(n)))
    checks.append(NamedCheck("regularity", g.degree_if_regular() == d,
                             str(g.degree_if_regular()), str(d)))

    # one edge between each pair of copies; a failure names the pairs
    copies = natural_partition(spec, d)
    ends = np.sort(edge_blocks(g, copies), axis=1)
    found_pairs = sorted(map(tuple, ends[ends[:, 0] != ends[:, 1]].tolist()))
    pairs = list(combinations(range(spec.copies), 2))
    crossing = f"total={len(found_pairs)}"
    if found_pairs != pairs:
        found = Counter(found_pairs)
        crossing += (f", repeated {[pair for pair, k in found.items() if k > 1]}"
                     f", missing {[pair for pair in pairs if pair not in found]}")
    checks.append(NamedCheck("copy_crossing_edges", found_pairs == pairs,
                             crossing, spec.crossing_claim))

    packing = tree_packing_sigma(g, copies)
    cut = packing.cut
    cert = verify_certificate(g, packing)
    checks.append(NamedCheck("sigma", packing.sigma == spec.sigma,
                             str(packing.sigma), str(spec.sigma)))
    checks.append(NamedCheck("sigma_certificate", cert.ok,
                             cert.reason or "verified", "verified"))
    checks.append(NamedCheck(spec.kappa_check, cut.value == spec.kappa_prime,
                             str(cut.value), spec.kappa_claim))

    blocks = equitable_partition(spec, d)
    rows = equitable_quotient(g, blocks)
    roots = None
    if rows is not None:
        # S^(1/2) Q S^(-1/2), S the block sizes, is symmetric and has the
        # quotient's eigenvalues
        half = np.sqrt([len(b) for b in blocks.blocks])
        sym = np.array(rows, dtype=float) * half[:, None] / half[None, :]
        eigs = np.linalg.eigvalsh(sym)
        # d, -1 and the other simple eigenvalues are not roots of P: their
        # cells go unsigned (a root of P among them leaves root_cells short)
        known = np.array((d, -1) + spec.other_simple, dtype=float)
        near = (np.abs(eigs[:, None] - known) <= 2.0 ** -ROOT_CELL_BITS).any(axis=1)
        roots = root_cells(p, eigs[~near], precision)
    if roots is None:
        roots = isolate_real_roots(p, precision)
    spectrum = adjacency_spectrum(g)
    lam2 = spectrum[1]
    iso = roots[-1][0]
    root = iso.as_float()
    checks.append(NamedCheck(
        f"lambda2_matches_{spec.poly_name}_root", abs(lam2 - root) <= ROOT_MATCH_TOL,
        f"{lam2!r}", f"{root!r}", margin=abs(lam2 - root)))

    checks += spec.interval_evidence(d, p, roots)

    expected = expected_spectrum(spec, d, roots)
    spec_ok, worst = _spectrum_check(spectrum, expected)
    checks.append(NamedCheck(
        "spectrum_multiset", spec_ok,
        f"max deviation {worst:.3e}", f"within {SPECTRUM_TOL}", margin=worst))

    identity = rows is not None and char_poly_exact(rows) == claimed_charpoly(spec, d)
    checks.append(NamedCheck(
        "charpoly_factorization", identity,
        "char poly of quotient", spec.factorization, margin=0.0 if identity else None))

    checks.append(NamedCheck(
        "kundu_bound", packing.sigma >= cut.value // 2,
        f"sigma={packing.sigma}", f">= floor({cut.value}/2)"))

    return FamilyReport(
        family=spec.name, d=d, graph=g, sigma=packing.sigma, kappa_prime=cut.value,
        lambda2=lam2, lambda2_interval=(iso.lo, iso.hi),
        spectrum_expected=expected, checks=tuple(checks),
    )


def expected_spectrum(spec: FamilySpec, d: int,
                      roots: list[tuple[RootInterval, int]]) -> tuple[tuple[float, int], ...]:
    """The claimed adjacency spectrum as (value, multiplicity) pairs: the
    simple eigenvalues, each root of P twice, and -1 for the rest.  `roots`
    is the root list of the certificate polynomial spec.poly(d), as
    `isolate_real_roots` gives it."""
    simple = (d,) + spec.other_simple
    minus_one = spec.copies * (d + 1) - 2 * spec.poly(d).degree - len(simple)
    expected = [(float(s), 1) for s in simple] + [(-1.0, minus_one)]
    expected += [(interval.as_float(), 2 * mult) for interval, mult in roots]
    return tuple(sorted(expected, reverse=True))


def _gd_interval_evidence(d: int, p3: IntPoly,
                          roots: list[tuple[RootInterval, int]]) -> list[NamedCheck]:
    """Closed-form endpoint values of P3, theta_d strictly inside the open
    interval, and the failure of the two-tree premise."""
    lo, hi = gd_interval(d)
    iso = roots[-1][0]
    val_lo = p3.evaluate_at(lo)
    closed_lo = Fraction(-3 * (9 + d * (-2 + d + d * d)), (2 + d) ** 3)
    val_hi = p3.evaluate_at(hi)
    closed_hi = Fraction(6 * d * d - 81, (3 + d) ** 3)
    inside = _largest_root_vs(p3, roots, lo) == 1 and _largest_root_vs(p3, roots, hi) == -1
    # sigma(Gd) = 1 < 2, so the spectral premise for packing two trees
    # must fail: theta_d must already exceed theta_2 = d - 3/(d+1)
    premise_bound = theorem_threshold(d, 2)
    return [
        NamedCheck("p3_negative_at_lower_endpoint", val_lo < 0 and val_lo == closed_lo,
                   str(val_lo), f"{closed_lo} < 0"),
        NamedCheck("p3_positive_at_upper_endpoint", val_hi > 0 and val_hi == closed_hi,
                   str(val_hi), f"{closed_hi} > 0"),
        NamedCheck("theta_interval_exact", inside,
                   f"largest root isolated in ({iso.lo}, {iso.hi}]",
                   f"strictly inside ({lo}, {hi})"),
        NamedCheck("two_tree_premise_fails",
                   _largest_root_vs(p3, roots, premise_bound) == 1,
                   f"theta > {premise_bound}", "required since sigma = 1"),
    ]


def _hd_interval_evidence(d: int, p10: IntPoly,
                          roots: list[tuple[RootInterval, int]]) -> list[NamedCheck]:
    """The Descartes certificate at the upper endpoint, gamma_d inside the
    half-open interval, and the failure of the three-tree premise."""
    lo, hi = hd_interval(d)
    iso = roots[-1][0]
    descartes = descartes_positivity_check(p10, hi)
    # the largest root is at least lo: half of the interval claim, and the
    # whole of the three-tree premise check
    at_least_lo = _largest_root_vs(p10, roots, lo) in (0, 1)
    inside = at_least_lo and _largest_root_vs(p10, roots, hi) == -1
    return [
        NamedCheck("descartes_all_derivatives_positive", descartes.all_positive,
                   f"{sum(v > 0 for v in descartes.values)}/11 positive", "11/11 positive"),
        NamedCheck("gamma_interval_exact", inside,
                   f"largest root isolated in ({iso.lo}, {iso.hi}]",
                   f"inside [{lo}, {hi})"),
        # sigma(Hd) = 2 < 3, so the spectral premise for packing three trees
        # must fail: gamma_d must be at least d - 5/(d+1)
        NamedCheck("three_tree_premise_fails", at_least_lo,
                   f"gamma >= {lo}", "required since sigma = 2"),
    ]


# ---------------------------------------------------------------------------
# the two families


# Gd: three copies of K_{d+1} minus the edge {a_i, b_i}, joined by a1-a2,
# b2-b3, a3-b1 (labels a = 0, b = 1).
GD = FamilySpec(
    name="Gd", copies=3, d_min=4, labelled=2,
    missing=((0, 1),),
    connectors=(((0, 0), (1, 0)), ((1, 1), (2, 1)), ((2, 0), (0, 1))),
    crossing_claim="total=3, one per pair",
    poly=p3_poly, poly_name="p3",
    other_simple=(), factorization="(x-d)(x+1)^2 P3^2",
    sigma=1, kappa_prime=2, kappa_check="edge_connectivity", kappa_claim="2",
    interval_evidence=_gd_interval_evidence,
)

# Hd: five copies of K_{d+1} minus the disjoint edges {a_i, c_i}, {b_i, d_i},
# joined by b_i-a_{i+1} (cyclic) and c_i-d_{i+2} (step two)
# (labels a, b, c, d = 0, 1, 2, 3).
HD = FamilySpec(
    name="Hd", copies=5, d_min=6, labelled=4,
    missing=((0, 2), (1, 3)),
    connectors=tuple(edge for i in range(5)
                     for edge in (((i, 1), ((i + 1) % 5, 0)), ((i, 2), ((i + 2) % 5, 3)))),
    crossing_claim="total=10",
    poly=p10_poly, poly_name="p10",
    other_simple=(1, -3), factorization="(x-d)(x-1)(x+1)^2(x+3) P10^2",
    sigma=2, kappa_prime=4, kappa_check="edge_connectivity_derived",
    kappa_claim="4 (each copy boundary has 4 edges)",
    interval_evidence=_hd_interval_evidence,
)

FAMILIES = {"Gd": GD, "Hd": HD}


def verify_Gd(d: int) -> FamilyReport:
    """Re-check every Gd claim, including the closed-form values of P3 at
    both ends of the open theta_d interval."""
    return verify_family(GD, d)


def verify_Hd(d: int) -> FamilyReport:
    """Re-check every Hd claim, including the Descartes certificate at the
    upper endpoint and the exact half-open gamma_d interval."""
    return verify_family(HD, d)
