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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connectivity import edge_connectivity
from .exact import (
    IntPoly,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    descartes_positivity_check,
    isolate_real_roots,
    sturm_isolate_largest_root,
)
from .graphs import Edge, Graph, VertexPartition, crossing_edges, make_graph, partition
from .packing import pack_trees, sigma as tree_packing_sigma, verify_certificate
from .randgen import GenConfig, random_regular, splitmix64
from .spectra import adjacency_spectrum, is_equitable, quotient_matrix

ROOT_PRECISION = Fraction(1, 10 ** 12)
SPECTRUM_TOL = 1e-7
ROOT_MATCH_TOL = 1e-8


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
    """Half-open interval [d - 5/(d+1), d - 5/(d+3)) pinching gamma_d."""
    return Fraction(d) - Fraction(5, d + 1), Fraction(d) - Fraction(5, d + 3)


# ---------------------------------------------------------------------------
# builders


def _block_offsets(copies: int, d: int) -> list[int]:
    return [i * (d + 1) for i in range(copies)]


def build_Gd(d: int) -> Graph:
    """Three copies of K_{d+1} minus the edge {a_i, b_i}, joined by
    a1-a2, b2-b3, a3-b1.  Aborts unless the result is d-regular with
    exactly one edge between each pair of copies."""
    if d < 4:
        raise ValueError("Gd needs d >= 4")
    edges: list[Edge] = []
    offsets = _block_offsets(3, d)
    for off in offsets:
        a, b = off, off + 1
        for u in range(off, off + d + 1):
            for v in range(u + 1, off + d + 1):
                if (u, v) != (a, b):
                    edges.append((u, v))
    a = [off for off in offsets]
    b = [off + 1 for off in offsets]
    edges += [(a[0], a[1]), (b[1], b[2]), (a[2], b[0])]
    g = make_graph(3 * (d + 1), edges)
    _assert_family(g, d, gd_natural_partition(d), expected_crossing=3)
    return g


def build_Hd(d: int) -> Graph:
    """Five copies of K_{d+1} minus the disjoint edges {a_i,c_i}, {b_i,d_i},
    joined by b_i-a_{i+1} (cyclic) and c_i-d_{i+2} (step two).  Aborts
    unless the result is d-regular with ten connecting edges."""
    if d < 6:
        raise ValueError("Hd needs d >= 6")
    edges: list[Edge] = []
    offsets = _block_offsets(5, d)
    for off in offsets:
        a, b, c, dd = off, off + 1, off + 2, off + 3
        skip = {(a, c), (b, dd)}
        for u in range(off, off + d + 1):
            for v in range(u + 1, off + d + 1):
                if (u, v) not in skip:
                    edges.append((u, v))
    a = [off for off in offsets]
    b = [off + 1 for off in offsets]
    c = [off + 2 for off in offsets]
    dd = [off + 3 for off in offsets]
    for i in range(5):
        edges.append((b[i], a[(i + 1) % 5]))
        edges.append((c[i], dd[(i + 2) % 5]))
    g = make_graph(5 * (d + 1), edges)
    _assert_family(g, d, hd_natural_partition(d), expected_crossing=10)
    return g


def _assert_family(g: Graph, d: int, blocks: VertexPartition, expected_crossing: int):
    if g.degree_if_regular() != d:
        raise ValueError(f"construction error: not {d}-regular")
    if crossing_edges(g, blocks).total != expected_crossing:
        raise ValueError("construction error: wrong connector count")


def gd_natural_partition(d: int) -> VertexPartition:
    """The three copy vertex sets of Gd."""
    return partition(3 * (d + 1),
                     [range(off, off + d + 1) for off in _block_offsets(3, d)])


def hd_natural_partition(d: int) -> VertexPartition:
    """The five copy vertex sets of Hd."""
    return partition(5 * (d + 1),
                     [range(off, off + d + 1) for off in _block_offsets(5, d)])


def gd_equitable_partition(d: int) -> VertexPartition:
    """Nine orbits of Gd: the three interiors, then (a_i, b_i) per copy."""
    offsets = _block_offsets(3, d)
    blocks: list[list[int]] = [list(range(off + 2, off + d + 1)) for off in offsets]
    for off in offsets:
        blocks += [[off], [off + 1]]
    return partition(3 * (d + 1), blocks)


def hd_equitable_partition(d: int) -> VertexPartition:
    """Twenty-five orbits of Hd: five interiors, then a,b,c,d per copy."""
    offsets = _block_offsets(5, d)
    blocks: list[list[int]] = [list(range(off + 4, off + d + 1)) for off in offsets]
    for off in offsets:
        blocks += [[off], [off + 1], [off + 2], [off + 3]]
    return partition(5 * (d + 1), blocks)


# ---------------------------------------------------------------------------
# quotient-matrix transcriptions


def _a9_rows(d: int) -> list[list[int]]:
    # order: interiors 0..2, then a1,b1,a2,b2,a3,b3 at indices 3..8
    ai = [3, 5, 7]
    bi = [4, 6, 8]
    rows = [[0] * 9 for _ in range(9)]
    for i in range(3):
        rows[i][i] = d - 2
        rows[i][ai[i]] = 1
        rows[i][bi[i]] = 1
        rows[ai[i]][i] = d - 1
        rows[bi[i]][i] = d - 1
    # connectors a1-a2, b2-b3, a3-b1
    rows[ai[0]][ai[1]] = rows[ai[1]][ai[0]] = 1
    rows[bi[1]][bi[2]] = rows[bi[2]][bi[1]] = 1
    rows[ai[2]][bi[0]] = rows[bi[0]][ai[2]] = 1
    return rows


def _a25_rows(d: int) -> list[list[int]]:
    # order: interiors 0..4, then a,b,c,d per copy at 5+4i .. 8+4i
    def a(i): return 5 + 4 * (i % 5)
    def b(i): return 6 + 4 * (i % 5)
    def c(i): return 7 + 4 * (i % 5)
    def dd(i): return 8 + 4 * (i % 5)

    rows = [[0] * 25 for _ in range(25)]
    for i in range(5):
        rows[i][i] = d - 4
        for col in (a(i), b(i), c(i), dd(i)):
            rows[i][col] = 1
            rows[col][i] = d - 3
        rows[a(i)][b(i)] = rows[b(i)][a(i)] = 1      # a-b inside the copy
        rows[a(i)][dd(i)] = rows[dd(i)][a(i)] = 1    # a-d inside the copy
        rows[b(i)][c(i)] = rows[c(i)][b(i)] = 1      # b-c inside the copy
        rows[c(i)][dd(i)] = rows[dd(i)][c(i)] = 1    # c-d inside the copy
        rows[b(i)][a(i + 1)] = 1                     # connector b_i a_{i+1}
        rows[a(i + 1)][b(i)] = 1
        rows[c(i)][dd(i + 2)] = 1                    # connector c_i d_{i+2}
        rows[dd(i + 2)][c(i)] = 1
    return rows


def build_A9(d: int) -> list[list[int]]:
    """9x9 quotient matrix of Gd; cross-validated against the graph."""
    if d < 4:
        raise ValueError("A9 needs d >= 4")
    rows = _a9_rows(d)
    _validate_transcription(build_Gd(d), gd_equitable_partition(d), rows)
    return rows


def build_A25(d: int) -> list[list[int]]:
    """25x25 quotient matrix of Hd; cross-validated against the graph."""
    if d < 6:
        raise ValueError("A25 needs d >= 6")
    rows = _a25_rows(d)
    _validate_transcription(build_Hd(d), hd_equitable_partition(d), rows)
    return rows


def _validate_transcription(g: Graph, part: VertexPartition, rows: list[list[int]]):
    if not is_equitable(g, part):
        raise ValueError("transcription bug: partition is not equitable")
    q = quotient_matrix(g, part)
    if not q.is_integer() or q.as_int() != rows:
        raise ValueError("transcription bug: quotient differs from computed matrix")


def claimed_charpoly_A9(d: int) -> IntPoly:
    """(x - d)(x + 1)^2 P3(d)^2 -- the asserted factorization."""
    x_minus_d = IntPoly([-d, 1])
    x_plus_1 = IntPoly([1, 1])
    return x_minus_d * x_plus_1 ** 2 * p3_poly(d) ** 2


def claimed_charpoly_A25(d: int) -> IntPoly:
    """(x - d)(x - 1)(x + 1)^2 (x + 3) P10(d)^2 -- the asserted factorization."""
    lin = IntPoly([-d, 1]) * IntPoly([-1, 1]) * IntPoly([1, 1]) ** 2 * IntPoly([3, 1])
    return lin * p10_poly(d) ** 2


# ---------------------------------------------------------------------------
# appendix identities (exact rational spot checks)

# P10'(d - 5/(d+3)) = APPENDIX_Q(d) + 25 * APPENDIX_N(d) / (d+3)^9, where
# APPENDIX_Q(6) = 1425 and APPENDIX_Q(7) = 184220; and
# P10(d - 5/(d+3)) = 5 * APPENDIX_M(d) / (d+3)^10.  Coefficients ascending.
APPENDIX_Q = IntPoly([-154125, -6265, 9235, -1605, -80, 40])
APPENDIX_N = IntPoly([121436221, 368991216, 491609352, 377696288, 179037720,
                      52838632, 9436692, 933304, 39261])
APPENDIX_M = IntPoly([209081, 2789848, 4225996, -7988400, -2586890, 3149694,
                      1156227, -317856, -185275, -9630, 7239, 1412, 79])


def appendix_value_identity(d: int) -> bool:
    """P10 at the upper interval endpoint equals 5*M(d)/(d+3)^10 exactly."""
    point = Fraction(d) - Fraction(5, d + 3)
    lhs = p10_poly(d).evaluate_at(point)
    rhs = Fraction(5 * APPENDIX_M.evaluate_at(Fraction(d)), (d + 3) ** 10)
    return lhs == rhs


def appendix_derivative_identity(d: int) -> bool:
    """P10' at the endpoint equals Q(d) + 25*N(d)/(d+3)^9 exactly."""
    point = Fraction(d) - Fraction(5, d + 3)
    lhs = p10_poly(d).derivative().evaluate_at(point)
    rhs = APPENDIX_Q.evaluate_at(Fraction(d)) + Fraction(
        25 * APPENDIX_N.evaluate_at(Fraction(d)), (d + 3) ** 9)
    return lhs == rhs


def p10_derivative_at_endpoint(d: int, order: int) -> Fraction:
    """Exact value of the order-th derivative of P10 at d - 5/(d+3)."""
    p = p10_poly(d)
    for _ in range(order):
        p = p.derivative()
    return p.evaluate_at(Fraction(d) - Fraction(5, d + 3))


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

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _largest_root_above(p: IntPoly, bound: Fraction, strict: bool) -> bool:
    hi = cauchy_bound(p)
    count = count_real_roots(p, bound, hi) if bound < hi else 0
    if count >= 1:
        return True
    return (not strict) and p.evaluate_at(bound) == 0


def _largest_root_below(p: IntPoly, bound: Fraction) -> bool:
    """All real roots strictly below bound."""
    hi = cauchy_bound(p)
    count = count_real_roots(p, bound, hi) if bound < hi else 0
    return count == 0 and p.evaluate_at(bound) != 0


def _spectrum_check(computed: tuple[float, ...],
                    expected: tuple[tuple[float, int], ...]) -> tuple[bool, float]:
    flat = sorted((v for v, mult in expected for _ in range(mult)), reverse=True)
    if len(flat) != len(computed):
        return False, float("inf")
    worst = max(abs(a - b) for a, b in zip(computed, flat)) if flat else 0.0
    return worst <= SPECTRUM_TOL, worst


def verify_Gd(d: int, precision: Fraction = ROOT_PRECISION) -> FamilyReport:
    """Re-check every Gd claim: counts, sigma, connectivity, the exact
    theta_d interval, the spectrum multiset, and the quotient identity."""
    g = build_Gd(d)
    p3 = p3_poly(d)
    lo, hi = gd_interval(d)
    checks: list[NamedCheck] = []

    checks.append(NamedCheck("vertex_count", g.n == 3 * (d + 1),
                             str(g.n), str(3 * (d + 1))))
    checks.append(NamedCheck("regularity", g.degree_if_regular() == d,
                             str(g.degree_if_regular()), str(d)))

    cross = crossing_edges(g, gd_natural_partition(d))
    pairwise_one = all(cross.pair_counts[i][j] == 1
                       for i in range(3) for j in range(i + 1, 3))
    checks.append(NamedCheck("copy_crossing_edges", cross.total == 3 and pairwise_one,
                             f"total={cross.total}", "total=3, one per pair"))

    cut = edge_connectivity(g)
    packing = tree_packing_sigma(g, cut.value // 2)
    cert = verify_certificate(g, packing)
    checks.append(NamedCheck("sigma", packing.sigma == 1, str(packing.sigma), "1"))
    checks.append(NamedCheck("sigma_certificate", cert.ok,
                             cert.reason or "verified", "verified"))
    checks.append(NamedCheck("edge_connectivity", cut.value == 2, str(cut.value), "2"))

    spectrum = adjacency_spectrum(g)
    lam2 = spectrum.values[1]
    iso = sturm_isolate_largest_root(p3, precision)
    root = iso.as_float()
    checks.append(NamedCheck(
        "lambda2_matches_p3_root", abs(lam2 - root) <= ROOT_MATCH_TOL,
        f"{lam2!r}", f"{root!r}", margin=abs(lam2 - root)))

    val_lo = p3.evaluate_at(lo)
    closed_lo = Fraction(-3 * (9 + d * (-2 + d + d * d)), (2 + d) ** 3)
    checks.append(NamedCheck(
        "p3_negative_at_lower_endpoint", val_lo < 0 and val_lo == closed_lo,
        str(val_lo), f"{closed_lo} < 0"))

    val_hi = p3.evaluate_at(hi)
    closed_hi = Fraction(6 * d * d - 81, (3 + d) ** 3)
    checks.append(NamedCheck(
        "p3_positive_at_upper_endpoint", val_hi > 0 and val_hi == closed_hi,
        str(val_hi), f"{closed_hi} > 0"))

    inside = (_largest_root_above(p3, lo, strict=True)
              and _largest_root_below(p3, hi))
    checks.append(NamedCheck(
        "theta_interval_exact", inside,
        f"largest root isolated in ({iso.lo}, {iso.hi}]",
        f"strictly inside ({lo}, {hi})"))

    # sigma(Gd) = 1 < 2, so the spectral premise for packing two trees
    # must fail: theta_d must already exceed d - 3/(d+1)
    premise_bound = Fraction(d) - Fraction(3, d + 1)
    checks.append(NamedCheck(
        "two_tree_premise_fails", _largest_root_above(p3, premise_bound, strict=True),
        f"theta > {premise_bound}", "required since sigma = 1"))

    expected = _gd_expected_spectrum(d, precision)
    spec_ok, worst = _spectrum_check(spectrum.values, expected)
    checks.append(NamedCheck(
        "spectrum_multiset", spec_ok,
        f"max deviation {worst:.3e}", f"within {SPECTRUM_TOL}", margin=worst))

    a9 = build_A9(d)
    identity = char_poly_exact(a9) == claimed_charpoly_A9(d)
    checks.append(NamedCheck(
        "charpoly_factorization", identity,
        "char poly of quotient", "(x-d)(x+1)^2 P3^2", margin=0.0 if identity else None))

    checks.append(NamedCheck(
        "kundu_bound", packing.sigma >= cut.value // 2,
        f"sigma={packing.sigma}", f">= floor({cut.value}/2)"))

    return FamilyReport(
        family="Gd", d=d, graph=g, sigma=packing.sigma, kappa_prime=cut.value,
        lambda2=lam2, lambda2_interval=(iso.lo, iso.hi),
        spectrum_expected=expected, checks=tuple(checks),
    )


def _gd_expected_spectrum(d: int, precision: Fraction) -> tuple[tuple[float, int], ...]:
    roots = isolate_real_roots(p3_poly(d), precision)
    expected = [(float(d), 1), (-1.0, 3 * d - 4)]
    expected += [(interval.as_float(), 2 * mult) for interval, mult in roots]
    return tuple(sorted(expected, reverse=True))


def verify_Hd(d: int, precision: Fraction = ROOT_PRECISION) -> FamilyReport:
    """Re-check every Hd claim, including the Descartes certificate at the
    upper endpoint and the exact half-open gamma_d interval."""
    g = build_Hd(d)
    p10 = p10_poly(d)
    lo, hi = hd_interval(d)
    checks: list[NamedCheck] = []

    checks.append(NamedCheck("vertex_count", g.n == 5 * (d + 1),
                             str(g.n), str(5 * (d + 1))))
    checks.append(NamedCheck("regularity", g.degree_if_regular() == d,
                             str(g.degree_if_regular()), str(d)))

    cross = crossing_edges(g, hd_natural_partition(d))
    checks.append(NamedCheck("copy_crossing_edges", cross.total == 10,
                             f"total={cross.total}", "total=10"))

    cut = edge_connectivity(g)
    packing = tree_packing_sigma(g, cut.value // 2)
    cert = verify_certificate(g, packing)
    checks.append(NamedCheck("sigma", packing.sigma == 2, str(packing.sigma), "2"))
    checks.append(NamedCheck("sigma_certificate", cert.ok,
                             cert.reason or "verified", "verified"))
    checks.append(NamedCheck("edge_connectivity_derived", cut.value == 4,
                             str(cut.value), "4 (each copy boundary has 4 edges)"))

    spectrum = adjacency_spectrum(g)
    lam2 = spectrum.values[1]
    iso = sturm_isolate_largest_root(p10, precision)
    root = iso.as_float()
    checks.append(NamedCheck(
        "lambda2_matches_p10_root", abs(lam2 - root) <= ROOT_MATCH_TOL,
        f"{lam2!r}", f"{root!r}", margin=abs(lam2 - root)))

    descartes = descartes_positivity_check(p10, hi)
    checks.append(NamedCheck(
        "descartes_all_derivatives_positive", descartes.all_positive,
        f"{sum(v > 0 for v in descartes.values)}/11 positive", "11/11 positive"))

    # the largest root is at least lo: half of the interval claim, and the
    # whole of the three-tree premise check below
    at_least_lo = _largest_root_above(p10, lo, strict=False)
    inside = at_least_lo and _largest_root_below(p10, hi)
    checks.append(NamedCheck(
        "gamma_interval_exact", inside,
        f"largest root isolated in ({iso.lo}, {iso.hi}]",
        f"inside [{lo}, {hi})"))

    # sigma(Hd) = 2 < 3, so the spectral premise for packing three trees
    # must fail: gamma_d must be at least d - 5/(d+1)
    checks.append(NamedCheck(
        "three_tree_premise_fails", at_least_lo,
        f"gamma >= {lo}", "required since sigma = 2"))

    expected = _hd_expected_spectrum(d, precision)
    spec_ok, worst = _spectrum_check(spectrum.values, expected)
    checks.append(NamedCheck(
        "spectrum_multiset", spec_ok,
        f"max deviation {worst:.3e}", f"within {SPECTRUM_TOL}", margin=worst))

    a25 = build_A25(d)
    identity = char_poly_exact(a25) == claimed_charpoly_A25(d)
    checks.append(NamedCheck(
        "charpoly_factorization", identity,
        "char poly of quotient", "(x-d)(x-1)(x+1)^2(x+3) P10^2",
        margin=0.0 if identity else None))

    checks.append(NamedCheck(
        "kundu_bound", packing.sigma >= cut.value // 2,
        f"sigma={packing.sigma}", f">= floor({cut.value}/2)"))

    return FamilyReport(
        family="Hd", d=d, graph=g, sigma=packing.sigma, kappa_prime=cut.value,
        lambda2=lam2, lambda2_interval=(iso.lo, iso.hi),
        spectrum_expected=expected, checks=tuple(checks),
    )


def _hd_expected_spectrum(d: int, precision: Fraction) -> tuple[tuple[float, int], ...]:
    roots = isolate_real_roots(p10_poly(d), precision)
    expected = [(float(d), 1), (1.0, 1), (-3.0, 1), (-1.0, 5 * d - 18)]
    expected += [(interval.as_float(), 2 * mult) for interval, mult in roots]
    return tuple(sorted(expected, reverse=True))


# ---------------------------------------------------------------------------
# proposition search


@dataclass(frozen=True)
class PropositionReport:
    """Gd attains (kappa' = 2, sigma = 1) at n = 3(d+1); the randomized
    search looks for any smaller d-regular graph doing the same, which
    would falsify the minimality claim."""

    d: int
    trials: int
    seed: int
    attained: bool
    examined: int
    counterexamples: tuple[Graph, ...]

    @property
    def clean(self) -> bool:
        return self.attained and not self.counterexamples


def proposition_search(d: int, trials: int, seed: int = 0) -> PropositionReport:
    if d < 4:
        raise ValueError("needs d >= 4")
    report = verify_Gd(d)
    attained = (report.graph.n == 3 * (d + 1)
                and report.kappa_prime == 2 and report.sigma == 1)

    candidates = [n for n in range(d + 1, 3 * (d + 1))
                  if (n * d) % 2 == 0 and n > d]
    bad: list[Graph] = []
    examined = 0
    state = seed
    for _ in range(trials):
        state, pick = splitmix64(state)
        n = candidates[pick % len(candidates)]
        state, trial_seed = splitmix64(state)
        g = random_regular(GenConfig(d=d, n=n, seed=trial_seed))
        examined += 1
        if edge_connectivity(g).value != 2:
            continue
        if pack_trees(g, 1).success and not pack_trees(g, 2).success:
            bad.append(g)
    return PropositionReport(d=d, trials=trials, seed=seed, attained=attained,
                             examined=examined, counterexamples=tuple(bad))
