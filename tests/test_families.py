"""Checks for the two extremal families, their quotient matrices, and the
exact polynomial identities of the paper's appendix that pin lambda2 inside
its interval."""

import dataclasses
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from oracles import edge_connectivity_bruteforce

from treepack import exact, families, packing
from treepack.cli import main
from treepack.exact import (
    IntPoly,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    isolate_real_roots,
    root_cells,
)
from treepack.families import (
    FAMILIES,
    FAMILY_MAX_DEGREE,
    GD,
    HD,
    _largest_root_vs,
    build_family,
    claimed_charpoly,
    equitable_partition,
    gd_interval,
    hd_interval,
    natural_partition,
    p3_poly,
    p10_poly,
    verify_Gd,
    verify_Hd,
    verify_family,
)
from treepack.graphs import crossing_edges, partition
from treepack.packing import pack_trees, sigma
from treepack.spectra import equitable_quotient


def quotient_rows(spec, d):
    """The equitable quotient of the built family graph, computed."""
    return equitable_quotient(build_family(spec, d), equitable_partition(spec, d))


def failures(report):
    return [c.name for c in report.checks if not c.passed]


def count_calls(monkeypatch, *names):
    """A Counter that the exact functions `names` add to on every call,
    wherever the package holds them."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "treepack" or name.startswith("treepack.")]
    for fname in names:
        original = getattr(exact, fname)

        def counted(*args, _fname=fname, _fn=original, **kwargs):
            calls[_fname] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if vars(mod).get(fname) is original:
                monkeypatch.setattr(mod, fname, counted)
    return calls


def largest_root_vs_by_sturm(p, bound):
    """Sign of (largest real root of p) - bound by a Sturm count."""
    if count_real_roots(p, bound, max(cauchy_bound(p), bound + 1)):
        return 1
    return 0 if p.evaluate_at(bound) == 0 else -1


class TestBuilders:
    def test_gd_sizes(self):
        g = build_family(GD, 4)
        assert g.n == 15 and g.m == 30   # 3 * (C(5,2) - 1) + 3
        assert build_family(GD, 5).n == 18
        assert g.degree_if_regular() == 4

    def test_hd_sizes(self):
        h = build_family(HD, 6)
        assert h.n == 35
        assert h.degree_if_regular() == 6
        assert build_family(HD, 10).n == 55

    def test_gd_rejects_small_d(self):
        with pytest.raises(ValueError):
            build_family(GD, 3)

    def test_hd_rejects_small_d(self):
        with pytest.raises(ValueError):
            build_family(HD, 5)

    def test_copy_crossing_counts(self):
        assert crossing_edges(build_family(GD, 4), natural_partition(GD, 4)) == 3
        assert crossing_edges(build_family(HD, 6), natural_partition(HD, 6)) == 10

    def test_gd_pairwise_single_connector(self):
        # merging copies i and j hides their one connector and leaves two
        g = build_family(GD, 5)
        blocks = natural_partition(GD, 5).blocks
        for i in range(3):
            for j in range(i + 1, 3):
                rest = [b for x, b in enumerate(blocks) if x not in (i, j)]
                assert crossing_edges(g, partition(g.n, [blocks[i] | blocks[j], *rest])) == 2


class TestQuotientMatrices:
    def test_a9_first_row_matches_spec_of_interior_vertex(self):
        rows = quotient_rows(GD, 4)
        assert rows[0] == [2, 0, 0, 1, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize("d", [4, 5, 7, 10])
    def test_a9_row_sums_are_d(self, d):
        for row in quotient_rows(GD, d):
            assert sum(row) == d

    @pytest.mark.parametrize("d", [6, 8, 11])
    def test_a25_row_sums_are_d(self, d):
        for row in quotient_rows(HD, d):
            assert sum(row) == d

    # the family workload's degrees, and the degree cap
    def test_a9_is_the_equitable_quotient(self):
        for d in [*range(4, 13), FAMILY_MAX_DEGREE]:
            assert quotient_rows(GD, d) == a9_rows(d), d

    def test_a25_is_the_equitable_quotient(self):
        for d in [*range(6, 17), FAMILY_MAX_DEGREE]:
            assert quotient_rows(HD, d) == a25_rows(d), d

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_a9_charpoly_factorization(self, d):
        assert char_poly_exact(quotient_rows(GD, d)) == claimed_charpoly(GD, d)

    @pytest.mark.parametrize("d", [6, 8, 12])
    def test_a25_charpoly_factorization(self, d):
        assert char_poly_exact(quotient_rows(HD, d)) == claimed_charpoly(HD, d)


class TestPolynomials:
    def test_p3_coefficients(self):
        assert p3_poly(4).coeffs == (5, -7, -2, 1)

    def test_p3_largest_root_in_interval(self):
        lo, hi = gd_interval(4)
        assert (float(lo), float(hi)) == (3.5, pytest.approx(3.5714285714))
        roots = isolate_real_roots(p3_poly(4), Fraction(1, 10 ** 12))
        largest = max(iv.hi for iv, _ in roots)
        smallest_upper = max(iv.lo for iv, _ in roots)
        assert lo < smallest_upper and largest < hi

    def test_p3_sign_at_endpoints(self):
        for d in range(4, 40):
            lo, hi = gd_interval(d)
            p = p3_poly(d)
            assert p.evaluate_at(lo) < 0
            assert p.evaluate_at(hi) > 0
            # closed forms for the endpoint values
            assert p.evaluate_at(lo) == Fraction(-3 * (9 + d * (-2 + d + d * d)), (2 + d) ** 3)
            assert p.evaluate_at(hi) == Fraction(6 * d * d - 81, (3 + d) ** 3)

    def test_p10_largest_root_in_interval(self):
        lo, hi = hd_interval(6)
        roots = isolate_real_roots(p10_poly(6), Fraction(1, 10 ** 12))
        assert lo <= max(iv.lo for iv, _ in roots)
        assert max(iv.hi for iv, _ in roots) < hi

    @pytest.mark.parametrize("bound, sign", [(Fraction(3, 2), 1), (Fraction(2), 0),
                                             (Fraction(3), -1)])
    def test_largest_root_vs_bound(self, bound, sign):
        # (x - 2)(x^2 - 2): largest root 2, the other roots +-sqrt(2) < 3/2;
        # 2 is no grid point, so it lies inside its cell, with 3/2 below
        # the cell and 3 above it
        p = IntPoly([-2, 1]) * IntPoly([-2, 0, 1])
        roots = root_cells(p, [2.0, 2 ** 0.5, -2 ** 0.5])
        assert roots == isolate_real_roots(p)
        assert _largest_root_vs(p, roots, bound) == sign == largest_root_vs_by_sturm(p, bound)

    @pytest.mark.parametrize("p, top", [
        (IntPoly([-2, 1]) * IntPoly([-2, 0, 1]), Fraction(2)),
        (IntPoly([-2, 0, 1]), None),       # sqrt(2): the cell is all that is known
        (IntPoly([0, -1, 1]), Fraction(1)),    # x(x - 1): 1 is a point cell
    ], ids=["rational", "irrational", "point"])
    def test_largest_root_vs_bound_at_the_top_cell(self, p, top):
        roots = isolate_real_roots(p)
        lo, hi = roots[-1][0].lo, roots[-1][0].hi
        width = hi - lo or Fraction(1, 2)
        # the cell's ends, points beside them, and points inside the cell
        bounds = [lo, hi, lo - width, hi + width, lo + width / 3, hi - width / 3]
        if top is not None:
            # just below and just above the root, inside its cell
            gap = min(top - lo, hi - top) / 2 if lo < hi else width
            bounds += [top, top - gap, top + gap]
        signs = [_largest_root_vs(p, roots, b) for b in bounds]
        assert signs == [largest_root_vs_by_sturm(p, b) for b in bounds]
        if lo < hi:
            assert signs[:2] == [1, -1]
        if top is not None:
            assert signs[-3:] == [0, 1, -1]

    def test_largest_root_vs_bound_refuses_a_repeated_root(self):
        p = IntPoly([-1, 1]) ** 2 * IntPoly([1, 1])
        assert _largest_root_vs(p, isolate_real_roots(p), Fraction(0)) is None


# The paper's quotient matrices A9 and A25, written out by hand as reference
# data: the verifier factors the quotient it computes from the built graph,
# and TestQuotientMatrices checks that quotient against these rows.


def a9_rows(d: int) -> list[list[int]]:
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


def a25_rows(d: int) -> list[list[int]]:
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


# The paper's appendix identities, as reference data: its printed formulas
# for P10 and P10' at the upper end d - 5/(d+3) of the Hd interval.
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


class TestAppendixIdentities:
    @pytest.mark.parametrize("d", list(range(6, 31)))
    def test_value_identity(self, d):
        assert appendix_value_identity(d)

    @pytest.mark.parametrize("d", list(range(6, 31)))
    def test_derivative_identity(self, d):
        assert appendix_derivative_identity(d)

    def test_q_spot_values(self):
        assert APPENDIX_Q.evaluate_at(Fraction(6)) == 1425
        assert APPENDIX_Q.evaluate_at(Fraction(7)) == 184220

    def test_high_order_derivatives_at_d6(self):
        assert p10_derivative_at_endpoint(6, 9) == 18305280
        assert p10_derivative_at_endpoint(6, 8) == 44670080

    def test_n_and_m_positive_on_range(self):
        # every coefficient of N is positive, so N(d) > 0 trivially; M needs
        # the actual evaluation
        assert all(c > 0 for c in APPENDIX_N.coeffs)
        for d in range(6, 50):
            assert APPENDIX_M.evaluate_at(Fraction(d)) > 0


class TestFamilyReports:
    @pytest.mark.parametrize("d", [4, 7, 16])
    def test_gd_reports_pass(self, d):
        report = verify_Gd(d)
        assert report.all_passed, failures(report)
        assert report.sigma == 1
        assert report.kappa_prime == 2
        lo, hi = report.lambda2_interval
        assert float(lo) < report.lambda2 < float(hi)

    @pytest.mark.parametrize("d", [6, 9, 16])
    def test_hd_reports_pass(self, d):
        report = verify_Hd(d)
        assert report.all_passed, failures(report)
        assert report.sigma == 2
        assert report.kappa_prime == 4

    def test_gd_lambda2_value(self):
        assert verify_Gd(4).lambda2 == pytest.approx(3.5688496, abs=1e-6)

    def test_hd_lambda2_value(self):
        assert verify_Hd(10).lambda2 == pytest.approx(9.6086625, abs=1e-6)

    def test_gd_report_check_names_complete(self):
        names = {c.name for c in verify_Gd(4).checks}
        assert {"sigma", "edge_connectivity", "spectrum_multiset",
                "charpoly_factorization", "theta_interval_exact"} <= names

    def test_gd_kappa_agrees_with_bruteforce(self):
        # 15 vertices: small enough for the exhaustive cut oracle
        assert edge_connectivity_bruteforce(build_family(GD, 4)) == verify_Gd(4).kappa_prime

    @pytest.mark.parametrize("spec, d", [(GD, 4), (HD, 6)])
    def test_certificate_polynomial_is_isolated_once(self, monkeypatch, spec, d):
        calls = count_calls(monkeypatch, "root_cells", "isolate_real_roots",
                            "sturm_isolate_largest_root", "sturm_chain")
        assert verify_family(spec, d).all_passed
        assert calls == Counter(root_cells=1)


@pytest.mark.parametrize("spec, d", [(GD, d) for d in range(4, 13)] + [(HD, d) for d in range(6, 17)])
def test_root_cells_prove_every_workload_member(monkeypatch, spec, d):
    # the degrees of the benchmark's family workload, at both precisions:
    # no member falls back to Sturm isolation
    calls = count_calls(monkeypatch, "isolate_real_roots", "sturm_chain")
    for precision in (exact.DEFAULT_PRECISION, Fraction(1, 10 ** 30)):
        assert verify_family(spec, d, precision).all_passed
    assert calls == Counter()


@pytest.mark.parametrize("spec, d", [(GD, 4), (GD, 12), (HD, 6), (HD, 16)])
def test_only_roots_of_p_are_proposed(monkeypatch, spec, d):
    # d, -1 and the other simple eigenvalues leave the quotient's
    # eigenvalues before root_cells signs a cell; each root of P is a
    # double eigenvalue, so 2 deg P proposals remain
    handed = []
    cells = families.root_cells
    monkeypatch.setattr(families, "root_cells", lambda p, proposals, precision:
                        handed.append(len(proposals)) or cells(p, proposals, precision))
    assert verify_family(spec, d).all_passed
    assert handed == [2 * spec.poly(d).degree]


def _perturbed(how, p, proposals, precision):
    """The quotient's eigenvalues with P's top root (each P root is a double
    eigenvalue) moved by 1e-3, its next root merged into it, or one copy of
    it made NaN."""
    top, second = [iv.as_float() for iv, _ in isolate_real_roots(p, precision)[:-3:-1]]
    out = [float(x) for x in proposals]
    at_top = [i for i, x in enumerate(out) if abs(x - top) < 1e-9]
    at_second = [i for i, x in enumerate(out) if abs(x - second) < 1e-9]
    assert len(at_top) == len(at_second) == 2
    if how == "moved":
        for i in at_top:
            out[i] += 1e-3
    elif how == "merged":
        for i in at_second:
            out[i] = top
    else:
        out[at_top[0]] = math.nan
    return out


@pytest.mark.parametrize("how", ["moved", "merged", "nan"])
@pytest.mark.parametrize("family, d_max", [("Gd", 7), ("Hd", 9)])
def test_forced_fallback_prints_the_same(monkeypatch, capsys, how, family, d_max):
    args = ["verify-family", family, "--d-min", str(FAMILIES[family].d_min), "--d-max", str(d_max)]
    outputs = []
    for exact_range in ([], ["--exact-range"]):
        main(args + exact_range)
        outputs.append(capsys.readouterr().out)
    refused = []

    def perturbed_cells(p, proposals, precision):
        cells = root_cells(p, _perturbed(how, p, proposals, precision), precision)
        refused.append(cells is None)
        return cells

    monkeypatch.setattr(families, "root_cells", perturbed_cells)
    for exact_range, plain in zip(([], ["--exact-range"]), outputs):
        main(args + exact_range)
        assert capsys.readouterr().out == plain
    assert refused and all(refused)


@pytest.mark.parametrize("spec, d", [(GD, d) for d in range(4, 13)] + [(HD, d) for d in range(6, 17)])
def test_copy_partition_ends_the_sigma_climb(monkeypatch, spec, d):
    # verify_family packs once, at sigma: the copy partition is the witness
    # the failing pack at sigma+1 would find, block for block
    results = []

    def recorded(g, witness=None):
        results.append(sigma(g, witness))
        return results[-1]

    packs = []

    def counted(g, k):
        packs.append(k)
        return pack_trees(g, k)

    monkeypatch.setattr(families, "tree_packing_sigma", recorded)
    monkeypatch.setattr(packing, "pack_trees", counted)
    report = verify_family(spec, d)
    monkeypatch.undo()
    assert report.all_passed
    assert packs == [spec.sigma]
    (got,) = results
    plain = sigma(report.graph)

    def blocks(p):
        return [sorted(b) for b in p.blocks]

    assert (got.sigma, got.trees, blocks(got.witness_partition)) == \
        (plain.sigma, plain.trees, blocks(plain.witness_partition))


class TestVerifierCatchesWrongClaims:
    """A spec that claims something false must fail the check for that
    claim and no other."""

    def test_wrong_sigma_fails_only_the_sigma_check(self):
        report = verify_family(dataclasses.replace(GD, sigma=2), 4)
        assert failures(report) == ["sigma"]

    def test_wrong_partition_fails_only_charpoly(self):
        # Gd with labelled=1 puts b_i among the interiors: not equitable.
        # Hd with labelled=5 splits one interior vertex off each copy: the
        # quotient is equitable but 30x30, not the claimed degree 25.
        for spec, d in [(dataclasses.replace(GD, labelled=1), 5),
                        (dataclasses.replace(HD, labelled=5), 7)]:
            assert failures(verify_family(spec, d)) == ["charpoly_factorization"]

    def test_wrong_simple_eigenvalues_fail_spectrum_and_charpoly(self):
        report = verify_family(dataclasses.replace(GD, other_simple=(1,)), 4)
        assert failures(report) == ["spectrum_multiset", "charpoly_factorization"]


class TestVerifierCatchesWrongConstructions:
    """build_family builds whatever the spec's connectors say; a member that
    is not the family is reported by verify_family's checks, not refused."""

    WRONG_GRAPH = ["regularity", "copy_crossing_edges", "edge_connectivity",
                   "lambda2_matches_p3_root", "spectrum_multiset", "charpoly_factorization"]

    def test_dropped_connector_fails_regularity(self):
        report = verify_family(dataclasses.replace(GD, connectors=GD.connectors[:-1]), 4)
        assert failures(report) == self.WRONG_GRAPH

    def test_connector_repeating_a_pair_fails_copy_crossing_edges(self):
        # copies 1 and 2 joined twice and copies 0 and 2 not at all: three
        # connectors, as claimed, but not one per pair
        connectors = (*GD.connectors[:-1], ((2, 0), (1, 1)))
        report = verify_family(dataclasses.replace(GD, connectors=connectors), 4)
        assert failures(report) == self.WRONG_GRAPH
        (crossing,) = [c for c in report.checks if c.name == "copy_crossing_edges"]
        assert crossing.computed == "total=3, repeated [(1, 2)], missing [(0, 2)]"

    def test_passing_member_prints_only_the_total(self):
        for spec, d, total in [(GD, 4, 3), (HD, 6, 10)]:
            (crossing,) = [c for c in verify_family(spec, d).checks
                           if c.name == "copy_crossing_edges"]
            assert (crossing.passed, crossing.computed) == (True, f"total={total}")
