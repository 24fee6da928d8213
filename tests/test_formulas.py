"""Closed-form evaluation, identity checks, and forward-difference fitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pancakes.formulas import (
    OUT_OF_VALIDITY,
    CrosscheckReport,
    FitError,
    FormulaSpec,
    FormulaStatus,
    NewtonPoly,
    UnknownFormulaError,
    Verdict,
    check_gregory_newton_con63,
    check_recurrence_cor62,
    crosscheck,
    eval_formula,
    fit_newton,
    formula_names,
    get_formula,
    published_cells,
)
from pancakes.formulas import _spec
from pancakes.graphs import GraphKind, PancakeGraph
from pancakes.search import LayerProfile, layer_profile
from pancakes.tables import BURNT_COUNTS, PLAIN_COUNTS, known_counts

from oracles import con63_rhs_reference, fit_newton_reference

PLAIN = GraphKind.PLAIN
BURNT = GraphKind.BURNT


def profile(kind, n):
    return layer_profile(PancakeGraph(kind, n))


class TestRegistry:
    def test_names(self):
        names = formula_names()
        for k in range(9):
            assert f"r{k}-plain" in names
        for k in range(10):
            assert f"r{k}-burnt" in names
        for k in (5, 6, 7, 8):
            assert f"rtilde{k}-plain" in names
        assert len(names) == 23

    def test_name_normalization(self):
        spec = get_formula("r4-plain")
        assert get_formula("R4_plain") is spec
        assert get_formula("  R4-PLAIN ") is spec
        assert get_formula("R5_burnt_conj") is get_formula("r5-burnt")

    def test_unknown_name(self):
        with pytest.raises(UnknownFormulaError, match="no-such"):
            get_formula("no-such-formula")

    def test_statuses(self):
        for k in range(5):
            assert get_formula(f"r{k}-plain").status is FormulaStatus.PROVED
            assert get_formula(f"r{k}-burnt").status is FormulaStatus.PROVED
        for k in range(5, 9):
            status = get_formula(f"r{k}-plain").status
            assert status is FormulaStatus.PUBLISHED_ELSEWHERE
        for k in range(5, 10):
            assert get_formula(f"r{k}-burnt").status is FormulaStatus.CONJECTURED

    def test_degrees_match_flip_counts(self):
        for k in range(9):
            assert get_formula(f"r{k}-plain").degree == k
        for k in range(10):
            assert get_formula(f"r{k}-burnt").degree == k
        for k in (5, 6, 7, 8):
            spec = get_formula(f"rtilde{k}-plain")
            assert spec.degree == k and spec.cumulative

    def test_kinds(self):
        assert get_formula("r4-plain").kind is PLAIN
        assert get_formula("r4-burnt").kind is BURNT

    def test_published_expansions(self):
        # ascending powers over the one reduced denominator
        spec = get_formula("r4-plain")
        assert (spec.coefficients, spec.denominator) == ((-34, 6, 29, -15, 2), 2)
        spec = get_formula("r8-plain")
        assert spec.coefficients == (
            844945920, -267373812, -561161062, 364661948, -79101715,
            4519067, 759857, -122683, 5040,
        )
        assert spec.denominator == 5040
        spec = get_formula("r4-burnt")
        assert (spec.coefficients, spec.denominator) == ((0, -3, 8, -7, 2), 2)

    @pytest.mark.parametrize(
        "form, what",
        [
            (lambda n: Fraction(n, 2), "integer-valued"),
            (lambda n: n * n, "degree 1"),
            (lambda n: n**3, "degree 1"),  # too steep for any fit at n = 0..3
        ],
    )
    def test_registry_guard_names_the_formula(self, form, what):
        with pytest.raises(ArithmeticError, match=f"bad-form: .*{what}"):
            _spec("bad-form", 1, PLAIN, FormulaStatus.PROVED, 1, form)


class TestEval:
    def test_reference_values(self):
        assert eval_formula("r4-plain", 4) == 3
        assert eval_formula("r4-burnt", 3) == 18
        assert eval_formula("r5-burnt", 4) == 124

    def test_exceptions_override_polynomial(self):
        assert eval_formula("r7-plain", 6) == 2
        assert eval_formula("r7-plain", 7) == 1016
        assert eval_formula("r8-plain", 7) == 35
        assert eval_formula("r8-plain", 8) == 8520
        assert eval_formula("r8-plain", 9) == 132697

    def test_out_of_validity(self):
        assert eval_formula("r3-plain", 2) is OUT_OF_VALIDITY
        assert eval_formula("r2-plain", 2) is OUT_OF_VALIDITY
        assert eval_formula("r8-plain", 6) is OUT_OF_VALIDITY
        assert not OUT_OF_VALIDITY  # falsy marker, distinct from 0

    def test_every_formula_matches_every_tabulated_cell(self):
        for name in formula_names():
            spec = get_formula(name)
            for n, row in known_counts(spec.kind).items():
                if spec.cumulative:
                    order = (2**n if spec.kind is BURNT else 1) * math.factorial(n)
                    if len(row) <= spec.k and sum(row) < order:
                        continue  # truncated row: running sum unknown
                    expected_cell = sum(row[: spec.k + 1])
                elif spec.k < len(row):
                    expected_cell = row[spec.k]
                else:
                    continue
                value = spec.value_at(n)
                if value is OUT_OF_VALIDITY:
                    continue
                assert value == expected_cell, (name, n)

    def test_small_closed_forms(self):
        for n in range(1, 30):
            assert eval_formula("r0-plain", n) == 1
            assert eval_formula("r1-plain", n) == n - 1
            assert eval_formula("r1-burnt", n) == n
            assert eval_formula("r2-burnt", n) == n * (n - 1)
            assert eval_formula("r3-burnt", n) == n * (n - 1) ** 2
            assert eval_formula("r4-burnt", n) == n * (n - 1) ** 2 * (2 * n - 3) // 2

    def test_cumulative_equals_sum_of_layers(self):
        for k in (5, 6, 7, 8):
            spec = get_formula(f"rtilde{k}-plain")
            for n in range(spec.min_n, spec.min_n + 6):
                total = sum(eval_formula(f"r{i}-plain", n) for i in range(k + 1))
                assert spec.value_at(n) == total

    def test_inexact_division_is_a_hard_error(self):
        broken = FormulaSpec(
            name="broken",
            k=1,
            kind=PLAIN,
            status=FormulaStatus.PROVED,
            min_n=1,
            coefficients=(1, 2),
            denominator=2,
        )
        with pytest.raises(ArithmeticError, match="divisible"):
            broken.value_at(2)  # (1 + 2*2)/2 does not divide

    def test_wide_integers(self):
        # far beyond 64-bit range; must stay exact
        value = eval_formula("r8-plain", 10**6)
        assert value % 10 == (5040 * 10**48 // 5040) % 10 or value > 0
        assert eval_formula("r8-plain", 100) == (
            5040 * 100**8
            - 122683 * 100**7
            + 759857 * 100**6
            + 4519067 * 100**5
            - 79101715 * 100**4
            + 364661948 * 100**3
            - 561161062 * 100**2
            - 267373812 * 100
            + 844945920
        ) // 5040


class TestCrosscheck:
    def test_proved_formula_verified(self):
        report = crosscheck("r4-plain", [profile(PLAIN, n) for n in range(4, 8)])
        assert report.ok
        assert report.summary == "verified"
        assert [row.n for row in report.rows] == [4, 5, 6, 7]
        assert report.rows[0].formula_value == 3 == report.rows[0].profile_value

    def test_conjectured_formula_consistent(self):
        report = crosscheck("r5-burnt", [profile(BURNT, n) for n in range(1, 6)])
        assert report.ok
        assert report.status is FormulaStatus.CONJECTURED
        assert report.summary == "consistent with data"

    def test_exception_row_flagged(self):
        report = crosscheck("r7-plain", [profile(PLAIN, 6)])
        assert report.ok
        (row,) = report.rows
        assert row.used_exception and row.formula_value == 2

    def test_below_validity_skipped_not_mismatched(self):
        report = crosscheck("r4-plain", [profile(PLAIN, n) for n in range(1, 5)])
        assert report.skipped == (1, 2, 3)
        assert [row.n for row in report.rows] == [4]
        assert report.ok

    def test_beyond_eccentricity_layer_is_zero(self):
        # P_4 has no distance-5 permutations; a complete profile asserts that
        report = crosscheck("r5-plain", [profile(PLAIN, 5)])
        assert report.ok and report.rows[0].formula_value == 20
        report = crosscheck("r6-plain", [profile(PLAIN, 6)])
        assert report.ok

    def test_cumulative_crosscheck(self):
        report = crosscheck("rtilde5-plain", [profile(PLAIN, n) for n in (5, 6, 7)])
        assert report.ok
        assert report.rows[0].profile_value == 120  # all of P_5 within 5 flips

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            crosscheck("r4-plain", [profile(BURNT, 3)])

    def test_mismatch_reported_with_both_values(self):
        doctored = LayerProfile(kind=PLAIN, n=4, counts=(1, 3, 6, 12, 2), complete=True)
        report = crosscheck("r4-plain", [doctored])
        assert not report.ok
        (row,) = report.mismatches
        assert (row.formula_value, row.profile_value) == (3, 2)
        assert "mismatch" in report.summary and "4" in report.summary

    def test_no_data_summary(self):
        report = crosscheck("r8-plain", [profile(PLAIN, 4)])
        assert report.rows == () and report.ok
        assert report.summary == "no data in validity range"


class TestRecurrence:
    def test_holds_at_reference_points(self):
        report = check_recurrence_cor62(4, 10)
        assert report.verdict is Verdict.HOLDS
        assert report.lhs == report.rhs == 3963
        assert check_recurrence_cor62(6, 13).verdict is Verdict.HOLDS

    def test_positivity_hypothesis_enforced(self):
        report = check_recurrence_cor62(4, 8)
        assert report.verdict is Verdict.INSUFFICIENT
        assert "positivity" in report.reason

    def test_k_above_six_rejected(self):
        with pytest.raises(ValueError, match="k <= 6"):
            check_recurrence_cor62(7, 12)

    def test_missing_cells_are_insufficient(self):
        assert check_recurrence_cor62(6, 100).verdict is Verdict.INSUFFICIENT
        assert check_recurrence_cor62(6, 6).verdict is Verdict.INSUFFICIENT

    def test_never_fails_on_reference_data(self):
        verdicts = {
            (k, n): check_recurrence_cor62(k, n).verdict
            for k in range(7)
            for n in range(1, 22)
        }
        assert Verdict.FAILS not in verdicts.values()
        holds = sum(1 for v in verdicts.values() if v is Verdict.HOLDS)
        assert holds == 102  # every (k, n) whose hypotheses the table satisfies

    def test_custom_table_can_fail(self):
        table = dict(published_cells(PLAIN))
        table[(4, 10)] += 1
        assert check_recurrence_cor62(4, 10, table).verdict is Verdict.FAILS


class TestBaseCaseExpansion:
    def test_holds_at_reference_points(self):
        assert check_gregory_newton_con63(4, 10).verdict is Verdict.HOLDS
        assert check_gregory_newton_con63(2, 5).verdict is Verdict.HOLDS
        assert check_gregory_newton_con63(7, 9).verdict is Verdict.HOLDS

    def test_holds_on_every_tabulated_cell(self):
        for (k, n), _ in published_cells(BURNT).items():
            if k < 1:
                continue
            report = check_gregory_newton_con63(k, n)
            assert report.verdict is not Verdict.FAILS, (k, n, report)

    def test_missing_bases_are_insufficient(self):
        # the k=11 expansion needs base values at n=10 and 11, not tabulated
        report = check_gregory_newton_con63(11, 9)
        assert report.verdict is Verdict.INSUFFICIENT
        assert "base value" in report.reason

    def test_missing_target_is_insufficient(self):
        assert check_gregory_newton_con63(4, 99).verdict is Verdict.INSUFFICIENT

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            check_gregory_newton_con63(0, 5)

    def test_custom_table_can_fail(self):
        table = dict(published_cells(BURNT))
        table[(4, 10)] += 1
        assert check_gregory_newton_con63(4, 10, table).verdict is Verdict.FAILS

    def test_agrees_with_conjectured_polynomials(self):
        # beyond the table: expansion from bases == polynomial value
        for k in (5, 6):
            spec = get_formula(f"r{k}-burnt")
            table = {(k, j): spec.value_at(j) for j in range(1, k + 1)}
            for n in range(26, 31):
                table[(k, n)] = spec.value_at(n)
                assert check_gregory_newton_con63(k, n, table).verdict is Verdict.HOLDS


def search_cells(kind, top, max_layer):
    """{(k, n): R_k(n)} for k <= max_layer and n <= top, from layer profiles;
    a layer beyond a complete profile counts 0, as in the published tables."""
    cells = {}
    for n in range(1, top + 1):
        p = layer_profile(PancakeGraph(kind, n), max_layer=max_layer)
        assert len(p.counts) == max_layer + 1 or p.complete
        for k in range(max_layer + 1):
            cells[k, n] = p.counts[k] if k < len(p.counts) else 0
    return cells


def power_coefficients(poly):
    """Ascending power-basis coefficients of a NewtonPoly, as Fractions."""
    total = [Fraction(0)] * (poly.degree + 1)
    for m, c in enumerate(poly.coefficients):
        # c * C(n - n0, m) = c / m! * prod_{t < m} (n - n0 - t)
        term = [Fraction(c, math.factorial(m))]
        for t in range(m):
            term = [
                (term[i - 1] if i else 0) - (poly.n0 + t) * (term[i] if i < len(term) else 0)
                for i in range(len(term) + 1)
            ]
        for i, a in enumerate(term):
            total[i] += a
    return total


class TestIdentitiesOnSearchOutput:
    """The paper's numerical evidence, checked on this program's own counts
    instead of the transcribed tables."""

    def test_con63_and_registered_polynomials_on_full_burnt_profiles(self, profiles):
        # full profiles of BP_1..BP_8, shared with the acceptance suite; for
        # k = 7 the base values are n = 1..7 and n = 8 is held out
        cells = {}
        for n in range(1, 9):
            counts = profiles(BURNT, n).counts
            for k in range(1, 8):
                cells[k, n] = counts[k] if k < len(counts) else 0
        for k in range(1, 8):
            for n in range(k + 1, 9):
                report = check_gregory_newton_con63(k, n, cells)
                assert report.verdict is Verdict.HOLDS, (k, n, report)
        # con63 has R_k^B vanish at n = 0; with that point the cells n <= 8
        # witness a degree-k fit for every k <= 7, which must be the
        # registered polynomial coefficient by coefficient, not only at the
        # sampled n
        for k in range(1, 8):
            fit = fit_newton([(0, 0)] + [(n, cells[k, n]) for n in range(1, 9)])
            spec = get_formula(f"r{k}-burnt")
            assert fit.degree == spec.degree == k
            registered = [Fraction(c, spec.denominator) for c in spec.coefficients]
            assert power_coefficients(fit) == registered, k

    def test_con63_holds_on_burnt_profiles(self):
        cells = search_cells(BURNT, 12, 6)
        for k in range(1, 7):
            for n in range(k + 1, 13):
                report = check_gregory_newton_con63(k, n, cells)
                assert report.verdict is Verdict.HOLDS, (k, n, report)
        for k in (5, 6):
            spec = get_formula(f"r{k}-burnt")
            for n in range(1, 13):
                assert spec.value_at(n) == cells[k, n], (k, n)

    def test_cor62_verdicts_match_published_plain_cells(self):
        cells = search_cells(PLAIN, 14, 5)
        published = published_cells(PLAIN)
        for k in range(6):
            for n in range(1, 15):
                ours = check_recurrence_cor62(k, n, cells)
                theirs = check_recurrence_cor62(k, n, published)
                assert ours.verdict is theirs.verdict, (k, n, ours, theirs)
                assert (ours.lhs, ours.rhs) == (theirs.lhs, theirs.rhs)


class TestFitNewton:
    def test_constant_sequence(self):
        fit = fit_newton([(n, 5) for n in range(3, 7)])
        assert fit.degree == 0 and fit.coefficients == (5,)
        assert fit(123) == 5

    def test_burnt_four_flip_column(self):
        fit = fit_newton([(n, BURNT_COUNTS[n][4]) for n in range(1, 7)])
        assert fit.degree == 4
        for n in range(1, 11):
            assert fit(n) == n * (n - 1) ** 2 * (2 * n - 3) // 2

    def test_plain_four_flip_column(self):
        fit = fit_newton([(n, PLAIN_COUNTS[n][4]) for n in range(4, 11)])
        assert fit.degree == 4
        for n in range(4, 22):
            assert fit(n) == eval_formula("r4-plain", n)

    def test_every_formula_refits_from_its_own_outputs(self):
        for name in formula_names():
            spec = get_formula(name)
            window = range(spec.min_n, spec.min_n + spec.degree + 3)
            fit = fit_newton([(n, spec.value_at(n)) for n in window])
            assert fit.degree == spec.degree, name
            for n in range(spec.min_n, spec.min_n + 2 * len(window)):
                assert fit(n) == spec.value_at(n), (name, n)

    def test_evaluates_below_anchor(self):
        fit = fit_newton([(n, n * n) for n in range(5, 10)])
        assert fit.degree == 2
        assert [fit(n) for n in (-3, 0, 4)] == [9, 0, 16]

    def test_input_order_is_irrelevant(self):
        fit = fit_newton([(6, 36), (4, 16), (5, 25), (7, 49)])
        assert fit(10) == 100

    def test_non_consecutive_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            fit_newton([(1, 1), (3, 9), (4, 16)])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="two"):
            fit_newton([(5, 25)])

    def test_never_stabilizes(self):
        with pytest.raises(FitError, match="stabilize"):
            fit_newton([(n, math.factorial(n)) for n in range(1, 8)])

    @given(
        st.integers(min_value=-50, max_value=50),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    )
    def test_fit_recovers_binomial_basis_polynomials(self, n0, coeffs):
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        poly = NewtonPoly(n0=n0, coefficients=tuple(coeffs))
        points = [(n, poly(n)) for n in range(n0, n0 + len(coeffs) + 2)]
        fit = fit_newton(points)
        assert fit.coefficients == poly.coefficients
        assert fit.n0 == n0

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=8))
    def test_binomial_evaluation_matches_comb(self, x, m):
        poly = NewtonPoly(n0=0, coefficients=(0,) * m + (1,))
        assert poly(x) == math.comb(x, m)


def burnt_tables():
    """The published signed cells and two perturbations of them: every cell
    shifted by a small amount, and the shifted cells less a fifth of them."""
    table = published_cells(BURNT)
    shifted = {(k, n): v + (3 * k + 5 * n) % 7 - 3 for (k, n), v in table.items()}
    holes = {(k, n): v for (k, n), v in shifted.items() if (k + 2 * n) % 5}
    return {"published": table, "shifted": shifted, "holes": holes}


def outcome(fit, points):
    try:
        return fit(points)
    except ValueError as error:  # FitError included
        return type(error), str(error)


class TestAgainstEarlierSums:
    """The Newton forms against the hand-written sums they replaced."""

    @pytest.mark.parametrize("which", ["published", "shifted", "holes"])
    def test_con63_reports_equal_the_double_sum(self, which):
        table = burnt_tables()[which]
        verdicts = set()
        for k in range(1, 13):
            for n in range(30):
                report = check_gregory_newton_con63(k, n, table)
                assert report == con63_rhs_reference(k, n, table), (k, n)
                verdicts.add(report.verdict)
        expected = {Verdict.HOLDS, Verdict.INSUFFICIENT}
        assert verdicts == (expected if which == "published" else expected | {Verdict.FAILS})

    @given(
        st.integers(min_value=-30, max_value=30),
        st.one_of(
            st.builds(
                lambda coeffs, length: [
                    NewtonPoly(0, tuple(coeffs))(n) for n in range(length)
                ],
                st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
                st.integers(min_value=0, max_value=9),
            ),
            st.lists(st.integers(min_value=-20, max_value=20), max_size=10),
        ),
    )
    def test_fit_newton_equals_the_difference_loop(self, n0, values):
        points = [(n0 + i, v) for i, v in enumerate(values)]
        assert outcome(fit_newton, points) == outcome(fit_newton_reference, points)
