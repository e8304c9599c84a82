"""Closed forms, bounds, and the identities tying them together."""

from __future__ import annotations

from math import gcd

import pytest

from klsumfree import (
    KLParams,
    FormulaUnavailableError,
    alpha_21,
    alpha_31,
    alpha_report,
    beta_report,
    delta,
    gamma_bounds,
    hp_general_bounds,
    lambda_31_class_report,
    lambda_bounds_general,
    lambda_cyclic_21,
    lambda_cyclic_31,
    lambda_cyclic_via_alpha,
    lambda_exact,
    lambda_formula,
    make_group,
    theorem16_condition,
)
from klsumfree.abelian import divisors

from conftest import kl_pairs

KL21 = KLParams(2, 1)
KL31 = KLParams(3, 1)


def test_kl_params_validation():
    with pytest.raises(ValueError):
        KLParams(1, 1)
    with pytest.raises(ValueError):
        KLParams(2, 0)
    assert KLParams(5, 2).diff == 3 and KLParams(5, 2).weight == 7


def test_delta_examples():
    assert delta(10, KL31) == 2
    assert delta(7, KL21) == 1
    assert delta(6, KLParams(7, 1)) == 6


# ---------------------------------------------------------------------------
# general bounds

def test_bounds_z10_31():
    rep = lambda_bounds_general(make_group([10]), KL31)
    assert (rep.lower, rep.upper) == (2, 5)
    assert rep.lower_terms == {1: 0, 2: 0, 5: 2, 10: 2}
    assert rep.argmax_lower == 5 and rep.argmax_upper == 2
    assert rep.upper_terms[2] == 5


def test_bounds_degenerate_when_exponent_divides():
    rep = lambda_bounds_general(make_group([4]), KLParams(5, 1))
    assert (rep.lower, rep.upper) == (0, 0) and rep.degenerate
    rep = lambda_bounds_general(make_group([2, 2]), KLParams(3, 1))
    assert (rep.lower, rep.upper) == (0, 0) and rep.degenerate


def test_bounds_z7_21_tight():
    rep = lambda_bounds_general(make_group([7]), KL21)
    assert rep.lower == rep.upper == 2


def test_bounds_lower_never_above_upper():
    for g in [make_group([n]) for n in range(2, 80)]:
        for kl in kl_pairs(6):
            rep = lambda_bounds_general(g, kl)
            assert rep.lower <= rep.upper


def test_bounds_positive_when_not_degenerate():
    # floor-adjusted positivity: lower >= floor(n / (2(k+l))), and >= 1
    # once n reaches 2(k+l)
    for n in range(2, 301):
        g = make_group([n])
        for kl in kl_pairs(5):
            if kl.diff % g.v == 0:
                continue
            rep = lambda_bounds_general(g, kl)
            assert rep.lower >= n // (2 * kl.weight)
            if n >= 2 * kl.weight:
                assert rep.lower >= 1


# ---------------------------------------------------------------------------
# cyclic closed forms (each asserts case form == divisor form internally)

def test_lambda_cyclic_21_values():
    assert lambda_cyclic_21(10) == 5
    assert lambda_cyclic_21(7) == 2
    for n in range(2, 100, 2):
        assert lambda_cyclic_21(n) == n // 2
    for n in range(2, 501):
        lambda_cyclic_21(n)  # internal dual-form assertion


def test_lambda_cyclic_31_values():
    assert lambda_cyclic_31(12) == 4
    assert lambda_cyclic_31(5) == 1
    assert lambda_cyclic_31(10) == 2
    for n in range(3, 500, 3):
        assert lambda_cyclic_31(n) == n // 3
    for n in range(2, 501):
        lambda_cyclic_31(n)


def test_lambda_cyclic_21_rejects_a_non_integer_order():
    # 4.0 would give 2.0: no result involves floating point
    with pytest.raises(ValueError, match="positive integer"):
        lambda_cyclic_21(4.0)


def test_alpha_21_values():
    assert alpha_21(8) == 4
    assert alpha_21(7) == 2
    assert alpha_21(9) == 3


def test_alpha_31_values():
    assert alpha_31(9) == 3
    assert alpha_31(10) == 2
    assert alpha_31(14) == 4
    assert alpha_31(2) == 0


# ---------------------------------------------------------------------------
# progression bounds

def test_beta_report_cases():
    assert beta_report(4, KLParams(5, 1)) == (0, 0, "divides")
    assert beta_report(15, KL21) == (5, 5, "coprime")
    assert beta_report(10, KL31) == (2, 2, "intermediate")  # rho1 = 5, rho2 = 2


def test_beta_report_rho2_sets_the_upper_bound():
    # rho1 = 7 and rho2 = 2, so floor(n / (2 rho2)) = 3 exceeds n / rho1 = 2
    assert beta_report(14, KLParams(7, 1)) == (2, 3, "intermediate")


def test_beta_report_case_tags():
    for n in range(2, 60):
        for k, l in [(2, 1), (3, 1), (5, 1), (7, 3), (6, 2)]:
            tag = beta_report(n, KLParams(k, l)).case_tag
            assert (tag == "divides") == ((k - l) % n == 0), (n, k, l)
            assert (tag == "coprime") == (gcd(n, k - l) == 1), (n, k, l)


def test_gamma_bounds_cases():
    assert gamma_bounds(10, KL31) == (2, 3)
    assert gamma_bounds(7, KL21) == (2, 2)
    assert gamma_bounds(2, KL31) == (0, 1)


def test_alpha_report_cases():
    rep = alpha_report(4, KLParams(5, 1))
    assert rep.case_tag == "divides" and rep.exact == 0
    rep = alpha_report(10, KL21)
    assert rep.case_tag == "coprime" and rep.exact == 5
    rep = alpha_report(10, KL31)
    assert rep.case_tag == "intermediate" and rep.exact is None
    assert (rep.lower, rep.upper) == (2, 3)


def test_progression_reports_consistent():
    for n in range(2, 501):
        for kl in kl_pairs(6):
            b = beta_report(n, kl)
            g = gamma_bounds(n, kl)
            a = alpha_report(n, kl)
            assert b.lower <= b.upper
            assert g.lower <= g.upper
            assert a.lower <= a.upper
            assert a.beta_bounds == (b.lower, b.upper)
            assert a.gamma_bounds == tuple(g)
            if a.case_tag == "intermediate":
                assert a.lower == max(b.lower, g.lower)
                assert a.upper == max(b.upper, g.upper)
            else:
                assert a.exact is not None


# ---------------------------------------------------------------------------
# compositions over the divisor lattice

def test_via_alpha_examples():
    assert lambda_cyclic_via_alpha(7, KL21) == 2
    assert lambda_cyclic_via_alpha(12, KL31) == 4
    assert lambda_cyclic_via_alpha(10, KL31, alpha_source="exact") == 2


def test_via_alpha_formula_identity():
    for n in range(2, 201):
        assert lambda_cyclic_via_alpha(n, KL21) == lambda_cyclic_21(n)
        assert lambda_cyclic_via_alpha(n, KL31) == lambda_cyclic_31(n)


def test_via_alpha_raises_when_no_closed_form():
    with pytest.raises(FormulaUnavailableError):
        lambda_cyclic_via_alpha(12, KLParams(4, 2), alpha_source="formula")


def test_hp_general_bounds():
    g7 = make_group([7])
    alpha_values = {1: 0, 7: alpha_21(7)}
    assert hp_general_bounds(g7, KL21, alpha_values) == (2, 2)
    g10 = make_group([10])
    alpha_values = {1: 0, 2: 0, 5: 1, 10: 2}
    assert hp_general_bounds(g10, KL31, alpha_values) == (2, 2)
    assert hp_general_bounds(make_group([2, 2]), KLParams(3, 1), {}) == (0, 0)
    with pytest.raises(ValueError):
        hp_general_bounds(g10, KL31, {1: 0, 2: 0})


def test_theorem16_condition():
    # for v=12, (3,1): d=3 has delta=1 and 3 mod 4 not in {1}
    assert theorem16_condition(12, KL31) == (True, 3)
    assert theorem16_condition(5, KL31) == (False, None)
    assert theorem16_condition(3, KL21) == (True, 3)


# ---------------------------------------------------------------------------
# the six-class breakdown of the (3,1) value

def test_class_report_31_examples():
    rep = lambda_31_class_report(12)
    assert rep.e[0] == 4 and rep.max_size == 4
    rep = lambda_31_class_report(10)
    assert rep.e[3] == 2 and rep.e[5] == 2 and rep.max_size == 2
    assert rep.p[3] == 5 and rep.nmax[5] == 10
    rep = lambda_31_class_report(2)
    assert rep.max_size == 0 and rep.p[5] == 2


def test_class_report_31_matches_formula():
    for n in range(2, 501):
        assert lambda_31_class_report(n).max_size == lambda_cyclic_31(n)


# ---------------------------------------------------------------------------
# exact-value identities against the search (small orders)

def test_coprime_case_upper_form_is_exact():
    for n in range(2, 25):
        for kl in kl_pairs(5):
            if gcd(n, kl.diff) != 1:
                continue
            g = make_group([n])
            expected = max(
                max(0, (d - 2) // kl.weight + 1) * (n // d) for d in divisors(n)
            )
            assert lambda_exact(g, kl).max_size == expected


def test_lambda_formula_dispatch():
    assert lambda_formula(make_group([10]), KL31) == (2, "(3,1) closed form")
    assert lambda_formula(make_group([4]), KLParams(5, 1))[0] == 0
    assert lambda_formula(make_group([2, 4]), KL21)[0] == 4
    assert lambda_formula(make_group([11]), KLParams(4, 1))[0] == 2  # coprime case
    with pytest.raises(FormulaUnavailableError):
        lambda_formula(make_group([9]), KLParams(4, 1))  # gcd(9,3)=3: bounds only
    with pytest.raises(FormulaUnavailableError):
        lambda_formula(make_group([12]), KLParams(4, 2))
