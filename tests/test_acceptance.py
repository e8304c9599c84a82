"""Acceptance criteria: every formula checked against exhaustive search.

Each test covers one criterion over its full range at exact integer
equality (the counting criterion additionally applies its sanity band) and
prints a one-line PASS/FAIL verdict.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

from klsumfree import (
    KLParams,
    Subset,
    alpha_31,
    alpha_exact,
    ap_witness_max,
    best_witness,
    beta_exact,
    beta_report,
    case51_witness,
    count_sum_free,
    enumerate_maximum,
    gamma_bounds,
    gamma_exact,
    h_fold,
    is_kl_sum_free,
    kneser_check,
    lambda_bounds_general,
    lambda_cyclic_21,
    lambda_cyclic_31,
    lambda_exact,
    make_group,
    pair_sumset,
    stabilizer,
)
from klsumfree.abelian import divisors, prime_factors
from klsumfree.formulas import delta, theorem16_condition

from conftest import groups_up_to, kl_pairs

KL21 = KLParams(2, 1)
KL31 = KLParams(3, 1)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE C{num:02d} FAIL - {summary}")
        raise
    print(f"ACCEPTANCE C{num:02d} PASS - {summary}")


def test_c01_sum_free_cyclic_formula():
    with criterion(1, "sum-free cyclic formula equals search for n in 2..36"):
        for n in range(2, 37):
            assert lambda_exact(make_group([n]), KL21).max_size == lambda_cyclic_21(n)
        assert lambda_cyclic_21(7) == 2 * 7 // 7
        for n in range(2, 37, 2):
            assert lambda_cyclic_21(n) == n // 2


def test_c02_31_cyclic_formula():
    with criterion(2, "(3,1) cyclic formula equals search for n in 2..36"):
        for n in range(2, 37):
            assert lambda_exact(make_group([n]), KL31).max_size == lambda_cyclic_31(n)
        for n in (5, 10):
            assert lambda_cyclic_31(n) == n // 5
        for n in range(3, 37, 3):
            assert lambda_cyclic_31(n) == n // 3


def test_c03_bounds_sandwich_and_witness():
    with criterion(3, "bounds sandwich + witness attains lower, orders <= 24, k <= 5"):
        count = 0
        for g in groups_up_to(24):
            for kl in kl_pairs(5):
                rep = lambda_bounds_general(g, kl)
                exact = lambda_exact(g, kl).max_size
                wit = best_witness(g, kl)
                assert rep.lower <= exact <= rep.upper, (g, kl)
                assert wit.size == rep.lower, (g, kl)
                count += 1
        assert count == 36 * 10


def test_c04_lambda_from_progressions_identity():
    with criterion(4, "lambda(Z_n) = max_d alpha(Z_d) n/d (search both sides), n <= 24, k <= 5"):
        for n in range(2, 25):
            g = make_group([n])
            for kl in kl_pairs(5):
                lhs = lambda_exact(g, kl).max_size
                rhs = max(alpha_exact(d, kl) * (n // d) for d in divisors(n))
                assert lhs == rhs, (n, kl)


def test_c05_alpha_31_formula():
    with criterion(5, "alpha(3,1) formula equals progression search, n in 2..500 (swept to 640)"):
        branches = [0, 0, 0]
        # sweep past 500 so every branch gets at least 50 hits: n = 2 mod 8
        # with 3 not dividing n is the sparsest, only 42 cases below 500
        for n in range(2, 641):
            assert alpha_exact(n, KL31) == alpha_31(n), n
            if n % 3 == 0:
                branches[0] += 1
            elif n % 8 != 2:
                branches[1] += 1
            else:
                branches[2] += 1
        assert all(b >= 50 for b in branches), branches


def test_c06_progression_bounds():
    with criterion(6, "beta/gamma searches inside their bounds, n <= 200, k <= 5"):
        for n in range(2, 201):
            for kl in kl_pairs(5):
                b = beta_exact(n, kl)
                rep = beta_report(n, kl)
                assert rep.lower <= b <= rep.upper, (n, kl)
                if rep.case_tag == "coprime":
                    assert b == n // min(prime_factors(n)), (n, kl)
                lo, hi = gamma_bounds(n, kl)
                assert lo <= gamma_exact(n, kl) <= hi, (n, kl)


def test_c07_sum_free_lift_identity():
    with criterion(7, "lambda(G) = lambda(Z_v) n/v for sum-free sets, orders <= 20"):
        for g in groups_up_to(20):
            exact = lambda_exact(g, KL21).max_size
            assert exact == lambda_cyclic_21(g.v) * (g.n // g.v), g


def test_c08_conditional_lift_identity():
    with criterion(8, "divisor condition implies lambda(G) = lambda(Z_v) n/v, orders <= 20, k <= 4"):
        applied = 0
        for g in groups_up_to(20):
            for kl in kl_pairs(4):
                if not theorem16_condition(g.v, kl).holds:
                    continue
                lam_g = lambda_exact(g, kl).max_size
                lam_v = lambda_exact(make_group([g.v]), kl).max_size
                assert lam_g == lam_v * (g.n // g.v), (g, kl)
                applied += 1
        assert applied > 0


def test_c09_stabilizer_structure_of_maximum_sets():
    with criterion(9, "stabilizer coset structure of every maximum set, orders <= 16"):
        checked = 0
        for g in groups_up_to(16):
            for kl in kl_pairs(4):
                if (kl.k, kl.l) not in {(2, 1), (3, 1), (3, 2), (4, 1)}:
                    continue
                if lambda_exact(g, kl).max_size == 0:
                    continue
                for a in enumerate_maximum(g, kl):
                    ka = h_fold(a, kl.k)
                    stab = stabilizer(ka).subgroup
                    a_plus = pair_sumset(a, stab)
                    assert h_fold(a_plus, kl.k) == ka  # (i)
                    assert is_kl_sum_free(a_plus, kl.k, kl.l)  # (ii)
                    assert a_plus == a  # (iii)
                    for i in a.indices():  # (iv): A is a union of stab-cosets
                        coset = pair_sumset(Subset.from_indices(g, [i]), stab)
                        assert coset.bits & ~a.bits == 0
                    checked += 1
        assert checked > 0


def test_c10_sumset_size_inequality_sweep():
    with criterion(10, "|hA| >= h|A| - (h-1)|H| on exhaustive-small + random sweep"):
        for g in groups_up_to(10):
            for bits in range(1, 1 << g.n):
                a = Subset(g, bits)
                for h in range(1, 5):
                    assert kneser_check(a, h).holds, (g, bits, h)
        rng = random.Random(20250810)
        for g in groups_up_to(24, min_order=11):
            for _ in range(100):
                a = Subset(g, rng.randrange(1, 1 << g.n))
                for h in range(1, 5):
                    assert kneser_check(a, h).holds, (g, a.bits, h)


def test_c11_counts():
    with criterion(11, "N >= 2^lambda everywhere; log2(N)/lambda in [1,3) for n <= 28"):
        ratios = {}
        for n in range(2, 29):
            g = make_group([n])
            res = count_sum_free(g, KL21)
            lam = lambda_exact(g, KL21).max_size
            assert res.total >= 2**lam, n
            ratio = math.log2(res.total) / lam
            assert 1 <= ratio < 3, (n, ratio)
            ratios[n] = ratio
        # a few non-cyclic / higher-(k,l) instances for the general inequality
        for g in groups_up_to(12):
            for kl in (KL21, KL31, KLParams(4, 1)):
                res = count_sum_free(g, kl)
                lam = lambda_exact(g, kl).max_size
                assert res.total >= 2**lam, (g, kl)
        print(
            f"  count band: ratio min {min(ratios.values()):.3f} "
            f"max {max(ratios.values()):.3f}"
        )


def test_c12_witness_certificates():
    with criterion(12, "every constructed witness re-verifies; certificates check out"):
        total = 0

        def check_certificate(w):
            cert = w.certificate
            assert cert is not None
            dl = delta(w.modulus, w.kl)
            assert w.kl.l * w.c == dl * cert.q - cert.r
            assert 1 <= cert.r <= dl
            assert dl == w.kl.diff * cert.u + w.modulus * cert.w
            assert w.start == (cert.u * cert.q) % w.modulus

        # witnesses behind the order <= 24 sandwich sweep
        for g in groups_up_to(24):
            for kl in kl_pairs(5):
                wit = best_witness(g, kl)
                assert is_kl_sum_free(wit.members, kl.k, kl.l), (g, kl)
                if wit.base is not None and wit.base.certificate is not None:
                    check_certificate(wit.base)
                total += 1

        # the per-modulus interval witnesses behind the lower-bound terms
        for d in range(2, 301):
            for kl in kl_pairs(6):
                w = ap_witness_max(d, kl)
                assert is_kl_sum_free(w.members, kl.k, kl.l), (d, kl)
                if w.size:
                    check_certificate(w)
                total += 1

        # the extremal (3,1) intervals behind the progression sweep
        for n in range(6, 501, 8):
            if n % 3 == 0:
                continue
            w = case51_witness(n)
            assert is_kl_sum_free(w.members, 3, 1), n
            check_certificate(w)
            total += 1

        print(f"  re-verified {total} witnesses")
