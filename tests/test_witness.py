"""Certified witness constructions and their certificate equations."""

from __future__ import annotations

import itertools
import random

import pytest

from klsumfree import (
    Element,
    KLParams,
    Subset,
    alpha_31,
    ap_witness,
    ap_witness_max,
    best_witness,
    case51_witness,
    coset_union_witness,
    cyclic_quotient_lift,
    divisors,
    h_fold,
    is_kl_sum_free,
    lambda_bounds_general,
    lift_witness,
    make_group,
    negate,
    pair_sumset,
    witness_json,
)
from klsumfree.formulas import delta
from klsumfree.witness import members_json

from conftest import groups_up_to, kl_pairs, subset

KL21 = KLParams(2, 1)
KL31 = KLParams(3, 1)


def check_certificate(w):
    cert = w.certificate
    assert cert is not None
    d, kl, c = w.modulus, w.kl, w.c
    dl = delta(d, kl)
    assert kl.l * c == dl * cert.q - cert.r
    assert 1 <= cert.r <= dl
    assert dl == kl.diff * cert.u + d * cert.w
    assert 0 <= cert.u < d
    assert w.start == (cert.u * cert.q) % d


def test_ap_witness_examples():
    w = ap_witness(10, KL31, 1)
    assert (w.certificate.q, w.certificate.r, w.certificate.u, w.certificate.w) == (1, 1, 1, 0)
    assert w.start == 1 and sorted(w.members.indices()) == [1, 2]

    w = ap_witness(7, KL21, 1)
    assert (w.certificate.q, w.certificate.r, w.certificate.u) == (2, 1, 1)
    assert w.start == 2 and sorted(w.members.indices()) == [2, 3]
    assert sorted(h_fold(w.members, 2).indices()) == [4, 5, 6]


def test_ap_witness_singleton():
    w = ap_witness(3, KLParams(5, 1), 0)
    assert w.size == 1
    check_certificate(w)


def test_ap_witness_rejects_too_long():
    with pytest.raises(ValueError):
        ap_witness(10, KL31, 2)  # (k+l)c = 8 > 10-1-2
    with pytest.raises(ValueError):
        ap_witness(1, KL21, 0)
    with pytest.raises(ValueError):
        ap_witness(10, KL31, -1)


def test_ap_witness_max_examples():
    assert ap_witness_max(10, KL31).size == 2
    assert ap_witness_max(7, KL21).size == 2
    assert ap_witness_max(3, KLParams(5, 1)).size == 1


def test_ap_witness_max_empty_when_modulus_divides_diff():
    w = ap_witness_max(2, KL31)
    assert w.size == 0 and w.certificate is None and w.kind == "empty"


def test_ap_witness_max_matches_lower_terms():
    for d in range(2, 301):
        for kl in kl_pairs(6):
            w = ap_witness_max(d, kl)
            expected = max(0, (d - 1 - delta(d, kl)) // kl.weight + 1)
            assert w.size == expected
            if w.size:
                check_certificate(w)


def test_certificates_of_benchmark_pairs():
    # every certificate of ap_witness_max: l*c = delta*q - r with
    # 1 <= r <= delta, delta = (k-l)*u + d*w, start = u*q (mod d)
    for d in range(2, 501):
        for k, l in [(2, 1), (3, 1), (4, 1), (5, 2), (7, 3)]:
            w = ap_witness_max(d, KLParams(k, l))
            if w.size:
                check_certificate(w)
            else:
                assert w.certificate is None and (k - l) % d == 0


def test_coset_union_witness():
    members = coset_union_witness(10, 5, KL31)
    assert sorted(members.indices()) == [1, 6]
    members = coset_union_witness(9, 3, KL21)
    assert sorted(members.indices()) == [1, 4, 7]
    with pytest.raises(ValueError):
        coset_union_witness(10, 2, KL31)  # 2 divides k-l


def test_coset_union_witness_lies_in_one_coset():
    for n in range(4, 101):
        for kl in kl_pairs(5):
            for d in range(2, n):
                if n % d or kl.diff % d == 0:
                    continue
                members = coset_union_witness(n, d, kl)
                assert members.size == n // d
                assert all(i % d == 1 for i in members.indices())


def test_case51_witness_examples():
    w = case51_witness(14)
    assert w.start == 2 and w.c == 3
    assert sorted(w.members.indices()) == [2, 3, 4, 5]
    check_certificate(w)
    assert case51_witness(22).size == 6
    with pytest.raises(ValueError):
        case51_witness(10)
    with pytest.raises(ValueError):
        case51_witness(30)  # divisible by 3


def test_case51_sweep():
    for n in range(6, 501, 8):
        if n % 3 == 0:
            continue
        w = case51_witness(n)
        assert w.size == alpha_31(n) == (n + 2) // 4
        check_certificate(w)
        # the difference set covers every nonzero residue exactly
        diff = pair_sumset(h_fold(w.members, 3), negate(w.members))
        assert diff.bits == (1 << n) - 2


def test_lift_witness_examples():
    g10, g5 = make_group([10]), make_group([5])
    lifted = lift_witness(subset(g5, 1), g10, KL31)
    assert sorted(lifted.members.indices()) == [1, 6]

    g22, g2 = make_group([2, 2]), make_group([2])
    lifted = lift_witness(subset(g2, 1), g22, KL21)
    assert {e.coords for e in lifted.members.elements()} == {(0, 1), (1, 1)}

    assert lift_witness(Subset.empty(g5), g10, KL31).size == 0


def test_lift_witness_rejects_bad_inputs():
    g10, g5 = make_group([10]), make_group([5])
    with pytest.raises(ValueError):
        lift_witness(subset(g5, 1, 2), g10, KL31)  # 3*2 - 1 = 5 = 0 in Z_5
    with pytest.raises(ValueError):
        lift_witness(subset(make_group([4]), 1), g10, KL21)  # 4 does not divide 10


def test_best_witness_examples():
    assert best_witness(make_group([10]), KL31).size == 2
    assert best_witness(make_group([2, 4]), KL21).size == 4
    w = best_witness(make_group([2, 2]), KL31)
    assert w.size == 0 and w.divisor is None


def test_best_witness_achieves_lower_bound():
    for g in groups_up_to(60):
        for kl in kl_pairs(5):
            w = best_witness(g, kl)
            assert w.size == lambda_bounds_general(g, kl).lower
            assert is_kl_sum_free(w.members, kl.k, kl.l)


def test_best_witness_divisor_is_the_bound_argmax():
    pairs = [KLParams(k, l) for k, l in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (5, 1), (6, 1)]]
    checked = 0
    for g in groups_up_to(64):
        for kl in pairs:
            bounds = lambda_bounds_general(g, kl)
            if bounds.degenerate:
                continue
            assert best_witness(g, kl).divisor == bounds.argmax_lower, (g, kl)
            checked += 1
    assert checked == 783


def test_best_witness_matches_all_candidates():
    # reference: build every divisor's interval and keep the first largest lift
    pairs = [KLParams(k, l) for k, l in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]]
    groups = [make_group([v]) for v in range(2, 301)] + groups_up_to(64)
    for g in groups:
        for kl in pairs:
            if kl.diff % g.v == 0:
                continue
            best, best_total = None, -1
            for d in divisors(g.v)[1:]:
                cand = ap_witness_max(d, kl)
                if cand.size * (g.n // d) > best_total:
                    best, best_total = cand, cand.size * (g.n // d)
            w = best_witness(g, kl)
            assert (w.divisor, w.base, w.size) == (best.modulus, best, best_total), (g, kl)


def test_witness_json_shape():
    w = best_witness(make_group([2, 4]), KL21)
    doc = witness_json(w)
    assert doc["group"] == "2x4" and doc["size"] == 4
    assert doc["construction"]["kind"] == "lifted-interval"
    assert set(doc["construction"]["certificate"]) == {"q", "r", "u", "w"}
    assert doc["members"] == [[0, 1], [0, 3], [1, 1], [1, 3]]

    doc = witness_json(ap_witness_max(7, KL21))
    assert doc["group"] == "7" and doc["members"] == [2, 3]

    doc = witness_json(best_witness(make_group([2, 2]), KL31))
    assert doc["size"] == 0 and doc["construction"]["kind"] == "empty"


def test_witness_json_of_a_lifted_set():
    base = subset(make_group([5]), 1, 4)
    g = make_group([2, 10])
    doc = witness_json(lift_witness(base, g, KL21))
    assert doc["construction"] == {
        "kind": "lifted-set", "params": {"modulus": 5}, "certificate": None}
    assert doc["size"] == 8
    assert doc["members"] == members_json(cyclic_quotient_lift(g, 5, base))
    # the preimage of {1, 4} under index mod 5: last coordinate 1, 4, 6 or 9
    assert doc["members"] == [[a, c] for a in range(2) for c in (1, 4, 6, 9)]


def test_members_json_matches_element_by_element_coordinates():
    """coords_of, coords_of_all, members_json and Subset.elements all
    decode through one function; the reference lists every coordinate
    vector in index order (last coordinate fastest) without it."""
    rng = random.Random(20)
    groups = groups_up_to(128)
    assert len(groups) == 246
    assert {"2x2x2x2x4", "2x2x2x2x2x2x2"} <= {str(g) for g in groups}
    for g in groups:
        coords = list(itertools.product(*(range(d) for d in g.factors)))
        assert [g.coords_of(i) for i in range(g.n)] == coords, g
        assert g.coords_of_all(range(g.n)) == coords, g
        full = (1 << g.n) - 1
        for bits in (0, full, rng.getrandbits(g.n), rng.getrandbits(g.n) & rng.getrandbits(g.n)):
            s = Subset(g, bits)
            idx = s.indices()
            expected = idx if g.is_cyclic else [list(coords[i]) for i in idx]
            assert members_json(s) == expected, (g, bits)
            assert s.elements() == [Element(coords[i]) for i in idx], (g, bits)
