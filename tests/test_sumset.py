"""Sumset arithmetic, the sum-free predicate, stabilizers, and the
sumset-size inequality sweep."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from klsumfree import (
    KLParams,
    Subset,
    best_witness,
    cyclic_quotient_lift,
    divisors,
    find_violation,
    h_fold,
    invariant_factors,
    is_kl_sum_free,
    kneser_check,
    make_group,
    negate,
    pair_sumset,
    padded_layout,
    stabilizer,
)
from klsumfree import sumset

import independent
from conftest import add, all_subsets, groups_up_to, neg, subset


def _h_fold_naive(a: Subset, h: int) -> Subset:
    """hA as h - 1 pair sums, one summand at a time."""
    out = a
    for _ in range(h - 1):
        out = pair_sumset(out, a)
    return out


def _pair_sumset_reference(a: Subset, b: Subset) -> Subset:
    """A + B on the plain n-bit masks, one translate per element of the
    smaller operand (the per-axis rotation kernel that the padded-layout
    kernel replaced): adding e rotates every block of axis i by e's
    coordinate on it, two masked shifts for the whole mask."""
    g = a.group
    small, large = (a, b) if a.size <= b.size else (b, a)
    axes = []  # (stride, block, a 1 at the bottom of every block), last axis first
    stride = 1
    for d in reversed(g.factors):
        block = d * stride
        axes.append((stride, block, int(("0" * (block - 1) + "1") * (g.n // block), 2)))
        stride = block
    out = 0
    for e in small.indices():
        bits = large.bits
        for (stride, block, ones), t in zip(axes, reversed(g.coords_of(e))):
            if t:
                up = t * stride
                low = ((1 << (block - up)) - 1) * ones
                bits = (bits & low) << up | (bits & ~low) >> (block - up)
        out |= bits
    return Subset(g, out)


def test_pair_sumset_examples():
    g5 = make_group([5])
    assert sorted(pair_sumset(subset(g5, 0, 1), subset(g5, 0, 1)).indices()) == [0, 1, 2]
    g8 = make_group([8])
    odds = subset(g8, 1, 3, 5, 7)
    assert sorted(pair_sumset(odds, odds).indices()) == [0, 2, 4, 6]
    assert pair_sumset(odds, Subset.empty(g8)).size == 0


def test_pair_sumset_rejects_group_mismatch():
    with pytest.raises(ValueError):
        pair_sumset(subset(make_group([5]), 1), subset(make_group([7]), 1))


def test_subset_index_round_trip():
    rng = random.Random(11)
    for g in [make_group([7]), make_group([2, 6]), make_group([20000]), make_group([100003])]:
        n = g.n
        sparse = sum(1 << i for i in rng.sample(range(n), min(n, 40)))
        dense = rng.getrandbits(n)
        eighth = dense & rng.getrandbits(n) & rng.getrandbits(n)
        # empty, full, either end, a few members, sparse, dense
        for bits in [0, (1 << n) - 1, 1, 1 << (n - 1), 0b1011 << (n // 2), sparse, eighth, dense]:
            a = Subset(g, bits)
            idx = a.indices()
            assert idx == sorted(set(idx)) and len(idx) == a.size
            members = set(idx)
            for i in rng.sample(range(n), min(n, 300)):
                assert (bits >> i & 1) == (i in members)
            assert Subset.from_indices(g, idx) == a
            if n <= 20000:
                assert Subset.from_indices(g, idx[::-1] + idx) == a  # order and repeats do not matter
    with pytest.raises(ValueError):
        Subset.from_indices(make_group([5]), [5])
    with pytest.raises(ValueError):
        Subset.from_indices(make_group([5]), [-1])


def test_from_indices_names_the_first_bad_index_of_an_iterator():
    g = make_group([2, 50])
    assert Subset.from_indices(g, iter([7, 3, 7, 99, 0])) == Subset(g, 1 << 99 | 1 << 7 | 1 << 3 | 1)
    # a generator with bad indices in the middle: the first in iteration order is named
    for bad, later in [(100, -1), (-3, 100), (10**30, -5)]:
        indices = (i if i != 50 else bad for i in [*range(60), later, *range(60, 100)])
        with pytest.raises(ValueError, match=rf"^index {bad} out of range for group of order 100$"):
            Subset.from_indices(g, indices)


def test_contains_rejects_elements_outside_the_group():
    g = make_group([2, 4])
    a = Subset.from_indices(g, [1])
    assert (0, 1) in a and [0, 1] in a and (1, 1) not in a
    for coords in [(1,), (0, 1, 0), (2, 0), (0, -1)]:
        with pytest.raises(ValueError, match="do not fit group 2x4"):
            coords in a
    with pytest.raises(ValueError):
        (5,) in Subset.full(make_group([3]))
    # membership takes coordinates, never the record's own fields
    with pytest.raises(ValueError, match="do not fit group 2x4"):
        a.group in a
    with pytest.raises(TypeError):
        a.bits in a


def test_contains_index_rejects_indices_outside_the_group():
    a = Subset.full(make_group([8]))
    assert a.contains_index(0) and a.contains_index(7)
    for i in [8, 100, -1]:
        with pytest.raises(ValueError, match=f"index {i} out of range for group of order 8"):
            a.contains_index(i)


def test_pair_sumset_matches_table_reference():
    rng = random.Random(29)
    for g in [make_group([2000]), make_group([2, 1000]), make_group([2, 2, 500]), make_group([3, 600])]:
        n = g.n
        large = Subset.from_indices(g, rng.sample(range(n), n // 3))
        for m in sorted({1, 2, 5, 17, 64, n // 16, n // 8, n // 5, n // 4, n // 3, n // 2}):
            small = Subset.from_indices(g, rng.sample(range(n), m))
            assert pair_sumset(small, large) == _pair_sumset_reference(small, large), (g, m)
            assert pair_sumset(large, small) == pair_sumset(small, large)
            assert pair_sumset(small, small) == _pair_sumset_reference(small, small), (g, m)
            interval = Subset.from_indices(g, range(m))  # structured sets, many representations
            assert pair_sumset(interval, interval) == _pair_sumset_reference(interval, interval)


def test_pair_sumset_of_large_operands():
    # operands of thousands of elements, as large as the verify sets of
    # the witness groups: closed forms, and scattered sets by reference
    rng = random.Random(37)
    for g in [make_group([9000]), make_group([2, 8400])]:
        n = g.n
        coset = Subset.from_indices(g, range(1, n, 2))  # the odd last coordinates
        interval = Subset.from_indices(g, range(n // 2 + 7))
        scattered = Subset.from_indices(g, rng.sample(range(n), n // 2 + 300))
        # odd + odd = even, and an interval of more than n/2 indices holds
        # a whole block of the last axis and spills into the next; one of
        # m <= (v + 1) / 2 indices adds within block 0, to 2m - 1 indices
        assert pair_sumset(coset, coset) == Subset.from_indices(g, range(0, n, 2))
        assert pair_sumset(interval, interval) == Subset.full(g)
        assert pair_sumset(interval, coset) == Subset.full(g)
        quarter = Subset.from_indices(g, range(n // 4))
        assert pair_sumset(quarter, quarter) == Subset.from_indices(g, range(2 * (n // 4) - 1))
        for a, b in [(scattered, scattered), (coset, scattered)]:
            assert pair_sumset(a, b) == _pair_sumset_reference(a, b), (g, a.size, b.size)


def test_pair_sumset_on_many_axes():
    # many short axes: the padded layout is (3/2)^10 times the group there
    rng = random.Random(41)
    for g in [make_group([2] * 10), make_group([2, 2, 2, 2, 2, 6]), make_group([3, 3, 3, 3, 3])]:
        n = g.n
        for m in [1, 8, n // 16, n // 2]:
            a = Subset.from_indices(g, rng.sample(range(n), m))
            b = Subset.from_indices(g, rng.sample(range(n), n // 4))
            assert pair_sumset(a, b) == _pair_sumset_reference(a, b), (g, m)
            assert pair_sumset(a, a) == _pair_sumset_reference(a, a), (g, m)


def test_h_fold_examples():
    g = make_group([10])
    a = subset(g, 1, 2)
    assert h_fold(a, 1) == a
    assert sorted(h_fold(a, 3).indices()) == [3, 4, 5, 6]
    g8 = make_group([8])
    assert sorted(h_fold(subset(g8, 1, 3, 5, 7), 2).indices()) == [0, 2, 4, 6]
    with pytest.raises(ValueError):
        h_fold(a, 0)


def test_h_fold_matches_naive():
    rng = random.Random(5)
    groups = [make_group([11]), make_group([2, 8]), make_group([3, 6]), make_group([24]), make_group([2, 2, 6])]
    for g in groups:
        for _ in range(20):
            bits = rng.randrange(1, 1 << g.n)
            a = Subset(g, bits)
            for h in range(1, 9):
                assert h_fold(a, h) == _h_fold_naive(a, h)


def test_kl_sum_free_adds_a_once_per_layer(monkeypatch):
    # a set that is no lift is checked in G by the chain jA = (j-1)A + A,
    # kept in the padded layout: one kernel call per layer, each shifting
    # the layer before (A..(j-1)A) by A's padded offsets, whose results
    # unpad to 2A..jA, j being k or the first layer no larger than the one
    # before, where the chain stops
    calls = []
    counted = sumset._sumset_bits

    def recording(layout, offsets, padded):
        out = counted(layout, offsets, padded)
        calls.append((list(offsets), padded, out))
        return out

    monkeypatch.setattr(sumset, "_sumset_bits", recording)
    rng = random.Random(31)
    for g in groups_up_to(24):
        sets = [Subset(g, rng.randrange(1, 1 << g.n)), Subset(g, 1 << rng.randrange(g.n))]
        for a in sets:
            if sumset._least_quotient(a) is not None:
                continue
            layout = padded_layout(g)
            shifts = [layout.offset(i) for i in a.indices()]
            layers = [h_fold(a, h).bits for h in range(1, 8)]
            for k in range(2, 8):
                for l in range(1, k):
                    calls.clear()
                    assert is_kl_sum_free(a, k, l) == (layers[k - 1] & layers[l - 1] == 0)
                    stop = next(
                        (j for j in range(2, k) if layers[j - 1].bit_count() == layers[j - 2].bit_count()), k
                    )
                    assert len(calls) == stop - 1, (g, a, k, l)
                    assert all(offsets == shifts for offsets, _, _ in calls)
                    assert [layout.unpad(padded) for _, padded, _ in calls] == layers[: stop - 1]
                    assert [layout.unpad(out) for _, _, out in calls] == layers[1:stop]


def test_negate():
    g = make_group([10])
    assert sorted(negate(subset(g, 0, 1, 3)).indices()) == [0, 7, 9]
    g2 = make_group([2, 4])
    assert negate(subset(g2, g2.index_of((1, 3)))).indices() == [g2.index_of((1, 1))]
    # many short axes and one long one
    rng = random.Random(43)
    for g in [make_group([2] * 10), make_group([2, 2, 2, 2, 2, 6]), make_group([3] * 5), make_group([20000])]:
        a = Subset.from_indices(g, rng.sample(range(g.n), g.n // 3))
        assert negate(a) == Subset.from_indices(g, (neg(g, i) for i in a.indices())), g
        assert negate(negate(a)) == a


def test_is_kl_sum_free_examples():
    g = make_group([10])
    assert is_kl_sum_free(Subset.empty(g), 3, 1)
    assert not is_kl_sum_free(subset(g, 0), 3, 1)
    assert not is_kl_sum_free(subset(make_group([6]), 0), 2, 1)
    assert is_kl_sum_free(subset(g, 1, 2), 3, 1)


def test_is_kl_sum_free_rejects_bad_kl():
    g = make_group([10])
    with pytest.raises(ValueError):
        is_kl_sum_free(subset(g, 1), 1, 1)
    with pytest.raises(ValueError):
        is_kl_sum_free(subset(g, 1), 2, 0)


def test_lift_is_checked_in_its_least_quotient(monkeypatch):
    quotients = []
    made = sumset.make_group

    def recording(factors):
        quotients.append(tuple(factors))
        return made(factors)

    monkeypatch.setattr(sumset, "make_group", recording)
    g = make_group([24])
    # {1} mod d has least period d, the first divisor of 24 in ascending
    # order that passes the period check
    for d in (2, 3, 4, 6, 8, 12):
        assert sumset._least_quotient(cyclic_quotient_lift(g, d, subset(make_group([d]), 1))) == d
    # {1} mod 4 also repeats with period 8 and 12, and the scan must stop
    # at 4 first
    a = cyclic_quotient_lift(g, 4, subset(make_group([4]), 1))
    for d in (8, 12):
        assert a == cyclic_quotient_lift(g, d, Subset(make_group([d]), a.bits & ((1 << d) - 1)))
    # 3 - 1 = 2 moves 1 off itself mod 4, 5 - 1 = 4 does not
    assert is_kl_sum_free(a, 3, 1) and not is_kl_sum_free(a, 5, 1)
    assert quotients == [(4,), (4,)]
    # in a product group only the divisors of the exponent are tried: {1}
    # mod 3 in Z_2 x Z_6
    g = make_group([2, 6])
    a = cyclic_quotient_lift(g, 3, subset(make_group([3]), 1))
    assert sumset._least_quotient(a) == 3
    assert sumset._least_quotient(Subset(g, a.bits ^ 1)) is None


def test_least_quotient_checks_the_period_only_where_the_size_allows(monkeypatch):
    # an 8-element set of Z_10080 can lift only from a d with 10080 | 8d:
    # of the 70 divisors tried, only 1260, 2520 and 5040 reach _repeat
    calls = []
    repeat = sumset._repeat

    def counted(mask, d, n):
        calls.append(d)
        return repeat(mask, d, n)

    monkeypatch.setattr(sumset, "_repeat", counted)
    a = subset(make_group([10080]), 1, 2, 3, 5, 8, 13, 21, 34)
    assert sumset._least_quotient(a) is None
    assert calls == [1260, 2520, 5040]


def test_group_and_singletons_are_checked_in_the_group(monkeypatch):
    def no_quotient(factors):
        raise AssertionError(f"reduced to {factors}")

    monkeypatch.setattr(sumset, "make_group", no_quotient)
    for g in groups_up_to(16):
        full = Subset.full(g)
        singletons = [Subset(g, 1 << i) for i in range(g.n)]
        assert sumset._least_quotient(full) is None
        for k, l in [(2, 1), (3, 1), (3, 2), (5, 2)]:
            assert not is_kl_sum_free(full, k, l)
            for a in singletons:
                assert sumset._least_quotient(a) is None
                # {x} is sum-free iff (k - l)x != 0
                x = a.indices()[0]
                assert is_kl_sum_free(a, k, l) == (g.scale_index(k - l, x) != 0)


def test_sum_free_check_matches_independent_check_exhaustively_small():
    pairs = [(2, 1), (3, 1), (3, 2)]
    for g in groups_up_to(12):
        factors = list(g.factors)
        for a in all_subsets(g):
            for k, l in pairs:
                assert is_kl_sum_free(a, k, l) == independent.is_sum_free(factors, k, l, a.indices())


def test_sum_free_check_matches_independent_check_random_large():
    rng = random.Random(17)
    pairs = [(2, 1), (3, 1), (4, 3), (5, 2)]
    for g in [make_group([64]), make_group([2, 32]), make_group([2, 2, 16]), make_group([60])]:
        for _ in range(50):
            a = Subset(g, rng.randrange(1 << g.n))
            for k, l in pairs:
                assert is_kl_sum_free(a, k, l) == independent.is_sum_free(list(g.factors), k, l, a.indices())


def test_stabilizer_examples():
    g8 = make_group([8])
    full = Subset.full(g8)
    assert stabilizer(full).subgroup == full
    assert stabilizer(subset(g8, 0)).subgroup == subset(g8, 0)
    res = stabilizer(subset(g8, 1, 3, 5, 7))
    assert sorted(res.subgroup.indices()) == [0, 2, 4, 6]
    assert res.index == 2


def test_stabilizer_is_a_subgroup():
    rng = random.Random(23)
    for g in groups_up_to(16):
        for _ in range(10):
            s = Subset(g, rng.randrange(1, 1 << g.n))
            h = stabilizer(s).subgroup
            assert h.contains_index(0)
            idx = h.indices()
            for a in idx:
                assert h.contains_index(neg(g, a))
                for b in idx:
                    assert h.contains_index(add(g, a, b))
            assert pair_sumset(h, s) == s


def test_stabilizer_empty_set_convention():
    g = make_group([6])
    res = stabilizer(Subset.empty(g))
    assert res.empty_input and res.subgroup == Subset.full(g)


def test_kneser_check_examples():
    g = make_group([10])
    a = subset(g, 1, 2)
    assert kneser_check(a, 1) == kneser_check(a, 1)  # deterministic record
    r1 = kneser_check(a, 1)
    assert (r1.lhs, r1.rhs, r1.holds) == (2, 2, True)
    r3 = kneser_check(a, 3)
    assert (r3.lhs, r3.rhs, r3.holds) == (4, 4, True)
    g8 = make_group([8])
    r2 = kneser_check(subset(g8, 1, 3, 5, 7), 2)
    assert (r2.lhs, r2.rhs, r2.holds) == (4, 4, True)


def test_kneser_requires_nonempty():
    with pytest.raises(ValueError):
        kneser_check(Subset.empty(make_group([4])), 2)


def test_h_fold_of_the_empty_set_is_the_empty_set():
    empty = Subset.empty(make_group([2, 6]))
    assert h_fold(empty, 5) is empty


def test_kneser_requires_positive_h():
    with pytest.raises(ValueError, match="^h must be a positive integer, got 0$"):
        kneser_check(subset(make_group([10]), 1, 2), 0)


def test_kneser_smoke_sweep():
    # the full sweep (orders up to 24) runs in the acceptance suite
    rng = random.Random(29)
    for g in groups_up_to(10):
        for _ in range(20):
            a = Subset(g, rng.randrange(1, 1 << g.n))
            for h in range(1, 5):
                assert kneser_check(a, h).holds


def test_find_violation_reports_equal_sums():
    g = make_group([5])
    bad = subset(g, 1, 2)
    hit = find_violation(bad, 3, 1)
    assert hit is not None
    ktuple, ltuple = hit
    ksum = sum(ktuple) % 5
    lsum = sum(ltuple) % 5
    assert ksum == lsum and len(ktuple) == 3 and len(ltuple) == 1
    assert find_violation(subset(make_group([8]), 1, 3, 5, 7), 2, 1) is None


def _find_violation_reference(a, k, l):
    """The former find_violation: every l-tuple of A, then k-tuples in order."""
    g = a.group
    idxs = a.indices()
    l_sums = {}
    for combo in itertools.combinations_with_replacement(idxs, l):
        total = 0
        for i in combo:
            total = add(g, total, i)
        l_sums.setdefault(total, combo)
    for combo in itertools.combinations_with_replacement(idxs, k):
        total = 0
        for i in combo:
            total = add(g, total, i)
        if total in l_sums:
            return combo, l_sums[total]
    return None


def test_find_violation_matches_tuple_enumeration():
    # random sparse sets, random parts of the best witness (mostly
    # sum-free) without and with one more element, and a lift from a
    # cyclic quotient that is not sum-free, whose layers come from Z_d
    rng = random.Random(41)
    pairs = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]
    lifts = 0
    for g in groups_up_to(40):
        quotients = [d for d in divisors(g.v)[1:] if d < g.n]
        for k, l in pairs:
            witness = best_witness(g, KLParams(k, l)).members.bits
            sets = [
                rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n),
                witness & rng.getrandbits(g.n),
                witness & rng.getrandbits(g.n) | 1 << rng.randrange(g.n),
            ]
            if quotients:
                d = rng.choice(quotients)
                lift = cyclic_quotient_lift(g, d, Subset(make_group([d]), rng.randrange(1, 1 << d)))
                if not is_kl_sum_free(lift, k, l):
                    sets.append(lift.bits)
                    lifts += 1
            for bits in sets:
                a = Subset(g, bits)
                assert find_violation(a, k, l) == _find_violation_reference(a, k, l), (g, k, l, a)
    assert lifts > 100


def test_find_violation_matches_tuple_enumeration_in_large_groups():
    # random 8-element sets in groups of order 1,000-20,000 of each shape
    # Z_N, Z_2xZ_N, Z_3xZ_N, Z_4xZ_N and Z_2xZ_2xZ_N, where every greedy
    # step shifts a padded layer of 2,000-60,000 slots and folds it on
    # each axis.  Random sets this sparse are mostly sum-free, so each
    # pair also gets 7 random members plus a k-sum less an (l-1)-sum of
    # them, which is not
    rng = random.Random(47)
    pairs = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]
    violations = 0
    for shape in [(), (2,), (3,), (4,), (2, 2)]:
        step = max(shape, default=1)
        for low, high in [(1000, 4000), (4000, 20000)]:
            width = math.prod(shape) * step
            m = rng.randrange(low // width, high // width) * step
            g = make_group(invariant_factors(shape + (m,)))
            assert len(g.factors) == len(shape) + 1 and low <= g.n <= high
            for k, l in pairs:
                members = rng.sample(range(g.n), 7)
                total = 0
                for i in rng.choices(members, k=k):
                    total = add(g, total, i)
                for i in rng.choices(members, k=l - 1):
                    total = add(g, total, neg(g, i))
                sets = [rng.sample(range(g.n), 8), members + [total]]
                for indices in sets:
                    a = Subset.from_indices(g, indices)
                    expected = _find_violation_reference(a, k, l)
                    assert find_violation(a, k, l) == expected, (g, k, l, a)
                    assert is_kl_sum_free(a, k, l) == (expected is None), (g, k, l, a)
                    violations += expected is not None
    assert violations >= 50, violations


def test_find_violation_on_a_lift_in_z20000():
    # the odd residues of Z_20000, a lift from Z_2: the layers come from
    # the quotient, and the tuples are still the first in G
    g = make_group([20000])
    a = Subset.from_indices(g, range(1, 20000, 2))
    assert sumset._least_quotient(a) == 2
    assert find_violation(a, 3, 1) == ((1, 1, 1), (3,))


def test_find_violation_witness_plus_one_in_z2000():
    g = make_group([2000])
    witness = best_witness(g, KLParams(3, 2)).members
    a = Subset(g, witness.bits | 1 << 2)
    ktuple, ltuple = find_violation(a, 3, 2)
    assert len(ktuple) == 3 and len(ltuple) == 2
    assert all(a.contains_index(i) for i in ktuple + ltuple)
    assert sum(ktuple) % 2000 == sum(ltuple) % 2000
