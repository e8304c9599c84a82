"""Group construction, element arithmetic, divisors, and quotient lifts."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from klsumfree import (
    Subset,
    cyclic_quotient_lift,
    divisors,
    format_group_spec,
    invariant_factor_chains,
    invariant_factors,
    is_kl_sum_free,
    make_group,
    parse_group_spec,
)
from klsumfree.abelian import (
    _generator_moves,
    automorphism_closure,
    automorphism_orbits,
    padded_layout,
    prime_factors,
    translation_ops,
)

from conftest import groups_up_to, height_key_orbits, move_padded, subset


# ---------------------------------------------------------------------------
# construction and normalization

def test_make_group_cyclic():
    g = make_group([10])
    assert g.factors == (10,) and g.n == 10 and g.v == 10


def test_make_group_product():
    g = make_group([2, 4])
    assert g.factors == (2, 4) and g.n == 8 and g.v == 4


def test_make_group_drops_ones():
    assert make_group([1, 6, 1]).factors == (6,)


def test_make_group_rejects_non_chain():
    with pytest.raises(ValueError):
        make_group([2, 3])


def test_make_group_canonicalizes_on_request():
    g = make_group(invariant_factors([2, 3]))
    assert g.factors == (6,) and g.n == 6 and g.v == 6
    assert make_group(invariant_factors([4, 6])).factors == (2, 12)
    assert make_group(invariant_factors([2, 2, 3])).factors == (2, 6)


def test_make_group_rejects_trivial_and_empty():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([1, 1])
    with pytest.raises(ValueError):
        make_group([0, 4])


@pytest.mark.parametrize("factors", [[4.0], [2.5], [2, 4.0]])
def test_make_group_rejects_non_integer_factors(factors):
    # 4.0 would give GroupSpec(n=4.0) and float bounds downstream
    with pytest.raises(ValueError, match="positive integers"):
        make_group(factors)


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        factors = [rng.randint(2, 24) for _ in range(rng.randint(1, 4))]
        g1 = make_group(invariant_factors(factors))
        g2 = make_group(invariant_factors(g1.factors))
        assert g1 == g2
        # the canonical form is a genuine chain
        make_group(g1.factors)


def test_parse_format_round_trip():
    for text in ["10", "2x4x8", "3x3"]:
        g = parse_group_spec(text)
        assert format_group_spec(g) == text
    with pytest.raises(ValueError):
        parse_group_spec("abc")
    with pytest.raises(ValueError):
        parse_group_spec("2x3")


# ---------------------------------------------------------------------------
# element arithmetic

def test_add_examples():
    g = make_group([10])
    assert g.add_index(7, 5) == 2
    g = make_group([2, 4])
    assert g.add_index(g.index_of([1, 3]), g.index_of([1, 2])) == g.index_of([0, 1])


def test_scale_and_neg():
    g = make_group([10])
    assert g.scale_index(3, 4) == 2
    assert g.scale_index(-1, 3) == g.neg_index(3) == 7
    assert g.scale_index(-7, 3) == (-21) % 10


def test_index_arithmetic_rejects_indices_outside_the_group():
    g = make_group([2, 4])
    calls = [
        lambda: g.add_index(9, 0),
        lambda: g.add_index(0, 8),
        lambda: g.neg_index(-1),
        lambda: g.scale_index(3, 100),
        lambda: make_group([10]).add_index(13, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()
    # index_of stays the helper that reduces each coordinate mod d_i
    assert g.index_of([3, 9]) == g.index_of([1, 1]) == 5


def test_add_index_matches_coordinate_addition():
    # every pair of every group of order <= 64: add_index decodes both
    # operands at once, and the sum is the coordinate-wise sum mod each d_i
    for g in groups_up_to(64):
        coords = list(itertools.product(*(range(d) for d in g.factors)))
        index = {c: i for i, c in enumerate(coords)}
        for i, ci in enumerate(coords):
            row = [index[tuple((a + b) % d for a, b, d in zip(ci, cj, g.factors))] for cj in coords]
            assert [g.add_index(i, j) for j in range(g.n)] == row, (g, i)


def test_add_index_names_the_first_operand_out_of_range():
    g = make_group([2, 4])
    for i, j, bad in [(8, 0, 8), (0, 8, 8), (-1, 3, -1), (3, -2, -2), (9, -1, 9), (0, 2**70, 2**70)]:
        with pytest.raises(ValueError, match=rf"^index {bad} out of range for group of order 8$"):
            g.add_index(i, j)


def test_scale_distributes_over_exponents():
    rng = random.Random(11)
    for g in [make_group([12]), make_group([2, 4]), make_group([3, 9])]:
        for _ in range(50):
            x = rng.randrange(g.n)
            h1, h2 = rng.randint(-10, 10), rng.randint(-10, 10)
            assert g.scale_index(h1 + h2, x) == g.add_index(g.scale_index(h1, x), g.scale_index(h2, x))


def test_index_coords_round_trip():
    for g in groups_up_to(16):
        for i in range(g.n):
            assert g.index_of(g.coords_of(i)) == g.checked_index(g.coords_of(i)) == i


def test_checked_index_rejects_coordinates_outside_the_group():
    g = make_group([2, 4])
    for coords, why in [
        ((1,), "which needs 2"),
        ((0, 1, 0), "which needs 2"),
        ((2, 0), r"coordinate 2 is outside \[0, 2\)"),
        ((0, -1), r"coordinate -1 is outside \[0, 4\)"),
    ]:
        with pytest.raises(ValueError, match=f"do not fit group 2x4.*{why}"):
            g.checked_index(coords)


def test_translation_ops_match_coordinate_addition():
    for g in [make_group([9]), make_group([2, 4]), make_group([2, 2, 4])]:
        layout = padded_layout(g)
        moves = translation_ops(g)
        for e in range(g.n):
            for i in range(g.n):
                moved = move_padded(layout.pad(1 << i), moves[e])
                assert moved == layout.pad(1 << g.add_index(i, e))


def test_translation_ops_fold_only_the_axes_an_element_moves():
    # an extra fold leaves the moved mask as it is, so the addition test
    # above cannot see one: a move folds exactly the axes i >= 1 on which
    # e's coordinate is nonzero, in axis order, and its (top, top_down) is
    # axis 0's fold only when e's axis-0 coordinate is nonzero
    for g in [make_group([9]), make_group([2, 4]), make_group([2, 2, 4]), make_group([3, 3, 6])]:
        layout = padded_layout(g)
        for e, (shift, folds, top, top_down) in enumerate(translation_ops(g)):
            coords = g.coords_of(e)
            assert shift == layout.offset(e)
            assert folds == tuple(layout.folds[i] for i in range(1, len(coords)) if coords[i])
            assert (top, top_down) == (layout.folds[0] if coords[0] else (-1, layout.size))
    # (0, 1, 0) in Z_2 x Z_2 x Z_4 folds axis 1 alone; (1, 0, 0) folds nothing past axis 0
    g = make_group([2, 2, 4])
    layout, moves = padded_layout(g), translation_ops(g)
    assert moves[g.index_of((0, 1, 0))][1:] == ((layout.folds[1],), -1, layout.size)
    assert moves[g.index_of((1, 0, 0))][1:] == ((),) + layout.folds[0]


def test_padded_layout_adds_without_carry():
    for g in [make_group([9]), make_group([2, 4]), make_group([3, 3, 6]), make_group([2, 2, 2, 2])]:
        layout = padded_layout(g)
        assert layout.size == math.prod(2 * d - 1 for d in g.factors)
        for i in range(g.n):
            assert layout.pad(1 << i) == 1 << layout.offset(i)
            for j in range(g.n):
                moved = layout.pad(1 << i) << layout.offset(j)
                assert moved.bit_length() <= layout.size
                assert layout.unpad(moved) == 1 << g.add_index(i, j)
                assert layout.translate(layout.pad(1 << i), j) == 1 << g.add_index(i, j)
        bits = random.Random(g.n).randrange(1 << g.n)
        assert layout.unpad(layout.pad(bits)) == bits
    # one fold per axis and one offset per block, however many padded blocks
    g = make_group([2] * 12)
    layout = padded_layout(g)
    assert len(layout.folds) == 12 and len(layout.offsets) == g.n // 2
    bits = random.Random(12).randrange(1 << g.n)
    assert layout.unpad(layout.pad(bits)) == bits


def test_table_caches_are_bounded():
    cached = [translation_ops, padded_layout, _generator_moves, automorphism_orbits]
    for fn in cached:
        fn.cache_clear()
    for n in range(2, 132):  # 130 groups
        g = make_group([n])
        for fn in cached:
            fn(g)
    for fn in cached:
        assert fn.cache_info().currsize <= 128, fn
        assert fn.cache_info().maxsize == 128, fn


# ---------------------------------------------------------------------------
# automorphism orbits

def _generator_automorphisms(g):
    """Automorphisms that move one generator e_i to an element y with
    d_i*y = 0 and fix the others, kept when bijective; as index maps."""
    elems = [g.coords_of(x) for x in range(g.n)]
    out = []
    for i, d in enumerate(g.factors):
        for y in elems:
            if any(d * c % f for c, f in zip(y, g.factors)):
                continue  # e_i -> y is no homomorphism
            image = []
            for x in elems:
                rest = [0 if j == i else c for j, c in enumerate(x)]
                image.append(g.index_of(c + x[i] * yc for c, yc in zip(rest, y)))
            if len(set(image)) == g.n:
                out.append(image)
    return out


def _orbit_closure(g):
    """Orbits of the group the generator automorphisms generate, by closure."""
    maps = _generator_automorphisms(g)
    seen = [False] * g.n
    orbits = []
    for x in range(g.n):
        if seen[x]:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for phi in maps:
                if phi[y] not in orbit:
                    orbit.add(phi[y])
                    frontier.append(phi[y])
        for y in orbit:
            seen[y] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def test_automorphism_orbits_match_orbit_closure():
    # a second set of generating automorphisms, closed by a depth-first
    # search, gives the same orbits
    for g in groups_up_to(32):
        assert automorphism_orbits(g) == _orbit_closure(g), g


def test_automorphism_orbits_match_height_keys_to_order_128():
    # the height sequences name the true Aut(g)-orbits, so the search's
    # components are whole orbits for all 246 groups, not parts of them
    for g in groups_up_to(128):
        assert automorphism_orbits(g) == height_key_orbits(g), g


def test_generator_moves_are_automorphisms():
    for g in groups_up_to(128):
        m = len(g.factors)
        axes = [g.index_of([int(j == i) for j in range(m)]) for i in range(m)]
        translates = {}  # y -> [a + y for every a]

        def plus(y):
            if y not in translates:
                translates[y] = [g.add_index(a, y) for a in range(g.n)]
            return translates[y]

        for phi in _generator_moves(g):
            assert sorted(phi) == list(range(g.n)), g
            # additive on a + e_i for every a and axis generator e_i,
            # hence on all sums (every b is a sum of generators)
            for x in axes:
                moved, image = plus(x), plus(phi[x])
                assert all(phi[moved[a]] == image[phi[a]] for a in range(g.n)), (g, x)
    # a scaling is kept only when the kept ones do not already generate it
    assert len(_generator_moves(make_group([128]))) == 2
    assert len(_generator_moves(make_group([105]))) == 3


def _set_closure(g, s):
    """Every image of s under the group _generator_automorphisms generate."""
    maps = _generator_automorphisms(g)
    seen, frontier = {s}, [s]
    while frontier:
        t = frontier.pop()
        for phi in maps:
            image = tuple(sorted(phi[x] for x in t))
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def test_automorphism_closure_matches_set_closure():
    rng = random.Random(19)
    for g in groups_up_to(24):
        for size in range(1, min(3, g.n) + 1):
            s = tuple(sorted(rng.sample(range(g.n), size)))
            closed = automorphism_closure(g, [s])
            assert closed[0] == s and len(set(closed)) == len(closed), (g, s)
            assert set(closed) == _set_closure(g, s), (g, s)


# ---------------------------------------------------------------------------
# number-theory helpers

def test_divisors_and_primes():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    divisors(12).append(5)  # the cache hands out copies
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}


def test_prime_factors_and_divisors_reject_non_integers():
    # no float reaches a divisor rule, cached or not: 6.0 would factor as
    # {2: 1, 3.0: 1} and divide into [1.0, 2.0, 3.0, 6.0]
    assert divisors(6) == [1, 2, 3, 6]
    for call in (prime_factors, divisors):
        with pytest.raises(ValueError, match="positive integer"):
            call(6.0)


# ---------------------------------------------------------------------------
# abelian group enumeration

def test_invariant_factor_chains_counts():
    assert invariant_factor_chains(16) == [
        (2, 2, 2, 2),
        (2, 2, 4),
        (2, 8),
        (4, 4),
        (16,),
    ]
    assert invariant_factor_chains(12) == [(2, 6), (12,)]
    assert invariant_factor_chains(6) == [(6,)]
    assert len(groups_up_to(24)) == 36


# ---------------------------------------------------------------------------
# quotient lifts

def test_lift_examples():
    g10, g5 = make_group([10]), make_group([5])
    lifted = cyclic_quotient_lift(g10, 5, subset(g5, 1, 2))
    assert sorted(lifted.indices()) == [1, 2, 6, 7]

    g24, g4 = make_group([2, 4]), make_group([4])
    lifted = cyclic_quotient_lift(g24, 4, subset(g4, 1))
    assert g24.coords_of_all(lifted.indices()) == [(0, 1), (1, 1)]

    g = make_group([12])
    assert cyclic_quotient_lift(g, 12, Subset.empty(g)).size == 0


def test_lift_rejects_non_divisor_of_exponent():
    g = make_group([2, 4])
    with pytest.raises(ValueError):
        cyclic_quotient_lift(g, 8, subset(make_group([8]), 1))


def test_lift_size_and_sum_free_preservation():
    rng = random.Random(3)
    pairs = [(2, 1), (3, 1), (4, 2)]
    for g in groups_up_to(24):
        for d in divisors(g.v):
            if d < 2:
                continue
            gd = make_group([d])
            for _ in range(4):
                bits = rng.randrange(1 << d)
                base = Subset(gd, bits)
                lifted = cyclic_quotient_lift(g, d, base)
                assert lifted.size == base.size * (g.n // d)
                for k, l in pairs:
                    if is_kl_sum_free(base, k, l):
                        assert is_kl_sum_free(lifted, k, l)
