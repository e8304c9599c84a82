"""Property tests over random abelian groups of order <= 64.

Each property is one the unit tests check only at fixed points: the
tests' element addition and negation (conftest.add and neg, which every
other property takes as its reference) and the package's scaling against
coordinate arithmetic, bitmask translation and the sumset kernel against
coordinate addition, negation against coordinate negation, the sum-free
check against the independent one (independent.is_sum_free), the h-fold
sumset against a chain of pair sumsets, quotient lifts and the sum-free
check of a lift in its quotient against the lift's check in G, the least
quotient against a scan of every divisor, the violation search, the
--set text reader against a per-element reading, the
automorphism-orbit key under unit scaling, the exact search's
first-fit colouring against a class-by-class one, the oracle's
check that a level is complete against the sum-free test, and the
progression maxima from one cutoff per divisor against a scan of every
cutoff.
Examples are derandomized, so every run draws the same cases.
"""

from __future__ import annotations

import itertools
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from klsumfree import (
    Subset,
    all_abelian_groups,
    cyclic_quotient_lift,
    divisors,
    find_violation,
    h_fold,
    is_kl_sum_free,
    make_group,
    negate,
    pair_sumset,
)
from klsumfree import cli, sumset
from klsumfree.abelian import padded_layout, translation_ops
from klsumfree.oracle import _ap_maxima, _chain, _first_fit, _make_extend

import independent
from conftest import add, height_keys, kl_pairs, move_padded, neg
from test_oracle import scan_ap_maxima

GROUPS = all_abelian_groups(64)
PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def group_and_set(draw, max_density: int = 3):
    """A group, and a subset keeping each element with chance 2**-draw(1..max_density)."""
    g = draw(st.sampled_from(GROUPS))
    bits = (1 << g.n) - 1
    for _ in range(draw(st.integers(1, max_density))):
        bits &= draw(st.integers(0, (1 << g.n) - 1))
    return g, Subset(g, bits)


@fixed
@given(*[st.integers(0, 63)] * 2, *[st.integers(-100, 100)] * 2)
def test_index_arithmetic_matches_coordinate_arithmetic(i, j, h1, h2):
    for g in GROUPS:
        # index order is the mixed-radix order, last coordinate least significant
        coords = list(itertools.product(*(range(d) for d in g.factors)))
        index = {c: pos for pos, c in enumerate(coords)}
        x, y = i % g.n, j % g.n
        cx, cy = coords[x], coords[y]
        mod = g.factors
        # the tests' digit-by-digit add and neg, which the other properties
        # take as their reference, and the package's scaling
        assert add(g, x, y) == index[tuple((a + b) % d for a, b, d in zip(cx, cy, mod))]
        assert neg(g, x) == index[tuple(-a % d for a, d in zip(cx, mod))]
        assert g.scale_index(h1, x) == index[tuple(h1 * a % d for a, d in zip(cx, mod))]
        assert g.scale_index(h1 + h2, x) == add(g, g.scale_index(h1, x), g.scale_index(h2, x))


@fixed
@given(group_and_set(max_density=1))
def test_translation_matches_coordinate_addition(gs):
    g, a = gs
    layout = padded_layout(g)
    padded = layout.pad(a.bits)
    for e, move in enumerate(translation_ops(g)):
        expected = Subset.from_indices(g, (add(g, i, e) for i in a.indices())).bits
        assert move_padded(padded, move) == layout.pad(expected)


@fixed
@given(group_and_set(max_density=2))
def test_negate_matches_coordinate_negation(gs):
    g, a = gs
    assert negate(a) == Subset.from_indices(g, (neg(g, i) for i in a.indices()))


@fixed
@given(group_and_set(max_density=4), st.data())
def test_sumset_kernels_match_coordinate_addition(gs, data):
    g, a = gs
    if data.draw(st.booleans()):
        b = a
    else:
        bits = (1 << g.n) - 1
        for _ in range(data.draw(st.integers(1, 4))):
            bits &= data.draw(st.integers(0, (1 << g.n) - 1))
        b = Subset(g, bits)
    expected = Subset.from_indices(g, (add(g, i, j) for i in a.indices() for j in b.indices()))
    assert pair_sumset(a, b) == expected


@fixed
@given(group_and_set(), st.sampled_from(PAIRS))
def test_sum_free_check_matches_independent_check(gs, kl):
    g, a = gs
    assert is_kl_sum_free(a, *kl) == independent.is_sum_free(list(g.factors), *kl, a.indices())


@fixed
@given(st.sampled_from(GROUPS), st.sampled_from(PAIRS), st.data())
def test_quotient_lift_keeps_size_and_sum_freeness(g, kl, data):
    d = data.draw(st.sampled_from(divisors(g.v)[1:]))
    base = Subset(make_group([d]), data.draw(st.integers(0, (1 << d) - 1)))
    lifted = cyclic_quotient_lift(g, d, base)
    assert lifted.size == base.size * (g.n // d)
    # is_kl_sum_free checks a lift in its quotient, so the lift is checked
    # in G by the independent test
    assert independent.is_sum_free(list(g.factors), *kl, lifted.indices()) == is_kl_sum_free(base, *kl)


@fixed
@given(st.sampled_from(GROUPS), st.sampled_from(PAIRS), st.data())
def test_sum_free_check_of_lifts_and_near_lifts(g, kl, data):
    # a lift is checked in Z_d, the lift with one index toggled (rarely a
    # lift) in G; either way the independent test and the violation
    # search agree with it
    d = data.draw(st.sampled_from(divisors(g.v)[1:]))
    lifted = cyclic_quotient_lift(g, d, Subset(make_group([d]), data.draw(st.integers(0, (1 << d) - 1))))
    toggled = Subset(g, lifted.bits ^ 1 << data.draw(st.integers(0, g.n - 1)))
    for a in (lifted, toggled):
        free = is_kl_sum_free(a, *kl)
        assert free == independent.is_sum_free(list(g.factors), *kl, a.indices())
        assert (find_violation(a, *kl) is None) == free


def _sparse_mask(data, width: int) -> int:
    """A nonempty width-bit mask keeping each bit with chance 2**-draw(1..3)."""
    bits = (1 << width) - 1
    for _ in range(data.draw(st.integers(1, 3))):
        bits &= data.draw(st.integers(0, (1 << width) - 1))
    return bits or 1


SMALL_GROUPS = all_abelian_groups(40)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.sampled_from([g for g in SMALL_GROUPS if g.is_cyclic])
    | st.sampled_from([g for g in SMALL_GROUPS if not g.is_cyclic]),
    st.booleans(),
    st.data(),
)
def test_h_fold_matches_a_chain_of_pair_sumsets(g, lift, data):
    # h_fold stops its chain at the first layer no larger than the one
    # before and takes every later layer as a translate of it; h - 1
    # pair sumsets build each layer in full.  A lift has its chain run in
    # Z_d, any other set in G
    if lift:
        d = data.draw(st.sampled_from(divisors(g.v)[1:]))
        a = cyclic_quotient_lift(g, d, Subset(make_group([d]), _sparse_mask(data, d)))
    else:
        a = Subset(g, _sparse_mask(data, g.n))
    chain = a
    for h in range(1, 3 * g.n + 1):
        assert h_fold(a, h) == chain, (g, a.indices(), h)
        chain = pair_sumset(chain, a)


def _least_quotient_by_scan(a: Subset):
    """The least divisor 2 <= d < n of v with i in A iff i mod d in A for
    every index i, with no size filter; None for {} and G, whose least
    period is 1."""
    g, members = a.group, set(a.indices())
    if len(members) in (0, g.n):
        return None
    for d in divisors(g.v):
        if 2 <= d < g.n and all((i in members) == (i % d in members) for i in range(g.n)):
            return d
    return None


@fixed
@given(st.sampled_from(GROUPS), st.data())
def test_least_quotient_matches_a_scan_of_every_divisor(g, data):
    # _least_quotient skips the d for which n does not divide |A| d; on
    # lifts and near lifts it finds the same d as the unfiltered scan
    d = data.draw(st.sampled_from(divisors(g.v)[1:]))
    lifted = cyclic_quotient_lift(g, d, Subset(make_group([d]), data.draw(st.integers(0, (1 << d) - 1))))
    toggled = Subset(g, lifted.bits ^ 1 << data.draw(st.integers(0, g.n - 1)))
    for a in (lifted, toggled):
        assert sumset._least_quotient(a) == _least_quotient_by_scan(a), (g, d, a.indices())


@fixed
@given(group_and_set(), st.sampled_from(PAIRS))
def test_find_violation_exactly_on_non_sum_free_sets(gs, kl):
    g, a = gs
    k, l = kl
    hit = find_violation(a, k, l)
    assert (hit is None) == is_kl_sum_free(a, k, l)
    if hit is not None:
        ktuple, ltuple = hit
        assert len(ktuple) == k and len(ltuple) == l
        assert all(a.contains_index(i) for i in ktuple + ltuple)
        ksum = lsum = 0
        for i in ktuple:
            ksum = add(g, ksum, i)
        for i in ltuple:
            lsum = add(g, lsum, i)
        assert ksum == lsum


@st.composite
def numerals(draw, value: int) -> str:
    """value as int still reads it: leading zeros, a "+", one "_" between
    digits and spaces around it, each drawn or not."""
    text = "0" * draw(st.integers(0, 2)) + str(value)
    if len(text) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    text = draw(st.sampled_from(["", "+"])) + text
    return " " * draw(st.integers(0, 1)) + text + " " * draw(st.integers(0, 1))


def reference_parse(g, text: str) -> Subset:
    """The per-element reading of a --set list: int per field, then checked_index."""
    items = [item for item in text.strip().split(",") if item]
    return Subset.from_indices(g, [g.checked_index([int(p) for p in item.split(":")]) for item in items])


@fixed
@given(group_and_set(max_density=2), st.data())
def test_set_text_parses_to_its_set(gs, data):
    # canonical text, in any order and with repeats, takes the column path;
    # a non-canonical spelling (leading zeros, spaces, "+", "_", empty
    # items, a trailing comma) reads as the per-element reference reads it
    g, a = gs
    coords = g.coords_of_all(a.indices())
    rows = data.draw(st.permutations(coords)) + data.draw(st.lists(st.sampled_from(coords), max_size=3) if coords else st.just([]))
    assert cli._parse_set(g, ",".join(":".join(map(str, c)) for c in rows)) == a
    items = [":".join(data.draw(numerals(x)) for x in c) for c in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        items.insert(data.draw(st.integers(0, len(items))), "")
    text = ",".join(items) + data.draw(st.sampled_from(["", ","]))
    assert cli._parse_set(g, text) == reference_parse(g, text) == a


@fixed
@given(st.sampled_from(GROUPS), st.data())
def test_orbit_key_invariant_under_unit_scaling(g, data):
    # x -> u*x is an automorphism for every unit u mod v, so it keeps the
    # height sequences that name the orbit of x
    keys = height_keys(g)
    x = data.draw(st.integers(0, g.n - 1))
    for u in range(1, g.v):
        if gcd(u, g.v) == 1:
            assert keys[g.scale_index(u, x)] == keys[x], (g, x, u)


@st.composite
def graphs(draw, max_vertices: int = 10):
    """Adjacency bitsets of a simple graph on at most max_vertices vertices;
    the edge mask is up to three random masks joined by & or |, so sparse
    and dense graphs both occur."""
    m = draw(st.integers(0, max_vertices))
    pairs = list(itertools.combinations(range(m), 2))
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.integers(0, (1 << len(pairs)) - 1))
        edges = edges & other if draw(st.booleans()) else edges | other
    adj = [0] * m
    for bit, (i, j) in enumerate(pairs):
        if edges >> bit & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def clique_number(adj, vertices):
    """Size of the largest clique among vertices, by trying every subset."""
    best = 0
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(combo, 2)):
                best = r
                break
        else:
            break
    return best


def colour_classes(adj):
    """The reference colouring, one class at a time from the whole graph:
    (order, colours) as _first_fit returns them.  Each class takes, in
    vertex order, every uncoloured vertex adjacent to none it has taken."""
    order: list[int] = []
    colours: list[int] = []
    left = (1 << len(adj)) - 1
    colour = 0
    while left:
        colour += 1
        free = left
        while free:
            low = free & -free
            v = low.bit_length() - 1
            order.append(v)
            colours.append(colour)
            left ^= low
            free &= ~(adj[v] | low)
    return order, colours


@fixed
@given(graphs())
def test_colour_classes_bound_the_cliques_of_each_prefix(adj):
    # the exact search cuts a branch on colours[p]: it must bound every
    # clique among the candidates up to order[p]; first-fit asks for the
    # pairs it reads, once each, keeps each answer in the row of the later
    # candidate, and must colour as the whole graph's classes do.
    # Candidate v of the level is (v, v), and the "layers" of a compatible
    # pair are (u, v)
    asked = []

    def extend(u, v):
        asked.append((u, v))
        return (u, v) if adj[u] >> v & 1 else None

    level = [(v, v) for v in range(len(adj))]
    order, colours, pairs = _first_fit(extend, level)
    assert (order, colours) == colour_classes(adj)
    assert all(u < v for u, v in asked) and len(set(asked)) == len(asked), asked
    assert sorted((u, v) for v, row in enumerate(pairs) for u in row) == sorted(asked)
    assert all(ly == extend(u, v) for v, row in enumerate(pairs) for u, ly in row.items())
    assert sorted(order) == list(range(len(adj)))
    assert colours == sorted(colours) and colours[:1] in ([], [1])
    for a, b in itertools.combinations(range(len(order)), 2):
        if colours[a] == colours[b]:
            assert not adj[order[a]] >> order[b] & 1, (order, colours)
    for p in range(len(order)):
        assert colours[p] >= clique_number(adj, order[:p + 1]), (order, colours, p)


@fixed
@given(st.sampled_from([g for g in GROUPS if g.n <= 32]), st.sampled_from(kl_pairs(6)), st.data())
def test_complete_level_check_matches_sum_free_test(g, kl, data):
    # the count runs a level's chain (_chain) from its first element and
    # resumes it after each element that breaks it: the elements the chain
    # keeps join the chosen set, each breaking one is the first that the
    # chosen set plus the kept ones before it cannot take, and a level is
    # complete (the enumeration's check) iff chosen plus all of it is
    # sum-free, as the empty level is
    extend = _make_extend(g, kl.k, kl.l)
    layers, chosen = [0] * kl.k, []
    for x in data.draw(st.lists(st.integers(0, g.n - 1), max_size=8)):
        lx = extend(layers, x)
        if x not in chosen and lx is not None:
            layers, chosen = lx, chosen + [x]
    addable = [x for x in range(g.n) if x not in chosen and extend(layers, x) is not None]
    picked = data.draw(st.lists(st.sampled_from(addable), max_size=6, unique=True)) if addable else []
    level = [(x, extend(layers, x)) for x in picked]

    def sum_free(xs):
        return is_kl_sum_free(Subset.from_indices(g, chosen + xs), kl.k, kl.l)

    kept, i, joined = [], 0, None
    while True:
        j, joined = _chain(extend, level, i, joined)
        kept += picked[i:j]
        if j == len(level):
            break
        assert not sum_free(kept + [picked[j]])
        i = j + 1
    assert sum_free(kept) and kept[:1] == picked[:1]
    # the chain ends with the layers of chosen plus the kept elements
    expected = layers
    for x in kept:
        expected = extend(expected, x)
    assert joined == (expected if kept else None)
    assert (_chain(extend, level)[0] == len(level)) == sum_free(picked)
    assert _chain(extend, []) == (0, None)


@st.composite
def ap_instances(draw):
    """(n, k, l) with 1 <= l < k <= 40 and n <= 10**5, n a multiple of
    k - l half the time: then every divisor of gcd(n, k - l) takes the
    cutoff form, and more than one of them does."""
    k = draw(st.integers(2, 40))
    l = draw(st.integers(1, k - 1))
    if draw(st.booleans()):
        return draw(st.integers(1, 10**5 // (k - l))) * (k - l), k, l
    return draw(st.integers(1, 10**5)), k, l


@fixed
@given(ap_instances())
def test_progression_maxima_match_the_cutoff_scan(nkl):
    assert _ap_maxima.__wrapped__(*nkl) == scan_ap_maxima(*nkl)
