"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
from math import gcd

from klsumfree import GroupSpec, KLParams, Subset, all_abelian_groups, is_kl_sum_free
from klsumfree.abelian import divisors, prime_factors


def subset(g: GroupSpec, *indices: int) -> Subset:
    return Subset.from_indices(g, indices)


def kl_pairs(max_k: int) -> list[KLParams]:
    """All (k, l) with 1 <= l < k <= max_k."""
    return [KLParams(k, l) for k in range(2, max_k + 1) for l in range(1, k)]


def move_padded(bits: int, move) -> int:
    """A reduced padded mask moved by one entry of abelian.translation_ops,
    as the oracle's extend moves each layer."""
    shift, folds, top, top_down = move
    b = bits << shift
    for low, down in folds:
        kept = b & low
        b = kept | (b ^ kept) >> down
    return (b & top) | b >> top_down


def groups_up_to(max_order: int, min_order: int = 2) -> list[GroupSpec]:
    return all_abelian_groups(max_order, min_order=min_order)


def all_subsets(g: GroupSpec):
    """Every subset of g as a Subset, by increasing bitmask."""
    for bits in range(1 << g.n):
        yield Subset(g, bits)


def brute_force_max(g: GroupSpec, k: int, l: int) -> int:
    """Reference maximum by scanning every subset (tiny groups only)."""
    best = 0
    for r in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), r):
            if is_kl_sum_free(Subset.from_indices(g, combo), k, l):
                return r
    return best


# Aut(G) is the product of the automorphism groups of the p-parts, and in a
# finite abelian p-group two elements share an orbit iff they share the
# height sequence h(x), h(p*x), h(p^2*x), ... (Kaplansky, Infinite Abelian
# Groups), where h(y) is the largest h with y in p^h*G.  Since
# p^h*G = (+) gcd(p^h, d_i)*Z_{d_i}, an axis whose p-part has exponent a
# and whose coordinate has p-valuation t puts y = p^j*x in p^h*G exactly
# when t + j >= a or h <= t + j; so h(p^j*x) is the least t + j < a over
# the axes, and "infinite" (encoded as the exponent of p in v, which no
# finite height reaches) when there is none.

def height_keys(g: GroupSpec) -> list[tuple[int, ...]]:
    """Per element index, its height sequences at every prime p | v,
    h_p(p^j*x) for j = 0..e_p, concatenated prime by prime: two elements
    share an Aut(g)-orbit iff they share a key."""
    exps = prime_factors(g.v)
    axes = []
    for d in g.factors:
        # a coordinate's p-valuations, capped by the axis, are those of its
        # gcd with d, so one key per divisor of d serves every residue
        pd = prime_factors(d)
        by_gcd = {}
        for q in divisors(d):
            pq = prime_factors(q)
            key = []
            for p, e in exps.items():
                t, a = pq.get(p, 0), pd.get(p, 0)
                key.extend(t + j if t + j < a else e for j in range(e + 1))
            by_gcd[q] = tuple(key)
        axes.append([by_gcd[gcd(c, d)] for c in range(d)])
    # an element's key is the entry-wise minimum of its coordinates' keys;
    # the all-infinite key lets map(min, ...) take a single axis too
    top = [tuple(e for e in exps.values() for _ in range(e + 1))]
    return [tuple(map(min, *vecs)) for vecs in itertools.product(*axes, top)]


def height_key_orbits(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The Aut(g)-orbits named by height_keys, each in ascending index
    order, ordered by their smallest index."""
    orbits: dict[tuple[int, ...], list[int]] = {}
    for x, key in enumerate(height_keys(g)):
        orbits.setdefault(key, []).append(x)
    return tuple(tuple(orbit) for orbit in orbits.values())
