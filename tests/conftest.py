"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools

from klsumfree import GroupSpec, KLParams, Subset, all_abelian_groups, is_kl_sum_free


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
