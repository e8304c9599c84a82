"""The exact search and count against an independent oracle
(tests/independent.py), which shares no code with the package: no padded
layout, no translation_ops, no extend, orbits, colouring, seed or bulk
tallies.  A fault in any of those moves the package's answers and not
the oracle's."""

from __future__ import annotations

import pytest

from klsumfree import KLParams, count_sum_free, lambda_exact

import independent
from conftest import groups_up_to
from test_oracle import SEARCH_PAIRS


def test_lambda_matches_independent_oracle():
    # 252 instances: every group of order <= 24 at SEARCH_PAIRS
    for g in groups_up_to(24):
        for k, l in SEARCH_PAIRS:
            got = lambda_exact(g, KLParams(k, l)).max_size
            assert got == independent.max_size(list(g.factors), k, l), (g, k, l)


def test_count_by_size_matches_independent_oracle():
    # 308 instances: every group of order <= 28 (the count's default
    # limit) at SEARCH_PAIRS
    for g in groups_up_to(28):
        for k, l in SEARCH_PAIRS:
            got = dict(count_sum_free(g, KLParams(k, l)).by_size)
            assert got == independent.by_size(list(g.factors), k, l), (g, k, l)


@pytest.mark.scale
def test_lambda_matches_independent_oracle_on_orders_25_to_32():
    for g in groups_up_to(32, min_order=25):
        for k, l in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]:
            got = lambda_exact(g, KLParams(k, l)).max_size
            assert got == independent.max_size(list(g.factors), k, l), (g, k, l)


def test_independent_oracle_on_small_cases():
    # by hand: {3, 4} is a largest (2,1)-sum-free set of Z_7; in Z_2 x Z_2 at (2,1)
    # the largest sum-free sets are the two-element sets without 0
    assert independent.max_size([7], 2, 1) == 2
    assert independent.by_size([2, 2], 2, 1) == {0: 1, 1: 3, 2: 3}
    # adding (1, 1) to {(0, 1)} in Z_2 x Z_3 lands on (1, 2), index 5
    bits = 1 << 1
    for up, low, down in independent.translation_ops([2, 3])[4]:
        bits = (bits & low) << up | (bits & ~low) >> down
    assert bits == 1 << 5
