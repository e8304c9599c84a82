"""The exact search, the count, the enumeration and the oracle's extend
against an independent oracle (tests/independent.py), which shares no
code with the package: no padded layout, no translation_ops, no extend,
orbits, colouring, seed or bulk tallies.  A fault in any of those moves
the package's answers and not the oracle's."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klsumfree import KLParams, all_abelian_groups, count_sum_free, enumerate_maximum, lambda_exact
from klsumfree.abelian import padded_layout
from klsumfree.oracle import _make_extend

import independent
from conftest import groups_up_to
from test_oracle import SEARCH_PAIRS

GROUPS = all_abelian_groups(64)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.sampled_from([g for g in GROUPS if g.is_cyclic])
    | st.sampled_from([g for g in GROUPS if not g.is_cyclic]),
    st.sampled_from(SEARCH_PAIRS),
    st.data(),
)
def test_extend_matches_independent_extend(g, kl, data):
    # a random chain of elements, each added when the set stays sum-free:
    # extend refuses an element exactly when the independent one does, and
    # its layers 1A..kA unpad to the independent plain masks.  Cyclic
    # groups take only the moves with no folds; product groups take both
    # kinds, an element with every coordinate past axis 0 zero having none
    k, l = kl
    extend = _make_extend(g, k, l)
    plain = independent.make_extend(list(g.factors), k, l)
    unpad = padded_layout(g).unpad
    layers, reference = [0] * k, [1] + [0] * k
    for x in data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=12)):
        got, want = extend(layers, x), plain(reference, x)
        assert (got is None) == (want is None), (g, kl, x)
        if got is not None:
            assert [unpad(b) for b in got] == want[1:], (g, kl, x)
            layers, reference = got, want


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


def _assert_enumerate_matches(groups):
    for g in groups:
        for k, l in SEARCH_PAIRS:
            sets = enumerate_maximum(g, KLParams(k, l))
            got = [tuple(s.indices()) for s in sets]
            assert got == independent.maximum_sets(list(g.factors), k, l), (g, k, l)


def test_enumerate_matches_independent_oracle():
    # 308 instances: every group of order <= 28 at SEARCH_PAIRS
    _assert_enumerate_matches(groups_up_to(28))


@pytest.mark.scale
def test_enumerate_matches_independent_oracle_on_orders_29_to_32():
    # 70 instances
    _assert_enumerate_matches(groups_up_to(32, min_order=29))


@pytest.mark.scale
def test_lambda_matches_independent_oracle_on_orders_25_to_32():
    for g in groups_up_to(32, min_order=25):
        for k, l in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]:
            got = lambda_exact(g, KLParams(k, l)).max_size
            assert got == independent.max_size(list(g.factors), k, l), (g, k, l)


def test_independent_oracle_loads_no_package_module():
    # in a fresh interpreter that could import klsumfree, importing the
    # oracle and answering one question of each kind loads no module of it
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    code = (
        "import sys\n"
        "import independent\n"
        "independent.max_size([2, 4], 3, 1)\n"
        "independent.by_size([2, 4], 3, 1)\n"
        "independent.maximum_sets([2, 4], 3, 1)\n"
        "independent.is_sum_free([2, 4], 3, 1, [1, 6])\n"
        "import importlib.util\n"
        "assert importlib.util.find_spec('klsumfree') is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'klsumfree'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests), str(src)])},
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_independent_oracle_on_small_cases():
    # by hand: {3, 4} is a largest (2,1)-sum-free set of Z_7; in Z_2 x Z_2 at (2,1)
    # the largest sum-free sets are the two-element sets without 0
    assert independent.max_size([7], 2, 1) == 2
    assert independent.by_size([2, 2], 2, 1) == {0: 1, 1: 3, 2: 3}
    assert independent.maximum_sets([2, 2], 2, 1) == [(1, 2), (1, 3), (2, 3)]
    # in Z_2, 3x = x for every x, so only the empty set is (3,1)-sum-free
    assert independent.maximum_sets([2], 3, 1) == [()]
    # {3, 4} is sum-free as above, and the empty set and {1} of Z_2 as just
    # said; in Z_5, 2 + 2 + 2 = 1, so {1, 2} is not (3,1)-sum-free
    assert independent.is_sum_free([7], 2, 1, [3, 4])
    assert independent.is_sum_free([2], 3, 1, [])
    assert not independent.is_sum_free([2], 3, 1, [1])
    assert not independent.is_sum_free([5], 3, 1, [1, 2])
    # adding (1, 1) to {(0, 1)} in Z_2 x Z_3 lands on (1, 2), index 5
    bits = 1 << 1
    for up, low, down in independent.translation_ops([2, 3])[4]:
        bits = (bits & low) << up | (bits & ~low) >> down
    assert bits == 1 << 5
