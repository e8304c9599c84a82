"""Exhaustive-search ground truth: maxima, counts, enumeration,
and progression maxima."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klsumfree import (
    KLParams,
    LimitExceededError,
    Subset,
    alpha_21,
    alpha_31,
    alpha_exact,
    best_witness,
    beta_exact,
    count_sum_free,
    enumerate_maximum,
    gamma_bounds,
    gamma_exact,
    is_kl_sum_free,
    lambda_bounds_general,
    lambda_cyclic_21,
    lambda_cyclic_31,
    lambda_cyclic_via_alpha,
    lambda_exact,
    make_group,
)
from klsumfree.abelian import divisors
from klsumfree.oracle import _ap_maxima, _count, _reduced, _search_max

import independent
from conftest import brute_force_max, groups_up_to, kl_pairs

KL21 = KLParams(2, 1)
KL31 = KLParams(3, 1)


def test_lambda_exact_examples():
    assert lambda_exact(make_group([7]), KL21).max_size == 2
    assert lambda_exact(make_group([10]), KL31).max_size == 2
    assert lambda_exact(make_group([2, 2]), KL21).max_size == 2


def test_lambda_exact_witness_is_sum_free():
    for g in [make_group([13]), make_group([2, 6]), make_group([3, 3])]:
        for kl in kl_pairs(4):
            res = lambda_exact(g, kl)
            assert res.witness.size == res.max_size
            assert is_kl_sum_free(res.witness, kl.k, kl.l)


def test_lambda_exact_matches_brute_force():
    for g in groups_up_to(9):
        for kl in kl_pairs(4):
            assert lambda_exact(g, kl).max_size == brute_force_max(g, kl.k, kl.l)


def test_lambda_exact_formula_smoke():
    for n in range(2, 17):
        g = make_group([n])
        assert lambda_exact(g, KL21).max_size == lambda_cyclic_21(n)
        assert lambda_exact(g, KL31).max_size == lambda_cyclic_31(n)


def test_lambda_exact_limit():
    with pytest.raises(LimitExceededError):
        lambda_exact(make_group([12]), KL21, limit=10)
    assert lambda_exact(make_group([12]), KL21, limit=None).max_size == 6
    # the message states the fact only: how to lift the limit is the caller's
    with pytest.raises(
        LimitExceededError, match=r"^exact search limited to order 40 \(requested 41\)$"
    ):
        lambda_exact(make_group([41]), KL21)
    with pytest.raises(
        LimitExceededError, match=r"^maximum enumeration limited to order 10 \(requested 12\)$"
    ):
        enumerate_maximum(make_group([12]), KL21, limit=10)
    sets = enumerate_maximum(make_group([12]), KL21, limit=None)
    assert sets == enumerate_maximum(make_group([12]), KL21, limit=12) and sets[0].size == 6


def test_lambda_exact_deterministic():
    a = lambda_exact(make_group([18]), KL31)
    b = lambda_exact(make_group([18]), KL31)
    assert a.max_size == b.max_size
    assert a.witness == b.witness
    assert a.nodes_explored == b.nodes_explored


def _pin(factors, k, l, *expected):
    return pytest.param(factors, k, l, *expected, id="x".join(map(str, factors)) + f"-{k}-{l}")


@pytest.mark.parametrize(
    "factors, k, l, nodes",
    [
        _pin([30], 2, 1, 53),
        _pin([36], 3, 1, 115),
        _pin([2, 2, 8], 2, 1, 35),
        _pin([3, 9], 5, 2, 86),
        _pin([2, 20], 2, 1, 66),
    ],
)
def test_lambda_exact_nodes_explored_pinned(factors, k, l, nodes):
    # the search visits exactly these sets; a change here is a change of
    # the traversal, not of the value
    assert lambda_exact(make_group(factors), KLParams(k, l)).nodes_explored == nodes


@pytest.mark.parametrize(
    "factors, k, l, value, nodes",
    [
        _pin([2, 2, 2, 6], 2, 1, 24, 322),
        _pin([2, 2, 12], 5, 2, 24, 103),
        _pin([64], 3, 1, 16, 4346),
        _pin([100], 3, 1, 25, 44209),
        _pin([4, 16], 2, 1, 32, 658),
        _pin([8, 8], 2, 1, 32, 65),
        _pin([2, 32], 2, 1, 32, 127),
        _pin([2, 2, 2, 2, 4], 2, 1, 32, 65),
        _pin([128], 2, 1, 64, 133),
    ],
)
def test_hard_instances_value_and_effort_pinned(factors, k, l, value, nodes):
    # beyond the default limit; the colouring bound keeps each to a few
    # thousand sets (Z_100 (3,1), the slowest, to 44,209), where the orbit
    # branches without it visit thousands (2x2x12) to millions (2x2x2x2x4)
    g, kl = make_group(factors), KLParams(k, l)
    res = lambda_exact(g, kl, limit=None)
    assert (res.max_size, res.nodes_explored) == (value, nodes)
    assert res.witness.size == value and is_kl_sum_free(res.witness, k, l)
    if g.is_cyclic:
        assert value == {(2, 1): lambda_cyclic_21, (3, 1): lambda_cyclic_31}[k, l](g.n)
    else:
        bounds = lambda_bounds_general(g, kl)
        assert bounds.lower == bounds.upper == value


# where the constructive witness is not maximum, the witness comes from the
# search itself; these are all such instances of order <= 40 at SEARCH_PAIRS
GAP_INSTANCES = [
    ([9], 5, 2), ([27], 5, 2), ([3, 9], 5, 2),
    ([16], 5, 1), ([2, 16], 5, 1), ([32], 5, 1),
    ([25], 6, 1),
]
SEARCH_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (5, 1), (6, 1)]


def test_search_max_matches_reference():
    instances = [(g, k, l) for g in groups_up_to(24) for k, l in SEARCH_PAIRS]
    instances += [(make_group(f), k, l) for f, k, l in GAP_INSTANCES if make_group(f).n > 24]
    gaps = []
    for g, k, l in instances:
        seed = tuple(best_witness(g, KLParams(k, l)).members.indices())
        size, witness, *_ = _search_max(g, k, l, seed, None)
        assert size == independent.max_size(list(g.factors), k, l), (g, k, l)
        if size == len(seed):
            assert witness == seed, (g, k, l)
        else:
            assert witness == independent.maximum_sets(list(g.factors), k, l)[0], (g, k, l)
            gaps.append((list(g.factors), k, l))
    assert sorted(gaps) == sorted(GAP_INSTANCES)


def test_unseeded_search_gives_the_first_maximum_set():
    # with no seed every search runs the witness pass: the first maximum
    # set in index order, () for the maximum 0
    for g in groups_up_to(24):
        for k, l in SEARCH_PAIRS:
            first = independent.maximum_sets(list(g.factors), k, l)[0]
            assert _search_max(g, k, l, (), None)[:2] == (len(first), first), (g, k, l)


def test_progress_best_never_drops_below_seed(monkeypatch):
    from klsumfree import oracle

    monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL", 16)
    g = make_group([30])
    seed = tuple(best_witness(g, KL21).members.indices())
    seen = []
    _search_max(g, 2, 1, seed, lambda *a: seen.append(a))
    assert seen
    bests = [best for _, _, best in seen]
    assert bests == sorted(bests) and bests[0] >= len(seed)


def test_lambda_exact_cache_hit_is_marked(monkeypatch):
    from klsumfree import oracle

    monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL", 16)
    g = make_group([40])
    oracle._EXACT_CACHE.pop((g.factors, 2, 1), None)
    calls = []
    first = lambda_exact(g, KL21, progress=lambda *a: calls.append(a))
    assert not first.cached and calls
    calls.clear()
    second = lambda_exact(g, KL21, progress=lambda *a: calls.append(a))
    # a hit searches nothing: no progress, and the first search's effort
    assert second.cached and not calls
    assert (second.max_size, second.witness, second.nodes_explored) == (
        first.max_size, first.witness, first.nodes_explored)


def test_lambda_exact_cache_grows_one_entry_per_miss():
    from klsumfree.oracle import _EXACT_CACHE

    g = make_group([2, 6])
    _EXACT_CACHE.clear()  # the suite's earlier searches could have filled it to its bound
    size = len(_EXACT_CACHE)
    lambda_exact(g, KL21)
    assert len(_EXACT_CACHE) == size + 1 and (g.factors, 2, 1) in _EXACT_CACHE
    lambda_exact(g, KL21)
    enumerate_maximum(g, KL21)  # reuses the cached search
    assert len(_EXACT_CACHE) == size + 1
    enumerate_maximum(g, KLParams(3, 1))  # a miss through enumerate adds one
    assert len(_EXACT_CACHE) == size + 2


def test_lambda_exact_cache_drops_its_oldest_entry_at_the_bound(monkeypatch):
    from klsumfree import oracle

    monkeypatch.setattr(oracle, "_EXACT_CACHE_MAX", 2)
    oracle._EXACT_CACHE.clear()
    g = make_group([12])
    first = lambda_exact(g, KL21)
    lambda_exact(g, KL31)
    assert lambda_exact(g, KL21).cached  # two entries: nothing dropped yet
    lambda_exact(g, KLParams(4, 1))  # the third drops the oldest, (2, 1)
    assert list(oracle._EXACT_CACHE) == [(g.factors, 3, 1), (g.factors, 4, 1)]
    again = lambda_exact(g, KL21)  # searched again, and (3, 1) drops
    assert not again.cached
    assert (again.max_size, again.witness, again.nodes_explored) == (
        first.max_size, first.witness, first.nodes_explored)
    assert list(oracle._EXACT_CACHE) == [(g.factors, 4, 1), (g.factors, 2, 1)]
    oracle._EXACT_CACHE.clear()


def test_count_examples():
    res = count_sum_free(make_group([7]), KL21)
    assert res.by_size[0] == 1
    assert res.total >= 2 ** lambda_exact(make_group([7]), KL21).max_size
    assert res.total == sum(res.by_size.values())


def test_count_singletons_formula():
    for g in groups_up_to(16):
        for kl in kl_pairs(4):
            res = count_sum_free(g, kl)
            killed = sum(
                1 for i in range(g.n) if g.scale_index(kl.diff, i) == 0
            )
            assert res.by_size.get(1, 0) == g.n - killed


def test_count_matches_brute_force():
    for g in groups_up_to(8):
        for kl in kl_pairs(4):
            res = count_sum_free(g, kl)
            by_size: dict[int, int] = {}
            for r in range(g.n + 1):
                for combo in itertools.combinations(range(g.n), r):
                    if is_kl_sum_free(Subset.from_indices(g, combo), kl.k, kl.l):
                        by_size[r] = by_size.get(r, 0) + 1
            assert res.by_size == by_size


def test_searches_at_a_large_k_run_at_the_reduced_pair():
    # for k >= n, kA = k'A with k' = n + (k - n) mod v; the search and the
    # count give the same value, witness, by_size and effort at (k, l) as
    # at the reduced pair, and that pair (larger first) is what the entry
    # points run at
    checked = 0
    for g in groups_up_to(10):
        n, v = g.n, g.v
        for k, l in [(n, 1), (n + 1, 2), (n + v + 1, 1), (2 * n + 3, n + 1), (2 * n + 1, n + v - 1)]:
            kr, lr = _reduced(g, KLParams(k, l))
            assert kr >= lr and kr < n + v and (kr - lr) % v in ((k - l) % v, (l - k) % v)
            seed = tuple(best_witness(g, KLParams(k, l)).members.indices())
            assert _search_max(g, k, l, seed, None) == _search_max(g, kr, lr, seed, None), (g, k, l)
            assert _count(g, k, l) == _count(g, kr, lr), (g, k, l)
            checked += 1
    assert checked == 5 * len(groups_up_to(10))


def test_searches_at_a_huge_k_match_brute_force():
    huge = 10**20 + 3
    for g in groups_up_to(8):
        for l in (1, 2, g.n + 1):
            kl = KLParams(huge, l)
            by_size: dict[int, int] = {}
            for bits in range(1 << g.n):
                if is_kl_sum_free(Subset(g, bits), huge, l):
                    by_size[bits.bit_count()] = by_size.get(bits.bit_count(), 0) + 1
            assert dict(count_sum_free(g, kl).by_size) == dict(sorted(by_size.items())), (g, l)
            lam = max(by_size)
            assert lambda_exact(g, kl).max_size == lam, (g, l)
            sets = enumerate_maximum(g, kl)
            assert len(sets) == (by_size[lam] if lam else 1), (g, l)
            assert all(s.size == lam and is_kl_sum_free(s, huge, l) for s in sets), (g, l)


def test_count_limit():
    with pytest.raises(LimitExceededError):
        count_sum_free(make_group([12]), KL21, limit=10)
    with pytest.raises(
        LimitExceededError, match=r"^subset counting limited to order 28 \(requested 29\)$"
    ):
        count_sum_free(make_group([29]), KL21)
    g = make_group([12])
    assert count_sum_free(g, KL21, limit=None) == count_sum_free(g, KL21, limit=12)


def test_count_by_size_is_read_only():
    g = make_group([10])
    res = count_sum_free(g, KL21)
    before = dict(res.by_size)
    with pytest.raises(TypeError):
        res.by_size[0] = 999
    again = count_sum_free(g, KL21)
    assert again.by_size == before and before[0] == 1 and again.total == 70


def test_enumerate_examples():
    sets = enumerate_maximum(make_group([3]), KL21)
    assert [sorted(s.indices()) for s in sets] == [[1], [2]]
    sets = enumerate_maximum(make_group([2, 2]), KLParams(3, 1))
    assert len(sets) == 1 and sets[0].size == 0  # degenerate: only the empty set


def test_enumerate_is_complete_and_sum_free():
    for g in groups_up_to(10):
        for kl in kl_pairs(3):
            lam = lambda_exact(g, kl).max_size
            sets = enumerate_maximum(g, kl)
            if lam == 0:
                assert len(sets) == 1 and sets[0].size == 0
                continue
            seen = {tuple(sorted(s.indices())) for s in sets}
            assert len(seen) == len(sets)
            for s in sets:
                assert s.size == lam and is_kl_sum_free(s, kl.k, kl.l)
            expected = {
                combo
                for combo in itertools.combinations(range(g.n), lam)
                if is_kl_sum_free(Subset.from_indices(g, combo), kl.k, kl.l)
            }
            assert seen == expected


def test_enumerate_lexicographic_order():
    sets = enumerate_maximum(make_group([16]), KL21)
    keys = [tuple(sorted(s.indices())) for s in sets]
    assert keys == sorted(keys)


def test_sum_free_family_downward_closed():
    for g, kl in [(make_group([10]), KL31), (make_group([2, 4]), KL21)]:
        family = set()
        for bits in range(1 << g.n):
            s = Subset(g, bits)
            if is_kl_sum_free(s, kl.k, kl.l):
                family.add(bits)
        assert len(family) == count_sum_free(g, kl).total
        for bits in family:
            probe = bits
            while probe:
                low = probe & -probe
                assert bits ^ low in family
                probe ^= low


@pytest.mark.parametrize(
    "factors, k, l, count, digest",
    [
        _pin([34], 3, 1, 128, "ebe83ed179efbb10b70707f44e7ed698e6e3fe8c4ec14c378dcf182f4e85e4d5"),
        _pin([2, 16], 3, 1, 100, "93943a69d1767883b1a5d540c4e5b297a43d72301eab4ebbb003589cf36020dd"),
        _pin([2] * 5, 5, 2, 31, "c115c5ba49b42f893881a896d8e2a0b321098a7c4e2eab70cb76a10f88959dff"),
        _pin([2] * 5, 2, 1, 31, "c115c5ba49b42f893881a896d8e2a0b321098a7c4e2eab70cb76a10f88959dff"),
        _pin([31], 3, 2, 75, "da547bda2d11ac3204918a53dd9a33902021fe75020ffc02a89e2ce8784b285e"),
        _pin([33], 4, 1, 175, "2218f12013c7a260fd63fde54de12a598b0e43806f66294f6afc142ab6d56ce7"),
    ],
)
def test_enumerate_pinned_on_large_orbits(factors, k, l, count, digest):
    # most sets here are images of another under an automorphism, so the
    # closure under the generators supplies them (on the cyclic groups it
    # needs only the few unit scalings kept); the digest is of the index
    # lists in order
    sets = enumerate_maximum(make_group(factors), KLParams(k, l))
    lists = json.dumps([list(s.indices()) for s in sets])
    assert (len(sets), hashlib.sha256(lists.encode()).hexdigest()) == (count, digest)


@pytest.mark.parametrize(
    "factors, k, l, total, nodes",
    [_pin([8], 2, 1, 30, 15), _pin([2, 8], 2, 1, 985, 335), _pin([32], 2, 1, 146648, 48738)],
)
def test_count_effort_pinned_and_repeated(factors, k, l, total, nodes):
    g, kl = make_group(factors), KLParams(k, l)
    first = count_sum_free(g, kl, limit=None)
    again = count_sum_free(g, kl, limit=None)
    # the walks visit only the sets that contain an orbit's first element
    assert (first.total, first.nodes_explored) == (total, nodes)
    # counts are not cached: a second call walks again, to the same effort
    assert again.nodes_explored == nodes
    assert again == first and again.by_size == first.by_size


def test_count_rejects_a_partition_that_is_not_the_orbits(monkeypatch):
    from klsumfree import oracle

    # {1, ..., 7} is not an orbit of Aut(Z_8): the weights stop dividing
    monkeypatch.setattr(oracle, "automorphism_orbits", lambda g: ((0,), tuple(range(1, g.n))))
    with pytest.raises(RuntimeError, match="not integral"):
        oracle._count(make_group([8]), 2, 1)


def _no_level_complete(extend, level, i=0, layers=None):
    """A chain that breaks at the first element it is given: it reports no
    level complete but one its caller has already joined to the end (the
    empty level), and tests no pair."""
    return i, layers


def test_complete_levels_tally_as_the_walk(monkeypatch):
    # the count tallies a complete level (the chosen set plus all of it
    # sum-free) by binomials; with no level reported complete, its split
    # includes and excludes each candidate in turn, and they must give the
    # same counts and effort
    from klsumfree import oracle

    def results():
        return [oracle._count(g, k, l) for g in groups_up_to(24) for k, l in SEARCH_PAIRS]

    bulk = results()
    monkeypatch.setattr(oracle, "_chain", _no_level_complete)
    assert results() == bulk


def _count_extend_calls(monkeypatch) -> list[int]:
    """[calls]: from now on, calls counts every extend the oracle makes."""
    from klsumfree import oracle

    calls = [0]
    make_extend = oracle._make_extend

    def counting_make_extend(g, k, l):
        extend = make_extend(g, k, l)

        def counted(layers, x):
            calls[0] += 1
            return extend(layers, x)

        return counted

    monkeypatch.setattr(oracle, "_make_extend", counting_make_extend)
    return calls


@pytest.mark.parametrize(
    "factors, k, l, walked, split",
    [_pin([32], 2, 1, 57884, 11917), _pin([2] * 5, 3, 2, 598748, 56952)],
)
def test_complete_levels_save_extend_calls(monkeypatch, factors, k, l, walked, split):
    # extend calls of one count: the split's chains and pair tests, and,
    # with no level reported complete, the pair tests of a walk that
    # visits every set
    from klsumfree import oracle

    calls = _count_extend_calls(monkeypatch)
    g, kl = make_group(factors), KLParams(k, l)
    first = count_sum_free(g, kl, limit=None)
    assert calls[0] == split
    calls[0] = 0
    monkeypatch.setattr(oracle, "_chain", _no_level_complete)
    assert count_sum_free(g, kl, limit=None).nodes_explored == first.nodes_explored
    assert calls[0] == walked


@pytest.mark.parametrize(
    "entry, factors, k, l, calls",
    [
        pytest.param(lambda_exact, [61], 2, 1, 199425, id="lambda-61-2-1"),
        pytest.param(lambda_exact, [4, 16], 2, 1, 9559, id="lambda-4x16-2-1"),
        pytest.param(enumerate_maximum, [2, 16], 3, 1, 1857, id="enumerate-2x16-3-1"),
        pytest.param(enumerate_maximum, [2] * 5, 2, 1, 5996, id="enumerate-2x2x2x2x2-2-1"),
        pytest.param(enumerate_maximum, [34], 3, 1, 2872, id="enumerate-34-3-1"),
    ],
)
def test_walk_extend_calls_pinned(monkeypatch, entry, factors, k, l, calls):
    # extend calls of one coloured walk: the colouring's pair tests, the
    # child layers, the branch roots and, for the enumeration, the chains
    # of the levels that hold exactly a maximum set's remaining
    # candidates; a change that adds pair tests moves
    # these before it moves a time.  The enumeration's lambda comes from
    # the cache, so only its own walk is counted
    from klsumfree import oracle

    g, kl = make_group(factors), KLParams(k, l)
    monkeypatch.setattr(oracle, "_EXACT_CACHE", {})
    if entry is enumerate_maximum:
        lambda_exact(g, kl, limit=None)
    made = _count_extend_calls(monkeypatch)
    entry(g, kl, limit=None)
    assert made[0] == calls


@pytest.mark.parametrize(
    "factors, k, l, calls", [_pin([15], 2, 1, 182), _pin([21], 3, 1, 318)]
)
def test_witness_pass_extend_calls_pinned(monkeypatch, factors, k, l, calls):
    # with no seed every search also runs the witness pass: extend calls
    # of the coloured walk plus the index-order first-hit search, whose
    # sibling cut stops a level as soon as its remaining candidates cannot
    # reach lambda (a cut one candidate later makes 185 and 321)
    made = _count_extend_calls(monkeypatch)
    _search_max(make_group(factors), k, l, (), None)
    assert made[0] == calls


def _run_with_recursion_limit(frames: int, call: str):
    """Run `print(call)` in a fresh interpreter whose recursion limit sits
    frames above the caller's depth: (exit code, stdout, stderr).  A fresh
    interpreter, because under pytest on Python 3.11 C-level calls count
    toward the limit."""
    from klsumfree import oracle

    src = str(Path(oracle.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from klsumfree import KLParams, count_sum_free, lambda_exact, make_group\n"
        "frame, depth = sys._getframe(), 0\n"
        "while frame is not None:\n"
        "    frame, depth = frame.f_back, depth + 1\n"
        f"sys.setrecursionlimit(depth + {frames})\n"
        f"print({call})\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    return out.returncode, out.stdout, out.stderr


def test_count_recursion_nests_no_deeper_than_the_largest_set():
    # the split recurses only to include an element, and loops to exclude
    # one, so its calls nest at most lambda deep: in a fresh interpreter,
    # the Z_2^5 (3,2) count (lambda 16) finishes with the recursion limit
    # 16 + 4 frames above its caller
    assert lambda_exact(make_group([2] * 5), KLParams(3, 2)).max_size == 16
    call = "count_sum_free(make_group([2] * 5), KLParams(3, 2), limit=None).total"
    assert _run_with_recursion_limit(16 + 4, call) == (0, "1942306\n", "")


def test_search_recursion_nests_one_frame_per_depth():
    # the walk makes one call per depth: Z_61 (2,1), whose seed is already
    # maximum (lambda 20), so no witness search runs, finishes with the
    # recursion limit 20 + 8 frames above its caller; it needs 20 in all,
    # where a walk of two frames per depth needs 35
    call = "lambda_exact(make_group([61]), KLParams(2, 1), limit=None).max_size"
    assert _run_with_recursion_limit(20 + 8, call) == (0, "20\n", "")


# ---------------------------------------------------------------------------
# progression maxima

def test_alpha_exact_examples():
    assert alpha_exact(10, KL31) == 2
    assert beta_exact(15, KL21) == 5
    assert alpha_exact(1, KL31) == 0


def test_alpha_exact_matches_formulas_smoke():
    for n in range(2, 101):
        assert alpha_exact(n, KL21) == alpha_21(n)
        assert alpha_exact(n, KL31) == alpha_31(n)


def test_progression_maxima_match_subset_brute_force():
    # independent check against literal progression enumeration with the
    # full subset predicate, split by difference class
    from math import gcd

    for n in range(2, 13):
        for kl in kl_pairs(4):
            g = make_group([n])
            best = [0, 0, 0]  # overall, shared-factor difference, coprime
            for start in range(n):
                for diff in range(n):
                    members = set()
                    for c in range(n):
                        members.add((start + c * diff) % n)
                        s = Subset.from_indices(g, members)
                        if s.size != c + 1:
                            break
                        if is_kl_sum_free(s, kl.k, kl.l):
                            best[0] = max(best[0], s.size)
                            if gcd(diff, n) > 1:
                                best[1] = max(best[1], s.size)
                            else:
                                best[2] = max(best[2], s.size)
            assert alpha_exact(n, kl) == best[0]
            assert beta_exact(n, kl) == best[1]
            assert gamma_exact(n, kl) == best[2]


def per_pair_ap_maxima(n, kl):
    """(alpha, beta, gamma) from the congruence cutoff of every (start a,
    difference q) pair, one pair at a time: the progression from a is safe
    at length c+1 iff i*q = -(k-l)a (mod n) has no solution in [-l*c, k*c].
    """
    from math import gcd

    k, l = kl.k, kl.l
    best = [0, 0, 0]  # overall, shared-factor difference, coprime
    for q in range(n):
        g = gcd(q, n)
        period = n // g
        inv = pow(q // g, -1, period)
        longest = 0
        for a in range(n):
            r = (-(k - l) * a) % n
            if r % g:
                size = period  # no solution: the whole coset is safe
            else:
                i0 = (r // g) * inv % period  # the solutions are i0 + period*Z
                size = min(-(-i0 // k), -(-(period - i0) // l), period)
            longest = max(longest, size)
        cls = 1 if g > 1 else 2
        best[0] = max(best[0], longest)
        best[cls] = max(best[cls], longest)
    return tuple(best)


def scan_ap_maxima(n, k, l):
    """(alpha, beta, gamma) from the oracle's per-divisor congruence, with
    every allowed cutoff i0 of a divisor's period tried in turn: O(sigma(n))
    steps, the reference for the oracle's one cutoff per divisor."""
    from math import gcd

    dd = gcd(n, k - l)
    beta = gamma = 0
    for g in divisors(n):
        period = n // g
        if dd % g:
            best = period
        else:
            best = max(
                min(-(-i0 // k), -(-(period - i0) // l))
                for i0 in range(0, period, dd // g)
            )
        if g == 1:
            gamma = best
        else:
            beta = max(beta, best)
    return max(beta, gamma), beta, gamma


def test_progression_maxima_match_cutoff_scan():
    # the uncached function: every (n, k, l) is worked out afresh
    for n in range(1, 401):
        for kl in kl_pairs(6):
            assert _ap_maxima.__wrapped__(n, kl.k, kl.l) == scan_ap_maxima(n, kl.k, kl.l), (n, kl)


def test_alpha_exact_matches_closed_forms_at_large_orders():
    # orders the cutoff scan could not reach quickly: a run of consecutive
    # orders, and orders with many divisors, prime powers and a prime
    for n in [*range(10**6, 10**6 + 300), 720720, 997920, 2**20, 3**12, 999983]:
        assert alpha_exact(n, KL21) == alpha_21(n), n
        assert alpha_exact(n, KL31) == alpha_31(n), n


def test_progression_maxima_match_per_pair_reference():
    # the oracle reduces the (a, q) pairs to one cutoff per divisor of n;
    # this checks that reduction against every pair
    for n in range(2, 101):
        for kl in kl_pairs(5):
            got = (alpha_exact(n, kl), beta_exact(n, kl), gamma_exact(n, kl))
            assert got == per_pair_ap_maxima(n, kl), (n, kl)


def test_gamma_exact_within_bounds():
    for n in range(2, 101):
        for kl in kl_pairs(4):
            lo, hi = gamma_bounds(n, kl)
            assert lo <= gamma_exact(n, kl) <= hi


def test_alpha_is_max_of_beta_gamma():
    for n in range(2, 151):
        for kl in kl_pairs(5):
            assert alpha_exact(n, kl) == max(beta_exact(n, kl), gamma_exact(n, kl))


def test_progression_maxima_cache_is_bounded():
    _ap_maxima.cache_clear()
    for n in range(2, 1100):  # 1098 keys
        alpha_exact(n, KL21)
    info = _ap_maxima.cache_info()
    assert (info.maxsize, info.currsize) == (1024, 1024)
    assert alpha_exact(50, KL21) == 25  # an evicted key is computed again


def test_progression_maxima_take_no_limit():
    # one cutoff per divisor of n, so no order needs a limit; n < 1 is
    # still refused
    for search, value in zip((alpha_exact, beta_exact, gamma_exact), _ap_maxima(2001, 2, 1)):
        assert search(2001, KL21) == value
        with pytest.raises(TypeError):
            search(50, KL21, limit=None)
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            search(0, KL21)


def test_exact_alpha_route_past_order_2000():
    # lambda(Z_n) as the maximum over d | n of alpha(Z_d) * n/d, with every
    # alpha from the oracle, against the formula route and the closed forms
    for n in range(2001, 2101):
        for kl, closed in ((KL21, lambda_cyclic_21), (KL31, lambda_cyclic_31)):
            exact = lambda_cyclic_via_alpha(n, kl, "exact")
            assert exact == lambda_cyclic_via_alpha(n, kl) == closed(n), (n, kl)


def test_alpha_exact_matches_closed_forms_full_range():
    for n in range(2, 501):
        assert alpha_exact(n, KL21) == alpha_21(n)
        assert alpha_exact(n, KL31) == alpha_31(n)


def test_progress_callback_fires(monkeypatch):
    from klsumfree import oracle

    monkeypatch.setattr(oracle, "_PROGRESS_INTERVAL", 256)
    seen = []
    g = make_group([30])
    _search_max(g, 2, 1, (), lambda nodes, depth, best: seen.append((nodes, depth, best)))
    assert seen, "expected progress reports on an unseeded search"
    nodes, depth, best = seen[0]
    assert nodes % 256 == 0 and depth >= 1 and best >= 0


# ---------------------------------------------------------------------------
# equivalence sweeps: digests of every value, witness, effort counter and
# enumerated list the oracle gives on the default instances; a change that
# keeps the search tree keeps these bytes

def _sweep_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_lambda_sweep_digest():
    # 469 instances: every group of order <= 40 at SEARCH_PAIRS; the cache
    # is bypassed so every search walks
    rows = []
    for g in groups_up_to(40):
        for k, l in SEARCH_PAIRS:
            seed = tuple(best_witness(g, KLParams(k, l)).members.indices())
            size, witness, nodes = _search_max(g, k, l, seed, None)
            rows.append([list(g.factors), k, l, size, list(witness), nodes])
    assert len(rows) == 469
    assert _sweep_digest(rows) == "ce1c6e64503965206166e76073b48667da17a613d49bb6b354ce7aab7360de71"


def test_enumerate_sweep_digest():
    # 427 instances: every group of order <= 36 at SEARCH_PAIRS
    rows = [
        [list(g.factors), k, l, [s.indices() for s in enumerate_maximum(g, KLParams(k, l))]]
        for g in groups_up_to(36)
        for k, l in SEARCH_PAIRS
    ]
    assert len(rows) == 427
    assert _sweep_digest(rows) == "17591c8c5cb2e74bf633d13ebf6994cc6f76f3a43093b38aea0535435fcf2e31"


def test_count_sweep_digest():
    # 308 instances: every group of order <= 28 at SEARCH_PAIRS
    rows = []
    for g in groups_up_to(28):
        for k, l in SEARCH_PAIRS:
            res = count_sum_free(g, KLParams(k, l))
            by_size = list(res.by_size.items())
            rows.append([list(g.factors), k, l, res.total, by_size, res.nodes_explored])
    assert len(rows) == 308
    assert _sweep_digest(rows) == "a83042493c844484e95e533dd438d97ada4fc40d29707fe1fc36ccd9d89f9cad"
