"""Longer checks, marked scale and left out of the default run: run them
with `python -m pytest -m scale`.

Each runs `klsf` in a fresh interpreter (python -m klsumfree.cli), with the
environment and the time limit the command needs, and reads its --json
document."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

import klsumfree
from klsumfree import KLParams, enumerate_maximum, make_group

import independent

pytestmark = pytest.mark.scale

SRC = str(Path(klsumfree.__file__).resolve().parents[1])


def klsf_json(*args: str, timeout: float, **env: str) -> dict:
    """The --json document of `klsf *args --json`, run with env added to
    the environment; a nonzero exit or a run over timeout seconds fails."""
    out = subprocess.run(
        [sys.executable, "-m", "klsumfree.cli", *args, "--json"],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(out.stdout)


def small_sizes(factors: list[int], k: int, l: int) -> tuple[int, int]:
    """How many (k,l)-sum-free sets have one and two elements, by
    independent.make_extend on every element and every pair."""
    extend = independent.make_extend(factors, k, l)
    empty = [1] + [0] * k
    singles = {x: extend(empty, x) for x in range(prod(factors))}
    ones = [x for x, layers in singles.items() if layers is not None]
    pairs = sum(extend(singles[x], y) is not None for x, y in itertools.combinations(ones, 2))
    return len(ones), pairs


def test_orbit_weighted_count_of_z2_5():
    out = klsf_json(
        "count", "--group", "2x2x2x2x2", "--k", "2", "--l", "1", timeout=60, KLSF_LIMIT_COUNT="32"
    )
    assert out["total"] == 2534530


@pytest.mark.parametrize(
    "group, k, l, total", [("36", 2, 1, 528417), ("2x2x2x2x2", 3, 2, 1942306)]
)
def test_bulk_tallied_counts_past_the_default_limit(group, k, l, total):
    # the count tallies the sets of a complete level by binomials instead
    # of visiting them; these totals are those of a walk that visits every set
    out = klsf_json(
        "count", "--group", group, "--k", str(k), "--l", str(l), timeout=30, KLSF_LIMIT_COUNT="36"
    )
    assert out["total"] == total


def test_count_of_order_64_by_the_split():
    # 2x2x2x2x4 at (3,2), which no walk of every set reaches: sizes 1 and 2
    # checked against the independent oracle's extend, the largest size
    # against the enumeration, and the total recorded when the split first
    # reached it, with no independent check
    out = klsf_json(
        "count", "--group", "2x2x2x2x4", "--k", "3", "--l", "2", timeout=30, KLSF_LIMIT_COUNT="64"
    )
    by_size = out["by_size"]
    assert (by_size["1"], by_size["2"]) == small_sizes([2, 2, 2, 2, 4], 3, 2) == (63, 1921)
    sets = enumerate_maximum(make_group([2, 2, 2, 2, 4]), KLParams(3, 2), limit=None)
    assert max(map(int, by_size)) == sets[0].size == 32
    assert by_size["32"] == len(sets) == 31
    assert out["total"] == 133115336515


@pytest.mark.parametrize("group, k, l", [("2x2x2x6", 2, 1), ("2x2x12", 5, 2)])
def test_exact_search_on_two_hard_instances(group, k, l):
    out = klsf_json(
        "lambda", "--group", group, "--k", str(k), "--l", str(l), "--method", "exact", "--force",
        timeout=60,
    )
    assert out["exact"]["value"] == 24


@pytest.mark.parametrize(
    "group, value", [("2x2x2x2x4", 32), ("128", 64), ("2x2x2x2x2x2x2", 64), ("3x3x3x3", 27)]
)
def test_colour_bounded_exact_search_on_order_64_and_128(group, value):
    out = klsf_json(
        "lambda", "--group", group, "--k", "2", "--l", "1", "--method", "exact", "--force",
        timeout=20,
    )
    assert out["exact"]["value"] == value


@pytest.mark.parametrize(
    "group, k, l, max_size, count",
    [("64", 3, 1, 16, 122), ("2x2x2x2x2x2", 2, 1, 32, 63), ("3x3x3x3", 2, 1, 27, 80)],
)
def test_orbit_branched_enumeration_on_order_64(group, k, l, max_size, count):
    out = klsf_json(
        "enumerate", "--group", group, "--k", str(k), "--l", str(l), "--force", timeout=20
    )
    assert (out["max_size"], out["count"]) == (max_size, count)


def test_first_fit_colouring_search_on_order_100():
    out = klsf_json(
        "lambda", "--group", "10x10", "--k", "3", "--l", "1", "--method", "exact", "--force",
        timeout=30,
    )
    assert (out["exact"]["value"], out["exact"]["nodes_explored"]) == (20, 195649)


def test_exact_search_on_a_cyclic_group_of_order_97():
    # every move of a cyclic group has no folds, so this search runs
    # extend's loop without the fold step throughout
    out = klsf_json(
        "lambda", "--group", "97", "--k", "2", "--l", "1", "--method", "exact", "--force",
        timeout=30,
    )
    assert (out["exact"]["value"], out["exact"]["nodes_explored"]) == (32, 578003)


def test_first_fit_colouring_enumeration_on_order_128():
    out = klsf_json(
        "enumerate", "--group", "2x2x2x2x2x2x2", "--k", "2", "--l", "1", "--force", timeout=40
    )
    assert (out["max_size"], out["count"]) == (64, 127)
