"""Longer checks, marked scale and left out of the default run: run them
with `python -m pytest -m scale`.

Most run a klsf command in a fresh interpreter (python -m klsumfree.cli)
through the klsf helper, with the environment and the time limit the
command needs, and check its exit code, its output or its --json
document.  Two run a Python child of their own instead: one reads the
child's ru_maxrss, and one passes a --set longer than one command-line
argument may be."""

from __future__ import annotations

import itertools
import json
import os
import re
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


def python(*argv: str, timeout: float, **env: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python *argv` in a fresh interpreter
    that imports the package from this checkout, run with env added to
    the environment; a run over timeout seconds fails."""
    out = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return out.returncode, out.stdout, out.stderr


def klsf(*args: str, timeout: float, **env: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `klsf *args`, as python() runs it."""
    return python("-m", "klsumfree.cli", *args, timeout=timeout, **env)


def klsf_json(*args: str, timeout: float, **env: str) -> dict:
    """The --json document of `klsf *args --json`; a nonzero exit fails."""
    code, out, err = klsf(*args, "--json", timeout=timeout, **env)
    assert code == 0, err
    return json.loads(out)


def json_layout(out: str) -> dict:
    """The document out holds, which must be laid out as json.dumps lays it out."""
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return doc


def set_text(members: list[list[int]]) -> str:
    """The --set text of a product group's members, given as coordinate rows."""
    return ",".join(":".join(map(str, m)) for m in members)


def assert_violation(doc: dict, size: int, n: int) -> None:
    """doc is verify's --json for a set of size elements of Z_n that is not
    (3,2)-sum-free, and its violation is a 3-tuple and a 2-tuple of equal sums."""
    assert len(doc["set"]) == size and not doc["sum_free"]
    kt, lt = doc["violation"]["k_tuple"], doc["violation"]["l_tuple"]
    assert (len(kt), len(lt)) == (3, 2)
    assert sum(c for c, in kt) % n == sum(c for c, in lt) % n


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


# Whole klsf commands in fresh processes: help and usage errors, the
# --json layout, sets of thousands of members, a large k and the
# exact-search limit.  A check with no time limit of its own gets 30 s.


@pytest.mark.parametrize(
    "command", [(), ("lambda",), ("witness",), ("verify",), ("alpha",), ("count",), ("enumerate",), ("scan",)]
)
def test_help_in_a_fresh_process(command):
    # the tier-1 suite calls main() in one process, which builds its
    # parser once; here each command builds it cold
    assert klsf(*command, "--help", timeout=30)[0] == 0


def test_usage_error_in_a_fresh_process():
    code, _, err = klsf("lambda", "--group", "10", "--k", "3", timeout=30)
    assert code == 2
    assert any(line.endswith("required: --l") for line in err.splitlines())


@pytest.mark.parametrize(
    "args",
    [
        "witness --group 2x8400 --k 3 --l 1",
        "witness --group 20000 --k 3 --l 2",
        "enumerate --group 3x3x3 --k 2 --l 1",
        "scan --n 2..12 --k 3 --l 1 --check bounds",
    ],
)
def test_json_layout_equals_json_dumps(args):
    # cli lays out the --json document itself; json re-encodes it here
    code, out, _ = klsf(*args.split(), "--json", timeout=30)
    assert code == 0
    json_layout(out)


ORBITS_RSS = """
import resource
from klsumfree.abelian import all_abelian_groups, automorphism_orbits
groups = all_abelian_groups(128, min_order=41)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for g in groups:
    automorphism_orbits(g)
print(len(groups), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_orbits_of_order_41_to_128_hold_no_transversal():
    # automorphisms enter as generators only: the orbits of these 179
    # groups keep no per-element maps, which took ~11 MB of ru_maxrss.
    # ru_maxrss is a process's high-water mark, so they are built in a
    # child of their own, and its growth is read there, in KB
    code, out, err = python("-c", ORBITS_RSS, timeout=30)
    assert code == 0, err
    groups, grown = map(int, out.split())
    assert groups == 179 and grown < 4096
    assert klsf_json("enumerate", "--group", "31", "--k", "3", "--l", "2", timeout=20)["count"] == 75


def test_violation_on_a_10001_element_set():
    # the odd residues of Z_20000 plus 2: no lift, so it is checked in
    # G, and find_violation builds 2A = A + A and 3A = 2A + A by
    # shifts, on sets larger than the tier-1 sets
    members = klsf_json("witness", "--group", "20000", "--k", "3", "--l", "2", timeout=30)["members"]
    code, out, _ = klsf(
        "verify", "--group", "20000", "--k", "3", "--l", "2",
        "--set", ",".join(map(str, members + [2])), "--json", timeout=30,
    )
    assert code == 1
    assert_violation(json.loads(out), 10001, 20000)


VERIFY_30001 = """
import sys
from klsumfree.cli import main
members = ",".join(map(str, list(range(0, 60000, 2)) + [1]))
sys.exit(main(["verify", "--group", "65536", "--k", "3", "--l", "2", "--set", members, "--json"]))
"""


def test_sumsets_of_a_30001_element_set_by_shifts():
    # the even residues below 60,000 of Z_65536 plus 1: no lift, so 2A,
    # 3A and the violation's layers are built in G, one shift per
    # element of the smaller operand.  Its --set text (about 180 KB) is
    # longer than Linux allows one argument (128 KiB), so a child builds
    # it and calls the klsf entry point, cli.main, with it
    code, out, err = python("-c", VERIFY_30001, timeout=30)
    assert code == 1, err
    assert_violation(json.loads(out), 30001, 65536)


def test_sum_free_check_at_a_large_k():
    # {1, 5} of Z_12 is no lift, so it is checked in G; its chain stops
    # at 3A, no larger than 2A, and 100000A is 2A translated by 99,999.
    # The time limit guards that stop, without which the chain would run
    # 99,999 sumsets
    out = klsf_json("verify", "--group", "12", "--k", "100000", "--l", "1", "--set", "1,5", timeout=30)
    assert out["sum_free"] is True


@pytest.mark.parametrize("drop, size", [(0, 5696), (1, 5695)])
def test_lifted_witness_verified_in_z_d_and_in_g(drop, size):
    # the witness is a lift from Z_3, so verify checks it in Z_3; less
    # one member it is no lift, and its 5,695 elements of a product
    # group are checked in G, which no tier-1 set reaches
    members = klsf_json("witness", "--group", "4x4272", "--k", "3", "--l", "1", timeout=30)["members"]
    out = klsf_json(
        "verify", "--group", "4x4272", "--k", "3", "--l", "1", "--set", set_text(members[drop:]),
        timeout=30,
    )
    assert (len(out["set"]), out["sum_free"]) == (size, True)


def test_witness_round_trip_on_a_three_factor_group():
    # witness lays its 7,296 members out by block and verify parses
    # them back column by column; both documents must be json's layout
    common = ("--group", "2x2x3648", "--k", "2", "--l", "1")
    code, out, _ = klsf("witness", *common, "--json", timeout=30)
    assert code == 0
    witness = json_layout(out)
    assert len(witness["members"]) == 7296
    code, out, _ = klsf("verify", *common, "--set", set_text(witness["members"]), "--json", timeout=30)
    assert code == 0
    verify = json_layout(out)
    assert verify["set"] == witness["members"] and verify["sum_free"] is True


def test_exact_search_over_the_limit_exits_3_and_names_the_flags():
    code, _, err = klsf("lambda", "--group", "64", "--k", "3", "--l", "1", "--method", "exact", timeout=30)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert re.match(r"error: .*--force", err)


def test_klsf_limit_exact_lifts_the_exact_search_limit():
    out = klsf_json(
        "lambda", "--group", "64", "--k", "3", "--l", "1", "--method", "exact", timeout=60,
        KLSF_LIMIT_EXACT="64",
    )
    assert out["exact"]["value"] == 16
