"""Command-line surface: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klsumfree
from klsumfree import abelian, cli
from klsumfree.cli import main
from klsumfree.formulas import alpha_31
from klsumfree.sumset import Subset
from klsumfree.witness import members_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_lambda_all(capsys):
    code, doc, _ = run_json(capsys, "lambda", "--group", "10", "--k", "3", "--l", "1")
    assert code == 0
    assert doc["schema"] == "klsumfree/1"
    assert doc["formula"] == 2
    assert doc["bounds"]["lower"] == 2 and doc["bounds"]["upper"] == 5
    assert doc["exact"]["value"] == 2


def test_lambda_exact_non_cyclic(capsys):
    code, doc, _ = run_json(
        capsys, "lambda", "--group", "2x4", "--k", "2", "--l", "1", "--method", "exact"
    )
    assert code == 0 and doc["exact"]["value"] == 4


def test_lambda_degenerate_note(capsys):
    code, doc, _ = run_json(capsys, "lambda", "--group", "4", "--k", "5", "--l", "1")
    assert code == 0
    assert doc["bounds"]["lower"] == 0 and doc["bounds"]["upper"] == 0
    assert "note" in doc


def test_lambda_formula_unavailable_exits_2(capsys):
    code, out, err = run(
        capsys, "lambda", "--group", "12", "--k", "4", "--l", "2", "--method", "formula"
    )
    assert code == 2
    assert "bounds" in err


def test_lambda_bad_group_exits_2(capsys):
    code, _, err = run(capsys, "lambda", "--group", "2x3", "--k", "2", "--l", "1")
    assert code == 2 and err == "error: 2 does not divide 3: not an invariant-factor chain\n"


def test_lambda_limit_exits_3(capsys):
    code, _, err = run(
        capsys,
        "lambda", "--group", "30", "--k", "2", "--l", "1",
        "--method", "exact", "--limit", "10",
    )
    assert code == 3
    assert err == (
        "error: exact search limited to order 10 (requested 30); use --limit N or --force\n"
    )


def test_enumerate_limit_exits_3(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "41", "--k", "2", "--l", "1")
    assert code == 3 and out == ""
    assert err == (
        "error: maximum enumeration limited to order 40 (requested 41); use --limit N or --force\n"
    )


def test_lambda_all_over_limit_notes_the_flags(capsys):
    argv = ["lambda", "--group", "30", "--k", "2", "--l", "1", "--limit", "10"]
    note = "exact search limited to order 10 (requested 30); use --limit N or --force"
    code, doc, err = run_json(capsys, *argv)
    assert code == 0 and err == ""
    assert doc["exact"] is None and doc["exact_note"] == note
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == f"exact: skipped ({note})"


def test_limit_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KLSF_LIMIT_EXACT", "5")
    code, _, _ = run(
        capsys, "lambda", "--group", "30", "--k", "2", "--l", "1", "--method", "exact"
    )
    assert code == 3
    # explicit flag wins over the environment
    code, _, _ = run(
        capsys,
        "lambda", "--group", "30", "--k", "2", "--l", "1",
        "--method", "exact", "--limit", "30",
    )
    assert code == 0
    # --force wins over the environment and over the flag
    for extra in ([], ["--limit", "10"]):
        code, doc, _ = run_json(
            capsys,
            "lambda", "--group", "30", "--k", "2", "--l", "1",
            "--method", "exact", *extra, "--force",
        )
        assert code == 0 and doc["exact"]["value"] == 15


def test_verify_positive(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "8", "--set", "1,3,5,7", "--k", "2", "--l", "1"
    )
    assert code == 0 and "is (2,1)-sum-free" in out


def test_verify_negative_prints_identity(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--group", "5", "--set", "1,2", "--k", "3", "--l", "1"
    )
    assert code == 1
    assert doc["sum_free"] is False
    ktuple, ltuple = doc["violation"]["k_tuple"], doc["violation"]["l_tuple"]
    assert len(ktuple) == 3 and len(ltuple) == 1
    ksum = sum(c[0] for c in ktuple) % 5
    assert ksum == ltuple[0][0] % 5


def test_verify_product_group_set_syntax(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "2x4", "--set", "0:1,1:1", "--k", "2", "--l", "1"
    )
    assert code == 0


def test_verify_bad_set_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--group", "2x4", "--set", "1,2", "--k", "2", "--l", "1"
    )
    assert code == 2 and "coordinates" in err


def test_verify_rejects_out_of_range_coordinates(capsys):
    # a coordinate outside [0, d) is an error, not reduced mod d (12,-1 is not {2,9} in Z_10)
    code, out, err = run(
        capsys, "verify", "--group", "10", "--k", "2", "--l", "1", "--set", "12,-1", "--json"
    )
    assert code == 2 and out == "" and "outside [0, 10)" in err
    assert err.startswith("error: element '12': ")  # names the offending element
    code, out, err = run(
        capsys, "verify", "--group", "2x4", "--k", "2", "--l", "1", "--set", "0:5"
    )
    assert code == 2 and out == "" and "outside [0, 4)" in err
    assert err.startswith("error: element '0:5': ")  # names the offending element


@pytest.mark.parametrize(
    "group, text, bad, reason",
    [
        ("10", "3,10", "10", "coordinate 10 is outside [0, 10)"),
        ("2x4", "1:3,0:4", "0:4", "coordinate 4 is outside [0, 4)"),  # would wrap to 1:0
        ("2x4", "1:3,2:0", "2:0", "coordinate 2 is outside [0, 2)"),
        ("2x2x6", "0:0:1,1:1:6", "1:1:6", "coordinate 6 is outside [0, 6)"),
    ],
)
def test_verify_rejects_a_coordinate_equal_to_its_modulus(capsys, group, text, bad, reason):
    code, out, err = run(capsys, "verify", "--group", group, "--k", "2", "--l", "1", "--set", text)
    assert code == 2 and out == ""
    assert err == f"error: element '{bad}': coordinates {tuple(map(int, bad.split(':')))} do not fit group {group}: {reason}\n"


def _elements_4x5000(count):
    return [f"{i % 4}:{i // 4}" for i in range(count)]


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("1:2:3", "do not fit group 4x5000, which needs 2"),
        ("1:x", "invalid literal for int() with base 10: 'x'"),
        ("1:-3", "coordinate -3 is outside [0, 5000)"),
        ("1:5000", "coordinate 5000 is outside [0, 5000)"),
    ],
)
def test_verify_names_the_first_bad_element_of_a_long_set(capsys, bad, reason):
    # 10,000 elements with this one in the middle, and another bad one
    # after it: the first in list order is named
    elements = _elements_4x5000(10000)
    elements[5000], elements[7000] = bad, "9:9"
    code, out, err = run(
        capsys, "verify", "--group", "4x5000", "--k", "3", "--l", "1", "--set", ",".join(elements)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: element '{bad}': ") and reason in err
    assert err.count("\n") == 1


def test_verify_set_skips_empty_items(capsys):
    elements = _elements_4x5000(10000)
    args = ("verify", "--group", "4x5000", "--k", "3", "--l", "1", "--set")
    code, doc, _ = run_json(capsys, *args, ",".join(elements))
    assert code == 1 and len(doc["set"]) == 10000
    text = ",".join(elements[:3000]) + ",," + ",".join(elements[3000:]) + ","
    assert run_json(capsys, *args, text) == (code, doc, "")


def test_witness_and_verify_build_no_translation_table(capsys):
    abelian.translation_ops.cache_clear()
    common = ["--group", "20000", "--k", "3", "--l", "2"]
    code, doc, _ = run_json(capsys, "witness", *common)
    assert code == 0 and doc["size"] == 10000
    members = ",".join(map(str, doc["members"]))
    code, doc, _ = run_json(capsys, "verify", *common, "--set", members)
    assert code == 0 and doc["sum_free"]
    code, doc, _ = run_json(capsys, "verify", *common, "--set", members + ",2")
    assert code == 1 and doc["violation"] is not None
    assert abelian.translation_ops.cache_info().currsize == 0


def test_witness_and_verify_at_a_huge_k(capsys):
    # the sumset chain stops at the first layer that does not grow, so a
    # k of 10^20 costs what a small one does
    k = str(10**20)
    code, doc, _ = run_json(capsys, "witness", "--group", "10", "--k", k, "--l", "1")
    assert code == 0 and doc["members"] == [1, 3, 5, 7, 9]
    code, doc, _ = run_json(capsys, "verify", "--group", "12", "--k", k, "--l", "1", "--set", "1,5")
    assert code == 0 and doc["sum_free"] is True


# sha256 of the --json stdout and the exit code of fixed commands; --json
# output is a stable wire format, so any change here must be deliberate
PINNED_JSON = [
    ("lambda --group 30 --k 2 --l 1", 0,
     "4494cf3b61e0628fed05e3014afe204c3952e67b5c7df2bf9de1be5c6fe67d23"),
    ("count --group 2x6 --k 3 --l 1", 0,
     "ca5a320872a6d1fd42f5db85ce644ab9560b73f71fa387ea88821ff44691f94f"),
    ("enumerate --group 14 --k 3 --l 1", 0,
     "14042492833a520942d253b8e8329b1c2d5eaba84be0d56f91efbb8f3a01522d"),
    ("verify --group 5 --k 3 --l 1 --set 1,2", 1,
     "059e65b3d4ed270f2f0987ddb2878d82d77d0b87515b7698e42409b2aca805b6"),
    ("witness --group 2x20 --k 3 --l 2", 0,
     "0b0e83ff31dd2be9bb18b5986bea3c9cdea7907baa7c0e6148e18b1429f5bb1f"),
    ("lambda --group 2x4 --k 2 --l 1", 0,
     "f5c5a3c6d1c93102f6623a3843472f42e9e17c848a4e2b81cd70a7bc720402e8"),
    ("lambda --group 4 --k 5 --l 1", 0,
     "1780b0b8923d6c883b9e58e2302f08b791962e1a5e2520bb1f2c49a22a5e4908"),
    ("verify --group 2x4 --k 2 --l 1 --set 0:1,1:1", 0,
     "68e1b0d951bdf21df913cf6f60815977009f667a9e96056c29c2ec56cbf88798"),
    ("verify --group 8 --k 2 --l 1 --set 1,3,5,7", 0,
     "b9301cbc9c6cbf40e1267d6c1acfaaca88ca0cf11c1f7c31c5624f806a424449"),
    ("alpha --n 30 --k 3 --l 1 --exact", 0,
     "b1a4e7a47270a3f9796ee5cde8cf42149e8f9cd0a411125a279a5b9b5863ca8b"),
    ("scan --n 2..12 --k 3 --l 1 --check formula-vs-exact,bounds", 0,
     "57e61a865c840879ed44a419eef8078e36863eae5fdeea7f1160273634a813f0"),
    ("scan --family all-abelian --order 2..12 --k 2 --l 1 "
     "--check lift-identity,green-ruzsa,theorem16", 0,
     "5cf0210fa9a97c6658f83e1b02c66f0e64aab1be0fb3c32ebbc570e020970a92"),
    # 5,600 coordinate rows (184,414 bytes) and 10,000 indices (104,796 bytes)
    ("witness --group 2x8400 --k 3 --l 1", 0,
     "8ba31b39fee706570a8be98231bf808d2f02a5ca5544f81bae8ba7fbf1a5ad3f"),
    ("witness --group 20000 --k 3 --l 2", 0,
     "0ea825bccbdf9bdfe37c123c9db90213004013330930a6beb31efa67d20a0035"),
    ("verify --group 2x4 --k 2 --l 1 --set 0:1,0:2,1:3", 1,
     "6619ae7f72d983965cce3d2829ec76deb21c643739f67b786f9ae664f2a916a4"),
    # members laid out by block: four blocks of 15 rows, and the same set parsed back
    ("witness --group 2x2x30 --k 5 --l 2", 0,
     "c704628ea6f809771ecfccba5477fe96eab0b24511c2c78bbf1c722a308dbc9e"),
    ("verify --group 2x2x30 --k 5 --l 2 --set "
     + ",".join(f"{a}:{b}:{c}" for a in range(2) for b in range(2) for c in range(1, 30, 2)), 0,
     "5b74bdbc769848db6132e9be8a293a75ac48903f9f4c38dd2f82ae6eb7233f01"),
    ("enumerate --group 2x2x4 --k 2 --l 1", 0,
     "d96cdcfeb6f9d9f82e4891f2e35fac9c9d3449636ae982fdfbf26f2f9f3e35b4"),
]


@pytest.mark.parametrize("command, exit_code, digest", PINNED_JSON)
def test_json_output_pinned(capsys, command, exit_code, digest):
    code, out, _ = run(capsys, *command.split(), "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# sha256 of the text stdout: members shown as indices or coordinate tuples
PINNED_TEXT = [
    ("witness --group 2x20 --k 3 --l 2", 0,
     "c3d33d8814b28bbab952246e2af74d257e2fea36af1ec7f91fb9e37d1fe248ab"),
    ("verify --group 2x4 --k 2 --l 1 --set 0:1,0:2,1:3", 1,
     "205a8af40f84825d7c74c7834774e74d7df9b61816ca7725b426c1ad6e697869"),
]


@pytest.mark.parametrize("command, exit_code, digest", PINNED_TEXT)
def test_text_output_pinned(capsys, command, exit_code, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_KEYS = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600'), st.characters()))
_INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))
_ROWS = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.one_of(st.lists(_INTS, min_size=w, max_size=w), st.tuples(*[_INTS] * w)))
)
_SCALARS = st.one_of(_INTS, st.booleans(), st.none(), st.floats(), _KEYS)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_KEYS, inner),
        _ROWS,
        st.lists(st.lists(_INTS)),
        st.lists(st.one_of(st.booleans(), _INTS)),
        st.lists(st.lists(st.one_of(st.booleans(), _INTS), min_size=2, max_size=2)),
    ),
    max_leaves=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_JSON)
def test_json_layout_equals_json_dumps(value):
    assert cli._json_layout(value) == json.dumps(value, sort_keys=True, indent=2)


def _layout_cases(rng):
    """(group, set) over every group of order <= 128: the empty set, G,
    singletons at the block edges, and random sets."""
    for g in abelian.all_abelian_groups(128):
        n = g.n
        sets = [Subset.empty(g), Subset.full(g)]
        sets += [Subset.from_indices(g, [i]) for i in sorted({0, 1, g.v - 1, g.v, n // 2, n - 1} & set(range(n)))]
        sets += [Subset(g, rng.getrandbits(n) & rng.getrandbits(n)) for _ in range(3)]
        sets.append(Subset.from_indices(g, rng.sample(range(n), min(n, 8))))
        for s in sets:
            yield g, s


def test_members_layout_equals_json_dumps():
    # a Subset is laid out as json lays out members_json of it, at the top
    # level and nested under a key
    for g, s in _layout_cases(random.Random(22)):
        for pad in ("", "    "):
            expected = json.dumps(members_json(s), indent=2).replace("\n", "\n" + pad)
            assert cli._json_layout(s, pad) == expected, (g, s, pad)


def test_format_element_equals_the_element_form():
    # the text form of a set, laid out from its indices, is its Elements
    # printed in braces
    for g, s in _layout_cases(random.Random(23)):
        assert cli._format_element(s) == "{" + ",".join(str(e) for e in s.elements()) + "}", (g, s)


def test_json_layout_rejects_non_str_keys():
    with pytest.raises(TypeError):
        cli._json_layout({"rows": [{1: "one"}]})


# the same lambda payloads without exact.nodes_explored: the search's
# effort may change, its value and witness bytes may not
PINNED_LAMBDA_VALUES = [
    ("lambda --group 30 --k 2 --l 1",
     "3e131f00f3013c3ee22ec31cad3ad5bd334819d157fda3ea007b3685a01b2dbf"),
    ("lambda --group 2x4 --k 2 --l 1",
     "698134cf045cfb2c79bb08740d2388cb5e05e87ed0426eaeeaeb86b5181b9bf0"),
    ("lambda --group 4 --k 5 --l 1",
     "313b15be0329322060fffdef88cccf97e5723756816df7189f74e7c7cd704814"),
]


@pytest.mark.parametrize("command, digest", PINNED_LAMBDA_VALUES)
def test_lambda_json_without_effort_pinned(capsys, command, digest):
    code, doc, _ = run_json(capsys, *command.split())
    assert code == 0
    del doc["exact"]["nodes_explored"]
    out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witness_json_schema(capsys):
    code, doc, _ = run_json(capsys, "witness", "--group", "10", "--k", "3", "--l", "1")
    assert code == 0
    assert doc["size"] == 2 and doc["k"] == 3 and doc["l"] == 1
    assert doc["construction"]["certificate"] is not None


def test_alpha_command(capsys):
    code, doc, _ = run_json(
        capsys, "alpha", "--n", "10", "--k", "3", "--l", "1", "--exact"
    )
    assert code == 0
    assert doc["case"] == "intermediate"
    assert doc["lower"] == 2 and doc["upper"] == 3
    assert doc["exact_search"] == 2


def test_count_command(capsys):
    code, doc, _ = run_json(capsys, "count", "--group", "7", "--k", "2", "--l", "1")
    assert code == 0
    assert doc["total"] == 16 and doc["by_size"]["0"] == 1
    assert "nodes_explored" not in doc and "cached" not in doc  # effort stays out of --json
    assert doc["total"] >= 4


def test_enumerate_command(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--group", "3", "--k", "2", "--l", "1")
    assert code == 0
    assert doc["sets"] == [[1], [2]] and doc["max_size"] == 1


def test_scan_cyclic_formula_vs_exact(capsys):
    code, out, err = run(
        capsys,
        "scan", "--n", "2..36", "--k", "3", "--l", "1", "--check", "formula-vs-exact",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,k,l,formula,lower,upper,exact,witness_size,agree"
    assert len(lines) == 36  # header + 35 rows
    assert "0 disagreements" in err


def test_scan_family_green_ruzsa(capsys):
    code, doc, _ = run_json(
        capsys,
        "scan", "--family", "all-abelian", "--order", "2..16",
        "--k", "2", "--l", "1", "--check", "green-ruzsa",
    )
    assert code == 0
    assert doc["disagreements"] == 0
    assert doc["instances"] == 24


def test_scan_bounds_check(capsys):
    code, doc, _ = run_json(
        capsys, "scan", "--n", "2..24", "--k", "4", "--l", "2", "--check", "bounds"
    )
    assert code == 0 and doc["disagreements"] == 0


def test_scan_partial_rows_marked(capsys):
    code, doc, _ = run_json(
        capsys,
        "scan", "--n", "2..30", "--k", "2", "--l", "1",
        "--check", "bounds", "--limit", "20",
    )
    assert code == 0
    assert doc["skipped"] == 10
    skipped_rows = [r for r in doc["rows"] if r["agree"] is None]
    assert len(skipped_rows) == 10
    assert all(r["exact"] is None for r in skipped_rows)


def test_scan_rows_no_check_applies_to_are_skipped(capsys):
    # green-ruzsa applies to (2,1) only, so on (3,1) no row is checked
    code, doc, _ = run_json(
        capsys, "scan", "--n", "2..5", "--k", "3", "--l", "1", "--check", "green-ruzsa"
    )
    assert code == 0
    assert [r["agree"] for r in doc["rows"]] == [None] * 4
    assert (doc["instances"], doc["disagreements"], doc["skipped"]) == (4, 0, 4)
    assert all(r["exact"] is not None for r in doc["rows"])


def test_scan_unknown_check_exits_2(capsys):
    code, _, err = run(
        capsys, "scan", "--n", "2..6", "--k", "2", "--l", "1", "--check", "nope"
    )
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_scan_without_a_check_exits_2(capsys, checks):
    # no check would mark every row as agreeing
    code, out, err = run(capsys, "scan", "--n", "2..3", "--k", "2", "--l", "1", "--check", checks)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: no check given")
    assert all(name in err for name in cli.SCAN_CHECKS)


def test_scan_reversed_n_range_exits_2(capsys):
    code, out, err = run(capsys, "scan", "--n", "5..2", "--k", "2", "--l", "1")
    assert code == 2 and out == "" and "5 > 2" in err


def test_scan_reversed_order_range_exits_2(capsys):
    code, out, err = run(
        capsys, "scan", "--family", "all-abelian", "--order", "9..3", "--k", "2", "--l", "1"
    )
    assert code == 2 and out == "" and "9 > 3" in err


def test_scan_n_range_below_2_exits_2(capsys):
    code, out, err = run(capsys, "scan", "--n", "0..1", "--k", "2", "--l", "1")
    assert code == 2 and out == "" and "no order >= 2" in err


def test_scan_order_range_below_2_exits_2(capsys):
    code, out, err = run(
        capsys, "scan", "--family", "all-abelian", "--order", "1..1", "--k", "2", "--l", "1"
    )
    assert code == 2 and out == "" and "no order >= 2" in err


@pytest.mark.parametrize(
    "source",
    [("--n", "2..x"), ("--n", "..5"), ("--family", "all-abelian", "--order", "2..3..4")],
)
def test_scan_malformed_range_is_named(capsys, source):
    # an end that is no integer gets the range's message, not int's
    code, out, err = run(capsys, "scan", *source, "--k", "2", "--l", "1")
    assert (code, out, err) == (2, "", f"error: range must look like 2..36, got {source[-1]!r}\n")


@pytest.mark.parametrize(
    "source, message",
    [
        (("--order", "2..5"), "error: --order requires --family all-abelian\n"),
        (
            ("--n", "2..5", "--family", "all-abelian"),
            "error: --family all-abelian requires --order, not --n\n",
        ),
    ],
)
def test_scan_family_goes_with_order_only(capsys, source, message):
    code, out, err = run(capsys, "scan", *source, "--k", "2", "--l", "1")
    assert (code, out, err) == (2, "", message)


def test_scan_json_deterministic(capsys):
    args = ("scan", "--n", "2..16", "--k", "2", "--l", "1", "--check", "bounds", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["lambda", "--group", "10"]) == 2  # missing --k/--l
    assert main(["nope"]) == 2


def test_scan_theorem16_and_lift_identity(capsys):
    code, doc, _ = run_json(
        capsys,
        "scan", "--family", "all-abelian", "--order", "2..12",
        "--k", "3", "--l", "1", "--check", "theorem16,lift-identity",
    )
    assert code == 0 and doc["disagreements"] == 0


def test_count_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("KLSF_LIMIT_COUNT", "5")
    code, _, err = run(capsys, "count", "--group", "12", "--k", "2", "--l", "1")
    assert code == 3
    assert err == (
        "error: subset counting limited to order 5 (requested 12); use --limit N or --force\n"
    )


@pytest.mark.parametrize("env", [None, "5"], ids=["no-env", "env-limit"])
def test_alpha_exact_has_no_order_limit(capsys, monkeypatch, env):
    # the progression maxima take one step per divisor of n, so alpha reads
    # no limit, from a flag or from the environment
    if env is None:
        monkeypatch.delenv("KLSF_LIMIT_AP", raising=False)
    else:
        monkeypatch.setenv("KLSF_LIMIT_AP", env)
    code, doc, err = run_json(capsys, "alpha", "--n", "5000", "--k", "3", "--l", "1", "--exact")
    assert code == 0 and err == ""
    assert doc["exact_search"] == alpha_31(5000) == 1250


@pytest.mark.parametrize("flag", [["--force"], ["--limit", "5"]], ids=lambda flag: flag[0])
def test_alpha_rejects_limit_flags(capsys, flag):
    argv = ["alpha", "--n", "5000", "--k", "3", "--l", "1", "--exact", "--json", *flag]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_limit_docs_name_exactly_the_limit_variables():
    # the README and the module docstring name the KLSF_LIMIT_* variables
    # that _DEFAULT_LIMITS reads, no more and no fewer
    names = {f"KLSF_LIMIT_{kind}" for kind in cli._DEFAULT_LIMITS}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (readme, cli.__doc__):
        assert set(re.findall(r"KLSF_LIMIT_[A-Z]+", text)) == names


TOO_LARGE = "error: group too large: its subsets do not fit in memory\n"


HUGE = "1" + "0" * 20


@pytest.mark.parametrize("command", [
    ["witness", "--group", HUGE],
    ["verify", "--group", HUGE, "--set", "1"],
    ["scan", "--n", f"{HUGE}..{HUGE}"],
], ids=lambda command: command[0])
def test_oversized_group_exits_3(capsys, command):
    # 10^20 elements: the mask of a subset cannot even be sized, so every
    # command stops before it allocates anything
    code, out, err = run(capsys, *command, "--k", "2", "--l", "1")
    assert code == 3 and out == "" and err == TOO_LARGE


K_TOO_LARGE = "error: k too large: the sumset layers 1A..kA do not fit in memory\n"


# a k of 10^20 on a group of 10 or 12 elements: the exact searches' [0] * k
# and find_violation's tuple(range(1, k + 1)) cannot be sized, and the
# message names k, not the group
@pytest.mark.parametrize("command", [
    ["lambda", "--group", "10"],
    ["count", "--group", "10"],
    ["enumerate", "--group", "10"],
    ["verify", "--group", "12", "--set", "1,2"],
    ["scan", "--n", "2..12"],
], ids=lambda command: command[0])
def test_huge_k_exits_3_and_names_k(capsys, command):
    code, out, err = run(capsys, *command, "--k", HUGE, "--l", "1")
    assert code == 3 and out == "" and err == K_TOO_LARGE


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(g, kl):
        raise MemoryError

    monkeypatch.setattr(cli, "best_witness", exhausted)
    code, out, err = run(capsys, "witness", "--group", "10", "--k", "2", "--l", "1")
    assert code == 3 and out == "" and err == TOO_LARGE


def test_negative_limit_exits_2(capsys):
    code, out, err = run(capsys, "lambda", "--group", "10", "--k", "2", "--l", "1", "--limit", "-1")
    assert code == 2 and out == "" and "non-negative" in err


def test_negative_env_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("KLSF_LIMIT_EXACT", "-1")
    code, out, err = run(capsys, "lambda", "--group", "10", "--k", "2", "--l", "1")
    assert code == 2 and out == "" and "KLSF_LIMIT_EXACT" in err
    # a malformed variable is a usage error under --force too, as it is without
    code, out, err = run(capsys, "lambda", "--group", "10", "--k", "2", "--l", "1", "--force")
    assert code == 2 and out == "" and "KLSF_LIMIT_EXACT" in err


# one parser serves every main() call in a process: nothing may carry over
# from one call to the next

def test_parser_reuse_leaks_no_flag(capsys):
    argv = ["lambda", "--group", "30", "--k", "2", "--l", "1", "--method", "exact"]
    assert run(capsys, *argv, "--limit", "10")[0] == 3
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("group Z30")


def test_parser_reuse_after_usage_error(capsys):
    code, _, err = run(capsys, "lambda", "--group", "10", "--k", "3")
    assert code == 2 and "--l" in err
    command, exit_code, digest = PINNED_JSON[0]
    code, out, _ = run(capsys, *command.split(), "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: klsf")


def test_parser_reuse_reads_env_per_call(capsys, monkeypatch):
    argv = ["lambda", "--group", "30", "--k", "2", "--l", "1", "--method", "exact"]
    monkeypatch.delenv("KLSF_LIMIT_EXACT", raising=False)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("KLSF_LIMIT_EXACT", "5")
    assert run(capsys, *argv)[0] == 3


def test_parser_built_once_per_process(capsys, monkeypatch):
    builds = []

    def counted(build=cli.build_parser):
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for n in (10, 12, 14):
            assert run(capsys, "lambda", "--group", str(n), "--k", "2", "--l", "1")[0] == 0
        assert run(capsys, "nope")[0] == 2
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


# the package has no runtime dependency, and its records are named tuples:
# dataclasses (which loads inspect) and one generated __init__, __eq__ and
# __hash__ per frozen dataclass made `import klsumfree, klsumfree.cli` take
# 23.7 ms against 9.4 ms without them (medians of 40 fresh processes,
# Python 3.11.7, 2 cores); a stray import would bring that back into every
# klsf call
@pytest.mark.parametrize("module", ["numpy", "dataclasses"])
def test_import_does_not_load(module):
    src = str(Path(klsumfree.__file__).resolve().parents[1])
    code = f"import sys, klsumfree, klsumfree.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
