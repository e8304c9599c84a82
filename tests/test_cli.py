"""Command-line surface: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klsumfree
from klsumfree import abelian, cli
from klsumfree.cli import main


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


# sha256 of the --json stdout and the exit code of fixed commands; --json
# output is a stable wire format, so any change here must be deliberate
PINNED_JSON = [
    ("lambda --group 30 --k 2 --l 1", 0,
     "3270d0ea329c01540b184b5ed606d380850097c1a174b7fc6ec5579f0b07fcc9"),
    ("count --group 2x6 --k 3 --l 1", 0,
     "ca5a320872a6d1fd42f5db85ce644ab9560b73f71fa387ea88821ff44691f94f"),
    ("enumerate --group 14 --k 3 --l 1", 0,
     "14042492833a520942d253b8e8329b1c2d5eaba84be0d56f91efbb8f3a01522d"),
    ("verify --group 5 --k 3 --l 1 --set 1,2", 1,
     "059e65b3d4ed270f2f0987ddb2878d82d77d0b87515b7698e42409b2aca805b6"),
    ("witness --group 2x20 --k 3 --l 2", 0,
     "0b0e83ff31dd2be9bb18b5986bea3c9cdea7907baa7c0e6148e18b1429f5bb1f"),
    ("lambda --group 2x4 --k 2 --l 1", 0,
     "e067ba3172d948518782b90e38a025baf2a75351f5d38a9defc72158231d165e"),
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
]


@pytest.mark.parametrize("command, exit_code, digest", PINNED_JSON)
def test_json_output_pinned(capsys, command, exit_code, digest):
    code, out, _ = run(capsys, *command.split(), "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_scan_unknown_check_exits_2(capsys):
    code, _, err = run(
        capsys, "scan", "--n", "2..6", "--k", "2", "--l", "1", "--check", "nope"
    )
    assert code == 2 and "unknown check" in err


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


def test_alpha_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("KLSF_LIMIT_AP", "5")
    code, _, err = run(capsys, "alpha", "--n", "10", "--k", "2", "--l", "1", "--exact")
    assert code == 3
    assert err == (
        "error: progression search limited to order 5 (requested 10); use --limit N or --force\n"
    )


TOO_LARGE = "error: group too large: its subsets do not fit in memory\n"


@pytest.mark.parametrize("command", ["witness", "verify"])
def test_oversized_group_exits_3(capsys, command):
    # 10^20 elements: the mask of a subset cannot even be sized, so both
    # commands stop before they allocate anything
    extra = ["--set", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, "--group", "1" + "0" * 20, "--k", "2", "--l", "1", *extra)
    assert code == 3 and out == "" and err == TOO_LARGE


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


def test_import_does_not_load_numpy():
    # the package has no runtime dependency; a stray import would bring
    # its load time back into every klsf call
    src = str(Path(klsumfree.__file__).resolve().parents[1])
    code = "import sys, klsumfree, klsumfree.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
