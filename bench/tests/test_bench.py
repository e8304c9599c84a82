"""Self-test of the benchmark: python3 -m pytest bench/tests

Smoke runs draw a few ops per workload and run one round per mode, so
the whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
REFERENCE = wl.load_reference()


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (w, trace): run.run(w, wl.DEFAULT_SEED, 0, trace, smoke=True, reference=REFERENCE)
        for w in wl.WORKLOADS
        for trace in (False, True)
    }


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_emitted_with_its_unit(smoke_runs, workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = smoke_runs[workload, trace]
        assert record["correct"], record["failures"] + record["problems"]
        assert record["failed"] == 0 and record["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: entry["unit"] for name, entry in record["metrics"].items()}
        assert got == expected


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_outputs_match(smoke_runs, workload):
    plain = smoke_runs[workload, False]["fingerprint"]
    traced = smoke_runs[workload, True]["fingerprint"]
    assert plain == traced
    # the traced record itself holds one untraced and one traced round
    assert {r["trace"] for r in smoke_runs[workload, True]["rounds"]} == {False, True}


def _corrupt(reference: dict, op: dict) -> dict:
    bad = copy.deepcopy(reference)
    if op["kind"] == "progression":
        bad["progressions"][f"{op['k']} {op['l']}"][op["n"]][0] += 1
    elif op["command"] == "lambda" and "exact" in op["argv"]:
        bad["exact"][op["key"]]["value"] += 1
    elif op["command"] == "count":
        bad["count"][op["key"]]["total"] += 1
    elif op["command"] == "enumerate":
        bad["enumerate"][op["key"]]["count"] += 1
    else:
        bad["witness"][op["key"]]["size"] += 1
    return bad


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_expected_value_counts_as_failure(workload):
    op = wl.draw(workload, wl.DEFAULT_SEED, REFERENCE, smoke=True)[0]
    record = run.run(workload, wl.DEFAULT_SEED, 0, False, smoke=True, reference=_corrupt(REFERENCE, op))
    assert not record["correct"]
    assert record["failed"] >= 1
    assert all(f"op {op['id']} " in line for line in record["failures"])


def test_draws_repeat_for_a_seed_and_differ_across_seeds():
    for workload in wl.WORKLOADS:
        first = wl.draw(workload, wl.DEFAULT_SEED, REFERENCE)
        assert first == wl.draw(workload, wl.DEFAULT_SEED, REFERENCE)
        assert first != wl.draw(workload, wl.HELD_OUT_SEED, REFERENCE)
        assert len(first) >= 100


def test_checker_rejects_a_set_that_is_not_sum_free():
    import checker

    assert checker.kl_sum_free([(3,), (4,)], 2, 1, (7,))
    assert not checker.kl_sum_free([(1,), (2,)], 2, 1, (7,))
    assert not checker.kl_sum_free([(0, 1), (1, 1), (1, 0)], 2, 1, (2, 2))


def test_fingerprint_must_repeat_across_runs():
    assert run.repeat_problems("self-test", 0, True, {"outputs_sha": "a"}) == []
    assert run.repeat_problems("self-test", 0, True, {"outputs_sha": "a"}) == []
    assert run.repeat_problems("self-test", 0, True, {"outputs_sha": "b"})


def test_op_times_scale_to_the_reference_loop_speed():
    reply = {"loops": [1e-3, 2e-3, 2e-3], "results": [{"s": 0.01, "loop": 0}, {"s": 0.01, "loop": 1}]}
    assert run.op_ms(reply, reference=False) == pytest.approx([10.0, 10.0])
    # the loop took 1.5 ms around the first op and 2 ms around the second
    assert run.op_ms(reply, reference=True) == pytest.approx([10.0 / 1.5, 5.0])
