"""klsumfree benchmark: one workload, fresh worker processes, checked outputs.

    python3 bench/run.py --workload search --seed 1 --seconds 60 --trace 0

Run from the repository root.  Each round starts bench/worker.py in a
fresh interpreter that issues the workload's op list back to back (one
closed-loop client).  Rounds repeat until --seconds is spent, with at
least MIN_ROUNDS of them.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics.  Op times are reported at a reference host speed (see
REFERENCE_LOOP_S); the raw times are printed in the table and kept in the
record.  The last line of stdout is the JSON result; the full
record (op list, environment, every round) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import workloads as wl  # noqa: E402

MIN_ROUNDS = 3  # per mode
MAX_ROUNDS = 40
ROUND_TIMEOUT_S = 150

# Shared hosts change speed: on a 2-vCPU Intel Xeon (2.1 GHz) virtual
# machine the loop below took either 0.6-0.7 ms or 0.85-1.1 ms, switching
# in spells of seconds to minutes, so whole runs can land in a slow spell.  The worker times a fixed loop between
# ops (worker.reference_loop), and each op's time is scaled by
# REFERENCE_LOOP_S / the loop's time around that op: the op's time on a
# host where the loop takes REFERENCE_LOOP_S.  The loop uses nothing of
# klsumfree, so a change to the program moves these times as it moves the
# raw ones.
REFERENCE_LOOP_S = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "op_p50_ref_ms": "ms",
    "op_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "oracle.lambda_exact.calls": "count",
    "oracle.lambda_exact.self_s": "s",
    "oracle.lambda_exact.cache_hits": "count",
    "oracle.nodes_explored": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.count_sum_free.self_s": "s",
    "oracle.count_sum_free.sets": "count",
    "oracle.enumerate_maximum.self_s": "s",
    "oracle.enumerate_maximum.sets": "count",
    "oracle.ap.calls": "count",
    "oracle.ap.self_s": "s",
    "oracle.ap.cache_misses": "count",
    "formulas.calls": "count",
    "formulas.self_s": "s",
    "witness.best_witness.calls": "count",
    "witness.best_witness.self_s": "s",
    "witness.witness_json.self_s": "s",
    "sumset.is_kl_sum_free.calls": "count",
    "sumset.is_kl_sum_free.self_s": "s",
    "sumset.pair_sumset.calls": "count",
    "sumset.pair_sumset.s": "s",
    "sumset.find_violation.calls": "count",
    "sumset.find_violation.s": "s",
    "abelian.translation_ops.calls": "count",
    "abelian.translation_ops.misses": "count",
    "abelian.translation_ops.build_s": "s",
    "abelian.tables_cached": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.json_bytes": "bytes",
    "setup.import_s": "s",
    "trace.overhead_frac": "ratio",
}
# layer counts that must repeat exactly in every traced round
DETERMINISTIC_LAYERS = (
    "oracle.nodes_explored",
    "oracle.lambda_exact.calls",
    "oracle.lambda_exact.cache_hits",
    "oracle.count_sum_free.sets",
    "oracle.enumerate_maximum.sets",
    "oracle.ap.calls",
    "formulas.calls",
    "sumset.pair_sumset.calls",
    "abelian.translation_ops.calls",
)


class RoundError(RuntimeError):
    """A worker died, timed out or printed no result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    # oracle limits stay at their defaults; hashing is fixed so rounds repeat
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLSF_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(ops: list[dict], trace: bool, trace_path: Path | None) -> dict:
    request = json.dumps({"root": str(ROOT), "ops": ops, "trace": trace,
                          "trace_path": str(trace_path) if trace_path else None})
    spawned = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=request, capture_output=True, text=True,
            timeout=ROUND_TIMEOUT_S, cwd=ROOT, env=_worker_env(),
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"worker ran past {ROUND_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    reply = json.loads(lines[-1])
    reply["setup_s"] = reply["ready"] - spawned
    reply["trace"] = trace
    return reply


def check_round(ops: list[dict], reply: dict, reference: dict, verdicts: dict) -> list[str]:
    """One line per failed op; verdicts caches checks of identical outputs."""
    failures = []
    last_witness = None
    for op, result in zip(ops, reply["results"]):
        if op["kind"] == "verify-witness":
            result["witness_members"] = json.loads(last_witness)["members"] if last_witness else None
        if op.get("command") == "witness":
            last_witness = result.get("out")
        key = (op["id"], _output_digest(result))
        if key not in verdicts:
            verdicts[key] = checker.check_op(op, result, reference)
        if verdicts[key] is not None:
            failures.append(f"op {op['id']} ({op['key']}, {op.get('command', op['kind'])}): {verdicts[key]}")
    if len(reply["results"]) != len(ops):
        failures.append(f"{len(reply['results'])} results for {len(ops)} ops")
    return failures


def _output_digest(result: dict) -> str:
    visible = {k: v for k, v in result.items() if k not in ("s", "loop", "witness_members")}
    return hashlib.sha256(json.dumps(visible, sort_keys=True).encode()).hexdigest()


def fingerprint(ops: list[dict], reply: dict) -> dict:
    """Counts that must repeat exactly for one commit and one seed."""
    nodes = sets = 0
    for op, result in zip(ops, reply["results"]):
        if result.get("exit") != 0 or op.get("command") not in ("lambda", "count", "enumerate"):
            continue
        out = json.loads(result["out"])
        if out.get("exact"):
            nodes += out["exact"]["nodes_explored"]
        sets += out.get("total", 0) + out.get("count", 0)
    digest = hashlib.sha256()
    for result in reply["results"]:
        digest.update(_output_digest(result).encode())
    return {
        "outputs_sha": digest.hexdigest()[:16],
        "cli.json_bytes": reply["json_bytes"],
        "nodes_from_outputs": nodes,
        "sets_from_outputs": sets,
        "caches": reply["caches"],
    }


def repeat_problems(workload: str, seed: int, smoke: bool, print_: dict) -> list[str]:
    """Compare the fingerprint with earlier runs of the same source and seed.

    Runs are keyed by a digest of src/klsumfree, so a run of another commit
    starts a new entry; the history lives in .bench_out/fingerprints.json.
    """
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "klsumfree").rglob("*.py")):
        source.update(path.read_bytes())
    key = f"{workload} seed{seed}{' smoke' if smoke else ''} src:{source.hexdigest()[:16]}"
    path = ROOT / ".bench_out" / "fingerprints.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    if key in history:
        return [] if history[key] == print_ else ["deterministic counts differ from an earlier run of this source and seed"]
    history[key] = print_
    path.write_text(json.dumps(history, indent=1, sort_keys=True))
    return []


def _window_mean(values: list[float], q: float, half: float = 0.05) -> float:
    """Mean of the sorted values ranked within [q - half, q + half].

    A smoothed quantile: the op costs of one draw are sparse in the tail,
    so a single order statistic jumps between neighbouring instances.
    """
    ordered = sorted(values)
    lo = math.floor((q - half) * len(ordered))
    hi = max(lo + 1, math.ceil((q + half) * len(ordered)))
    return statistics.fmean(ordered[lo:hi])


def op_ms(reply: dict, reference: bool) -> list[float]:
    """The round's op latencies in ms, raw or at the reference loop speed.

    An op's loop time is the mean of the loops timed just before and just
    after it.
    """
    loops = reply["loops"]
    out = []
    for result in reply["results"]:
        scale = 1.0
        if reference:
            j = result["loop"]
            scale = REFERENCE_LOOP_S / ((loops[j] + loops[j + 1]) / 2)
        out.append(result["s"] * scale * 1000)
    return out


def op_medians(rounds: list[dict], reference: bool = True) -> list[float]:
    """Each op's median latency over the rounds, in ms."""
    per_round = [op_ms(r, reference) for r in rounds]
    return [statistics.median(column) for column in zip(*per_round)]


def time_metrics(rounds: list[dict], reference: bool) -> dict:
    per_op = op_medians(rounds, reference)
    return {"wall": sum(per_op) / 1000, "p50": _window_mean(per_op, 0.50), "p90": _window_mean(per_op, 0.90)}


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    times = time_metrics(rounds, reference=True)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_ref_s": times["wall"],
        "op_p50_ref_ms": times["p50"],
        "op_p90_ref_ms": times["p90"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    latencies = len(rounds[0]["results"]) * len(rounds)
    samples = {"setup_s": len(rounds), "wall_ref_s": latencies, "op_p50_ref_ms": latencies,
               "op_p90_ref_ms": latencies, "peak_rss_mb": len(rounds)}
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in LAYER_UNITS
              if name not in ("setup.import_s", "trace.overhead_frac")}
    values["setup.import_s"] = statistics.median(r["import_s"] for r in plain + traced)
    values["trace.overhead_frac"] = sum(op_medians(traced)) / sum(op_medians(plain)) - 1
    samples = {name: len(traced) for name in values}
    samples["setup.import_s"] = len(plain) + len(traced)
    return values, samples


def environment(load_start) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        reference: dict | None = None) -> dict:
    """Run one workload and return the full record (see main for the output)."""
    load_start = list(os.getloadavg())
    reference = wl.load_reference() if reference is None else reference
    ops = wl.draw(workload, seed, reference, smoke=smoke)
    compileall.compile_dir(str(ROOT / "src" / "klsumfree"), quiet=1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"spans-{workload}-seed{seed}.json" if trace else None

    min_rounds = 1 if smoke else MIN_ROUNDS
    plain, traced, failures, problems, verdicts = [], [], [], [], {}
    started = _now()
    longest = 0.0
    while True:
        mode = trace and len(traced) < len(plain)
        t0 = _now()
        reply = run_round(ops, mode, trace_path)
        index = len(plain) + len(traced)
        failures += [f"round {index}: {f}" for f in check_round(ops, reply, reference, verdicts)]
        problems += [f"round {index}: {h}" for h in reply["hygiene"]]
        (traced if mode else plain).append(reply)
        longest = max(longest, _now() - t0)
        done = len(plain) >= min_rounds and (not trace or len(traced) >= len(plain))
        if (done and _now() + longest > started + seconds) or index + 1 >= MAX_ROUNDS:
            break

    rounds = plain + traced
    prints = [fingerprint(ops, r) for r in rounds]
    if any(p != prints[0] for p in prints):
        problems.append("outputs or deterministic counts differ between rounds")
    problems += repeat_problems(workload, seed, smoke, prints[0])
    for name in DETERMINISTIC_LAYERS:
        if len({r["layers"][name] for r in traced}) > 1:
            problems.append(f"{name} differs between traced rounds")
    attempted = sum(len(r["results"]) for r in rounds)
    if trace:
        values, samples = per_layer(plain, traced)
        units = LAYER_UNITS
    else:
        values, samples = end_to_end(plain)
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "problems": problems,
        "fingerprint": prints[0],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "samples": samples,
        "rounds": [{k: r[k] for k in ("setup_s", "import_s", "wall_s", "rss_mb", "trace")} for r in rounds],
        "raw_times": time_metrics(plain, reference=False),
        "op_ms": op_medians(plain, reference=False),
        "op_ms_rounds": [op_ms(r, False) for r in plain],
        "op_ref_ms_rounds": [op_ms(r, True) for r in plain],
        "loop_ms_rounds": [[t * 1000 for t in r["loops"]] for r in plain],
        "environment": environment(load_start),
        "ops": ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny draws, one round per mode")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "klsumfree" / "__init__.py", wl.REFERENCE_PATH) if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a klsumfree checkout", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(ROOT / ".bench_out" / name, "w") as fh:
        json.dump(record, fh, indent=1)
    env = record["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {len(record['ops'])} ops per round, "
          f"{len(record['rounds'])} rounds; python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']:6s} (n={record['samples'][metric]})")
    raw = record["raw_times"]
    print(f"  raw times, not at the reference speed: wall {raw['wall']:.6g} s, "
          f"p50 {raw['p50']:.6g} ms, p90 {raw['p90']:.6g} ms")
    print(f"  {'fail_rate':34s} {record['failed'] / record['attempted']:>14.6g} ratio  "
          f"({record['failed']} of {record['attempted']} ops)")
    for line in record["problems"] + record["failures"]:
        print(f"  FAIL {line}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
