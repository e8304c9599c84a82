"""Record reference.json: every pool instance with its expected values.

Run once, from the repository root, on the commit whose values are the
reference:

    python3 bench/make_reference.py

It takes about fifteen minutes on two cores.  cost_ms is the best of
three cold CLI runs of each search instance on that commit (one run when
it takes over a second); the draws sort and cap the pools by it and
nothing compares it with later runs.  The witness instances each
run in a fresh interpreter, because the library caches translation
tables without bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import workloads as wl  # noqa: E402


def _cold_cli(argv: list[str]) -> tuple[dict, float]:
    """Run one CLI op with every library cache emptied first."""
    from klsumfree import abelian, cli, oracle

    oracle._EXACT_CACHE.clear()
    oracle._COUNT_CACHE.clear()
    for fn in (abelian._axis_rotations, abelian.translation_ops, abelian.negation_table):
        fn.cache_clear()
    buf = StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    assert code == 0, argv
    return json.loads(buf.getvalue()), elapsed


def search_sections() -> dict:
    """Exact, count and enumerate pools; cost is the best of three cold runs."""
    from klsumfree import all_abelian_groups, format_group_spec

    out = {"exact": {}, "count": {}, "enumerate": {}}
    limits = {"exact": wl.EXACT_MAX_ORDER, "count": wl.COUNT_MAX_ORDER, "enumerate": wl.ENUMERATE_MAX_ORDER}
    for section, limit in limits.items():
        command = "lambda" if section == "exact" else section
        for g in all_abelian_groups(limit):
            for k, l in wl.SEARCH_PAIRS:
                key = wl.instance_key(format_group_spec(g), k, l)
                argv = wl.cli_op(command, key, *(["--method", "exact"] if section == "exact" else []))["argv"]
                payload, cost = _cold_cli(argv)
                if cost < 1.0:
                    cost = min(cost, *(_cold_cli(argv)[1] for _ in range(2)))
                if section == "exact":
                    entry = {"value": payload["exact"]["value"]}
                elif section == "count":
                    entry = {"total": payload["total"], "by_size": payload["by_size"]}
                else:
                    entry = {
                        "max_size": payload["max_size"],
                        "count": payload["count"],
                        "sets_sha": checker.sets_digest(payload["sets"]),
                    }
                entry["cost_ms"] = round(cost * 1000, 3)
                out[section][key] = entry
        print(f"{section}: {len(out[section])} instances", file=sys.stderr)
    return out


def progression_section() -> dict:
    from klsumfree import KLParams, alpha_report, lambda_cyclic_via_alpha, oracle

    out = {}
    for k, l in wl.PROGRESSION_PAIRS:
        kl = KLParams(k, l)
        rows = [None, None]
        for n in range(2, wl.AP_MAX_N + 1):
            a, b, c = oracle.alpha_exact(n, kl), oracle.beta_exact(n, kl), oracle.gamma_exact(n, kl)
            rep = checker.report_fields(alpha_report(n, kl))
            lam = lambda_cyclic_via_alpha(n, kl, "exact")
            rows.append([a, b, c, lam, checker.digest(rep)])
        out[f"{k} {l}"] = rows
        print(f"progressions {k},{l}: done", file=sys.stderr)
    return out


def witness_instance(i: int) -> dict:
    from klsumfree import cli

    group = wl.witness_group(i)
    k, l = wl.witness_pair(i)
    base = ["--group", group, "--k", str(k), "--l", str(l), "--json"]
    t0 = time.perf_counter()
    texts = []
    for argv in (["witness", *base], ["lambda", *base, "--method", "bounds"]):
        buf = StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        texts.append(json.loads(buf.getvalue()))
    wit, lam = texts
    bounds = lam["bounds"]
    return {
        wl.instance_key(group, k, l): {
            "size": wit["size"],
            "lower": bounds["lower"],
            "upper": bounds["upper"],
            "bounds_sha": checker.digest(bounds),
            "cost_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
    }


def witness_section() -> dict:
    out = {}
    for i in range(wl.WITNESS_STRATA):
        proc = subprocess.run(
            [sys.executable, __file__, "--witness-instance", str(i)],
            check=True, capture_output=True, text=True,
        )
        out.update(json.loads(proc.stdout))
    print(f"witness: {len(out)} instances", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--witness-instance":
        json.dump(witness_instance(int(argv[1])), sys.stdout)
        return 0
    ref = search_sections()
    ref["witness"] = witness_section()
    ref["progressions"] = progression_section()
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
