"""One round of a workload: a fresh interpreter running one closed-loop client.

run.py starts this script, writes the op list as JSON to its stdin and
reads one JSON line back.  The client issues its ops back to back in one
thread.  "ready" is CLOCK_MONOTONIC when the first op is about to start,
so the parent can measure set-up from the moment it spawned the process.

Between ops the client times a fixed pure-Python loop, at least every
LOOP_EVERY_S seconds of op time, and once before the first op and after
the last.  The loop's time tracks the host's speed at that moment; the
parent divides each op's time by it (see run.py).
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


LOOP_EVERY_S = 0.1


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds taken by one run of a fixed loop that uses nothing of klsumfree."""
    start = time.perf_counter()
    table = {}
    x = 0
    for i in range(5000):
        table[i & 255] = table.get(i & 255, 0) + i
        x ^= i * 7
    return time.perf_counter() - start


def main() -> int:
    request = json.load(sys.stdin)
    root = Path(request["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "bench"))

    t0 = _now()
    import klsumfree  # noqa: F401  (numpy comes in with it)
    from klsumfree import cli, formulas, oracle

    import_s = _now() - t0
    import tracing

    source = Path(klsumfree.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"klsumfree imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2

    hygiene = [
        f"{name} not empty before the first op: {state}"
        for name, state in tracing.cache_state().items()
        if state["size"]
    ]
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    ops = request["ops"]
    inputs = []
    for op in ops:
        if op["kind"] == "progression":
            inputs.append((op["n"], formulas.KLParams(op["k"], op["l"])))
        else:
            inputs.append(op.get("argv"))
    ready = _now()

    results = []
    json_bytes = 0
    last_witness = None
    loop_start = time.perf_counter()
    loops = [reference_loop()]
    since_loop = 0.0
    for op, arg in zip(ops, inputs):
        if since_loop >= LOOP_EVERY_S:
            loops.append(reference_loop())
            since_loop = 0.0
        if tracer:
            tracer.op_id = op["id"]
        if op["kind"] == "verify-witness":
            arg = _verify_argv(op, last_witness)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            if op["kind"] == "progression":
                n, kl = arg
                value = (
                    oracle.alpha_exact(n, kl),
                    oracle.beta_exact(n, kl),
                    oracle.gamma_exact(n, kl),
                    formulas.alpha_report(n, kl),
                    formulas.lambda_cyclic_via_alpha(n, kl, "exact"),
                )
                result = {"value": value}
            else:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(arg)
                result = {"exit": code, "out": out.getvalue(), "err": err.getvalue()}
        except Exception:  # an op that raises is a failed op, not a failed round
            result = {"error": traceback.format_exc(limit=3)}
        result["s"] = time.perf_counter() - start
        result["loop"] = len(loops) - 1  # the loop timed last before this op
        since_loop += result["s"]
        json_bytes += len(result.get("out", ""))
        if op.get("command") == "witness":
            last_witness = result.get("out")
        results.append(result)
    loops.append(reference_loop())
    wall_s = time.perf_counter() - loop_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    caches = tracing.cache_state()
    import checker

    for result in results:
        if "value" in result:
            a, b, c, rep, lam = result["value"]
            result["value"] = {
                "alpha": a, "beta": b, "gamma": c, "lambda": lam, "report": checker.report_fields(rep),
            }
    reply = {
        "ready": ready,
        "import_s": import_s,
        "wall_s": wall_s,
        "loops": loops,
        "rss_mb": rss_mb,
        "json_bytes": json_bytes,
        "caches": caches,
        "hygiene": hygiene,
        "results": results,
    }
    if tracer:
        reply["layers"] = tracing.layer_metrics(tracer, caches, json_bytes)
        if request.get("trace_path"):
            with open(request["trace_path"], "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


def _verify_argv(op: dict, witness_out) -> list[str]:
    """verify --json of the set the preceding witness op returned."""
    group, k, l = op["key"].split()
    members = json.loads(witness_out)["members"] if witness_out else []
    text = ",".join(str(m) if isinstance(m, int) else ":".join(map(str, m)) for m in members)
    return ["verify", "--group", group, "--k", k, "--l", l, "--set", text, "--json"]


if __name__ == "__main__":
    sys.exit(main())
