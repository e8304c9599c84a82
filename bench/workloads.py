"""Workload pools and seeded op lists.

Every pool is frozen in reference.json, recorded once on the seed commit,
so the op list of a (workload, seed) pair never depends on the program
under test.  Draws are stratified: the pool is sorted by a cost key and
cut into as many contiguous strata as there are ops, and the seed picks
one member per stratum.  Each seed thus sees the same spread of instance
costs, which keeps run-to-run totals comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# search: the oracle's DFS (lambda --method exact, count, enumerate);
# progressions-witness: the progression maxima, then the CLI on large
# groups (witness, verify, bounds), where the DFS is idle.
WORKLOADS = ("search", "progressions-witness")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

SEARCH_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (5, 2))
PROGRESSION_PAIRS = ((2, 1), (3, 1), (4, 1), (5, 2), (7, 3))

EXACT_MAX_ORDER = 40  # the oracle's DEFAULT_LIMIT_EXACT
COUNT_MAX_ORDER = 28  # DEFAULT_LIMIT_COUNT
ENUMERATE_MAX_ORDER = 36
AP_MAX_N = 2000  # DEFAULT_LIMIT_AP

# Instances whose seed-commit time exceeds this are left out of the search
# pools: a handful of them would take most of a round, and which of them a
# seed drew would then decide the round time.
SEARCH_COST_CAP_MS = 400.0

EXACT_OPS = 120
COUNT_OPS = 60
ENUMERATE_OPS = 60
PROGRESSION_OPS = 200
WITNESS_STRATA = 20  # five CLI ops each

# witness ops: stratum i holds one group, of order nearest
# 1000 * 20**(i/19).  Its shape (prefix factors before the last invariant
# factor) cycles with i, and its (k,l) pair follows a Latin square over
# the shapes.  The groups are the same for every seed, because table
# memory and witness cost depend on the divisors of the order, which
# differ widely between neighbouring orders; the seed draws the random
# sets and the order of the instances.
WITNESS_MIN_ORDER = 1000
WITNESS_MAX_ORDER = 20000
WITNESS_SHAPES = ((2,), (3,), (2, 2), (4,), ())
RANDOM_SET_SIZE = 8


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def instance_key(group: str, k: int, l: int) -> str:
    return f"{group} {k} {l}"


def split_key(key: str) -> tuple[str, int, int]:
    group, k, l = key.split()
    return group, int(k), int(l)


def group_factors(group: str) -> tuple[int, ...]:
    return tuple(int(f) for f in group.split("x"))


def witness_target(i: int) -> float:
    return WITNESS_MIN_ORDER * (WITNESS_MAX_ORDER / WITNESS_MIN_ORDER) ** (i / (WITNESS_STRATA - 1))


def witness_group(i: int) -> str:
    """The group of stratum i; its last invariant factor is a multiple of
    lcm(prefix, 4)."""
    prefix = WITNESS_SHAPES[i % len(WITNESS_SHAPES)]
    lead = math.prod(prefix)
    step = math.lcm(lead, 4)
    target = witness_target(i)
    orders = [
        lead * m
        for m in range(step, WITNESS_MAX_ORDER // lead + 1, step)
        if WITNESS_MIN_ORDER <= lead * m <= WITNESS_MAX_ORDER
    ]
    n = min(orders, key=lambda n: (abs(n - target), n))
    return "x".join(str(f) for f in prefix + (n // lead,))


def witness_pair(i: int) -> tuple[int, int]:
    return SEARCH_PAIRS[(i + i // len(WITNESS_SHAPES)) % len(SEARCH_PAIRS)]


def stratified(items: list, count: int, rng: random.Random) -> list:
    """One seeded pick from each of count contiguous strata of items."""
    if count >= len(items):
        return list(items)
    out = []
    for s in range(count):
        lo = s * len(items) // count
        hi = (s + 1) * len(items) // count
        out.append(items[rng.randrange(lo, hi)])
    return out


def _search_pool(section: dict) -> list[str]:
    keys = [k for k, v in section.items() if v["cost_ms"] <= SEARCH_COST_CAP_MS]
    return sorted(keys, key=lambda k: (section[k]["cost_ms"], k))


def cli_op(command: str, key: str, *extra: str) -> dict:
    group, k, l = split_key(key)
    argv = [command, "--group", group, "--k", str(k), "--l", str(l), *extra, "--json"]
    return {"kind": "cli", "command": command, "key": key, "argv": argv}


def _random_set(factors: tuple[int, ...], rng: random.Random) -> list[list[int]]:
    n = math.prod(factors)
    out = []
    for index in sorted(rng.sample(range(n), RANDOM_SET_SIZE)):
        coords = []
        for d in reversed(factors):
            coords.append(index % d)
            index //= d
        out.append(coords[::-1])
    return out


def _set_arg(members: list[list[int]]) -> str:
    return ",".join(":".join(str(c) for c in m) for m in members)


def _exact_ops(rng: random.Random, reference: dict, smoke: bool) -> list[dict]:
    keys = stratified(_search_pool(reference["exact"]), 4 if smoke else EXACT_OPS, rng)
    return [cli_op("lambda", k, "--method", "exact") for k in keys]


def _count_enumerate_ops(rng: random.Random, reference: dict, smoke: bool) -> list[dict]:
    counts = stratified(_search_pool(reference["count"]), 2 if smoke else COUNT_OPS, rng)
    enums = stratified(_search_pool(reference["enumerate"]), 2 if smoke else ENUMERATE_OPS, rng)
    return [cli_op("count", k) for k in counts] + [cli_op("enumerate", k) for k in enums]


def _progression_ops(rng: random.Random, smoke: bool) -> list[dict]:
    count = 4 if smoke else PROGRESSION_OPS
    top = 300 if smoke else AP_MAX_N
    ops = []
    # log-uniform strata over [2, top], kept in ascending n:
    # lambda_cyclic_via_alpha(n) reuses the cached maxima of the divisors
    # of n, and in this order every seed finds about the same share of
    # them cached.  The pairs take turns, so every seed puts the same pair
    # in each stratum and only n moves within its stratum.
    for s in range(count):
        k, l = PROGRESSION_PAIRS[s % len(PROGRESSION_PAIRS)]
        lo = math.ceil(2 * (top / 2) ** (s / count))
        hi = max(lo, math.floor(2 * (top / 2) ** ((s + 1) / count)))
        n = rng.randint(lo, hi)
        ops.append({"kind": "progression", "key": f"{n} {k} {l}", "n": n, "k": k, "l": l})
    return ops


def _witness_ops(rng: random.Random, smoke: bool) -> list[dict]:
    strata = range(0, WITNESS_STRATA, 6) if smoke else range(WITNESS_STRATA)
    instances = []
    for i in strata:
        group = witness_group(i)
        k, l = witness_pair(i)
        key = instance_key(group, k, l)
        ops = [
            cli_op("witness", key),
            # the worker fills in --set from the preceding witness output
            {"kind": "verify-witness", "command": "verify", "key": key},
        ]
        for _ in range(2):
            members = _random_set(group_factors(group), rng)
            ops.append(cli_op("verify", key, "--set", _set_arg(members)) | {"random_set": members})
        ops.append(cli_op("lambda", key, "--method", "bounds"))
        instances.append(ops)
    rng.shuffle(instances)
    return [op for inst in instances for op in inst]


def draw(workload: str, seed: int, reference: dict, smoke: bool = False) -> list[dict]:
    """The op list for one (workload, seed); smoke draws a few ops only.

    Each family of ops has its own generator, so the draw of one family
    does not depend on the others.
    """
    def rng(family: str) -> random.Random:
        return random.Random(f"{family}:{seed}")

    if workload == "search":
        ops = _exact_ops(rng("exact-search"), reference, smoke)
        ops += _count_enumerate_ops(rng("count-enumerate"), reference, smoke)
        rng(workload).shuffle(ops)
    elif workload == "progressions-witness":
        ops = _progression_ops(rng("progressions"), smoke) + _witness_ops(rng("witness-scale"), smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
