"""Independent checks of every op's output.

Nothing here imports klsumfree.  Returned sets are re-verified with
brute-force residue arithmetic on coordinate tuples; lifted witnesses of
large groups are checked through their construction: the progression in
Z_d must be (k,l)-sum-free, and the members must be exactly its preimage
under x -> (last coordinate mod d).  Expected values come from
reference.json, recorded on the seed commit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

from workloads import group_factors, split_key


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sets_digest(sets: list) -> str:
    """Order-insensitive digest of a list of set payloads."""
    return digest(sorted(sorted(s) for s in sets))


def report_fields(rep) -> dict:
    return {
        "case_tag": rep.case_tag,
        "exact": rep.exact,
        "lower": rep.lower,
        "upper": rep.upper,
        "beta_bounds": list(rep.beta_bounds),
        "gamma_bounds": list(rep.gamma_bounds),
    }


# ---------------------------------------------------------------------------
# brute-force group arithmetic

def _coords(item, factors) -> tuple[int, ...]:
    coords = (item,) if isinstance(item, int) else tuple(item)
    if len(coords) != len(factors) or not all(0 <= c < d for c, d in zip(coords, factors)):
        raise ValueError(f"element {item!r} is not in the group {factors}")
    return coords


def _add(x, y, factors):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def _h_fold(elements, h, factors) -> set:
    out = {(0,) * len(factors)}
    for _ in range(h):
        out = {_add(s, a, factors) for s in out for a in elements}
    return out


def kl_sum_free(elements, k: int, l: int, factors) -> bool:
    """kA and lA disjoint, by listing both sumsets."""
    if not elements:
        return True
    return not (_h_fold(elements, k, factors) & _h_fold(elements, l, factors))


def _members(payload, factors) -> list[tuple[int, ...]]:
    members = [_coords(x, factors) for x in payload]
    if len(set(members)) != len(members):
        raise ValueError("repeated member")
    return members


def _check_sum_free_set(payload, size, k, l, factors) -> None:
    members = _members(payload, factors)
    if len(members) != size:
        raise ValueError(f"set has {len(members)} members, expected {size}")
    if not kl_sum_free(members, k, l, factors):
        raise ValueError(f"set {payload} is not ({k},{l})-sum-free")


def _check_lifted(payload: dict, k: int, l: int, factors) -> None:
    members = _members(payload["members"], factors)
    if payload["size"] != len(members):
        raise ValueError("size does not match the member count")
    construction = payload["construction"]
    n, v = math.prod(factors), factors[-1]
    if construction["kind"] == "empty":
        if members or (k - l) % v:
            raise ValueError("empty construction for a group with a nonempty maximum")
        return
    if not construction["kind"].startswith("lifted-"):
        raise ValueError(f"unexpected construction {construction['kind']!r}")
    params = construction["params"]
    d, start, step = params["modulus"], params["start"], params["difference"]
    if d < 2 or v % d or (len(members) * d) % n:
        raise ValueError(f"modulus {d} does not fit the group")
    length = len(members) * d // n
    progression = {(start + i * step) % d for i in range(length)}
    if len(progression) != length:
        raise ValueError("progression repeats a residue")
    # hP of a progression P = {a + i*q : 0 <= i < c} is {h*a + j*q : 0 <= j <= h*(c-1)}
    k_sums = {(k * start + j * step) % d for j in range(k * (length - 1) + 1)}
    l_sums = {(l * start + j * step) % d for j in range(l * (length - 1) + 1)}
    if k_sums & l_sums:
        raise ValueError(f"progression in Z_{d} is not ({k},{l})-sum-free")
    preimage = {x for x in itertools.product(*(range(f) for f in factors)) if x[-1] % d in progression}
    if preimage != set(members):
        raise ValueError("members are not the preimage of the progression")


def _check_violation(violation: dict, members, k, l, factors) -> None:
    kt = [_coords(x, factors) for x in violation["k_tuple"]]
    lt = [_coords(x, factors) for x in violation["l_tuple"]]
    zero = (0,) * len(factors)
    ksum, lsum = zero, zero
    for x in kt:
        ksum = _add(ksum, x, factors)
    for x in lt:
        lsum = _add(lsum, x, factors)
    inside = set(members)
    if len(kt) != k or len(lt) != l or ksum != lsum or not set(kt + lt) <= inside:
        raise ValueError("violation is not a valid identity in the set")


# ---------------------------------------------------------------------------
# per-op checks

def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(what)


def _check_cli(op: dict, result: dict, reference: dict) -> None:
    group, k, l = split_key(op["key"])
    factors = group_factors(group)
    command = op["command"]
    expected_exit = 0
    if command == "verify" and "random_set" in op:
        members = [tuple(m) for m in op["random_set"]]
        sum_free = kl_sum_free(members, k, l, factors)
        expected_exit = 0 if sum_free else 1
    _expect(result["exit"] == expected_exit, f"exit code {result['exit']}, expected {expected_exit}")
    out = json.loads(result["out"])
    _expect((out["command"], out["group"], out["k"], out["l"]) == (command, group, k, l), "header mismatch")
    if command == "lambda" and "exact" in op["argv"]:
        ref = reference["exact"][op["key"]]
        exact = out["exact"]
        _expect(exact["value"] == ref["value"], f"lambda {exact['value']}, expected {ref['value']}")
        _check_sum_free_set(exact["witness"], ref["value"], k, l, factors)
    elif command == "lambda":
        ref = reference["witness"][op["key"]]
        bounds = out["bounds"]
        _expect((bounds["lower"], bounds["upper"]) == (ref["lower"], ref["upper"]), "bounds differ")
        _expect(digest(bounds) == ref["bounds_sha"], "per-divisor bound terms differ")
    elif command == "count":
        ref = reference["count"][op["key"]]
        _expect(out["total"] == ref["total"] and out["by_size"] == ref["by_size"], "counts differ")
    elif command == "enumerate":
        ref = reference["enumerate"][op["key"]]
        _expect((out["max_size"], out["count"]) == (ref["max_size"], ref["count"]), "maximum or count differs")
        _expect(sets_digest(out["sets"]) == ref["sets_sha"], "enumerated sets differ")
        for s in out["sets"]:
            _check_sum_free_set(s, ref["max_size"], k, l, factors)
    elif command == "witness":
        ref = reference["witness"][op["key"]]
        _expect(out["size"] == ref["size"], f"witness size {out['size']}, expected {ref['size']}")
        _check_lifted(out, k, l, factors)
    elif command == "verify":
        members = _members(out["set"], factors)
        if "random_set" in op:
            _expect(sorted(members) == sorted(map(tuple, op["random_set"])), "set echo differs")
            _expect(out["sum_free"] == (expected_exit == 0), "wrong verdict")
            if not out["sum_free"]:
                _check_violation(out["violation"], members, k, l, factors)
        else:
            _expect(out["sum_free"] is True and out["violation"] is None, "witness not verified")
            _expect(members == _members(result["witness_members"], factors), "set echo differs")
    else:
        raise ValueError(f"unknown command {command!r}")


def _check_progression(op: dict, result: dict, reference: dict) -> None:
    row = reference["progressions"][f"{op['k']} {op['l']}"][op["n"]]
    value = result["value"]
    got = [value["alpha"], value["beta"], value["gamma"], value["lambda"]]
    _expect(got == row[:4], f"alpha/beta/gamma/lambda {got}, expected {row[:4]}")
    report = value["report"]
    _expect(digest(report) == row[4], "alpha_report differs")
    _expect(report["lower"] <= value["alpha"] <= report["upper"], "alpha outside the report bounds")


def check_op(op: dict, result: dict, reference: dict) -> str | None:
    """None when the op's output is right, else a one-line reason."""
    if "error" in result:
        return result["error"]
    try:
        if op["kind"] == "progression":
            _check_progression(op, result, reference)
        else:
            _check_cli(op, result, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
