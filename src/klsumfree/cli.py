"""Command-line surface: formulas, witnesses, and exhaustive checks.

Exit codes: 0 success/verified, 1 verification negative (or scan
disagreements), 2 usage error (including "no closed form applies"),
3 resource limit exceeded: an oracle limit, or a group too large for a
mask of its elements (OverflowError or MemoryError).

Oracle limits honor the KLSF_LIMIT_EXACT / KLSF_LIMIT_COUNT environment
variables; an explicit --limit flag wins over them, and --force over
all.  --json output is deterministic: identical flags give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from operator import add, mul
from typing import Optional

from .abelian import (
    GroupSpec,
    all_abelian_groups,
    make_group,
    parse_group_spec,
)
from .formulas import (
    FormulaUnavailableError,
    KLParams,
    alpha_report,
    lambda_bounds_general,
    lambda_cyclic_21,
    lambda_formula,
    theorem16_condition,
)
from .oracle import DEFAULT_LIMIT_COUNT, DEFAULT_LIMIT_EXACT, LimitExceededError
from .oracle import alpha_exact, count_sum_free, enumerate_maximum, lambda_exact
from .sumset import Subset, _rows, _scatter, find_violation
from .witness import best_witness

SCHEMA = "klsumfree/1"

SCAN_CHECKS = ("bounds", "formula-vs-exact", "green-ruzsa", "theorem16", "lift-identity")

_SCAN_COLUMNS = ("group", "k", "l", "formula", "lower", "upper", "exact", "witness_size", "agree")

_DIGITS = b"0123456789"

_DEFAULT_LIMITS = {"EXACT": DEFAULT_LIMIT_EXACT, "COUNT": DEFAULT_LIMIT_COUNT}


def _payload(command: str, kl: KLParams, g: Optional[GroupSpec] = None, **fields) -> dict:
    """A --json document: the {schema, command, [group,] k, l} header plus fields."""
    head = {"schema": SCHEMA, "command": command, "k": kl.k, "l": kl.l}
    if g is not None:
        head["group"] = str(g)
    return {**head, **fields}


def _json_layout(value, pad: str = "") -> str:
    """value laid out as json lays it out with sorted keys and an indent
    of 2, pad being the indent of the line the value starts on.  json's
    indented encoder runs in pure Python, so containers are laid out here,
    each joined once into its text.  An int is written by int.__repr__,
    the bytes json writes for it; keys and the other scalars (bools,
    None, floats, strings) go through json.dumps, which encodes them in
    C.  A Subset is laid out as a list of its members, indices in a
    cyclic group and coordinate lists otherwise, straight from its
    indices (_members_layout).  A key that is not a str raises
    TypeError, where json would convert it to a string."""
    if type(value) is int:  # not bool, which json writes as true/false
        return int.__repr__(value)
    if isinstance(value, Subset):
        return _members_layout(value, pad)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        return f"[\n{inner}{sep.join([_json_layout(v, inner) for v in value])}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = pad + "  "
        sep = ",\n" + inner
        items = [f"{json.dumps(k)}: {_json_layout(value[k], inner)}" for k in sorted(value)]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    return json.dumps(value)


def _members_layout(s: Subset, pad: str) -> str:
    """The json layout of s's members: one row per member (sumset._rows),
    an index or a list of coordinates."""
    if not s.bits:
        return "[]"
    inner = pad + "  "
    cell = "\n" + inner + "  "
    rows = _rows(s.group, s.indices(), ",\n" + inner, "[" + cell, "," + cell, "\n" + inner + "]")
    return f"[\n{inner}{rows}\n{pad}]"


def _emit_json(payload: dict) -> None:
    out = sys.stdout
    out.write(_json_layout(payload))
    out.write("\n")


def _limit_value(text: str) -> int:
    """An oracle size limit: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"limit must be a non-negative integer, got {text!r}")
    return value


def _limit_for(args, kind: str) -> Optional[int]:
    """A command's oracle limit: None (no limit) under --force, else --limit,
    else KLSF_LIMIT_<kind>, else the oracle's default.  Without --limit, a
    malformed KLSF_LIMIT_<kind> is a usage error, under --force too."""
    name, limit = f"KLSF_LIMIT_{kind}", args.limit
    if limit is None and os.environ.get(name):
        try:
            limit = _limit_value(os.environ[name])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{name}: {exc}") from None
    if args.force:
        return None
    return _DEFAULT_LIMITS[kind] if limit is None else limit


def _limit_message(exc: LimitExceededError) -> str:
    return f"{exc}; use --limit N or --force"


def _kl(args) -> KLParams:
    return KLParams(args.k, args.l)


def _parse_set(g: GroupSpec, text: str) -> Subset:
    """A list of elements: "1,3,5" for cyclic groups, "0:1,1:1"
    (colon-joined coordinates) for product groups; empty items are skipped.

    Canonical text, ASCII digits with ":" and "," in the pattern the
    group needs, is checked in one pass (the text with its digits deleted
    must be that pattern) and read as one json list of its fields, which
    json's C scanner converts.  Each column of coordinates is then
    range-checked at once and the columns combine into indices.  Any
    other text, or text json rejects (leading zeros, an empty field, a
    numeral past int's digit limit) or a column out of range, goes
    element by element (int, then GroupSpec.checked_index), which accepts
    what int accepts (spaces, "+", "_", leading zeros, non-ASCII digits)
    and names the first bad element in list order.
    """
    text = text.strip()
    m, count = len(g.factors), text.count(",") + 1
    try:
        if text.encode().translate(None, _DIGITS) != ((b"," + b":" * (m - 1)) * count)[1:]:
            raise ValueError
        fields = json.loads("[" + text.replace(":", ",") + "]")
        place, indices = 1, None
        for j in reversed(range(m)):
            d = g.factors[j]
            column = fields[j::m]
            if max(column) >= d:  # max of no fields, from empty text, raises too
                raise ValueError
            if place > 1:
                column = map(mul, column, itertools.repeat(place))
            indices = column if indices is None else map(add, column, indices)
            place *= d
        return Subset(g, _scatter(g.n, indices))  # every column is in range
    except ValueError:
        pass
    indices = []
    for item in filter(None, text.split(",")):
        try:
            indices.append(g.checked_index([int(p) for p in item.split(":")]))
        except ValueError as exc:
            raise ValueError(f"element {item!r}: {exc}") from None
    return Subset.from_indices(g, indices)


def _group_name(g: GroupSpec) -> str:
    return "Z" + "xZ".join(str(f) for f in g.factors)


def _format_element(s: Subset) -> str:
    """The text form of a set: its members, "3" in a cyclic group and
    "(0,1,3)" in a product group (sumset._rows), in braces."""
    return "{" + _rows(s.group, s.indices(), ",", "(", ",", ")") + "}"


def _terms_pairs(terms: dict[int, int]) -> list[list[int]]:
    return [[d, t] for d, t in sorted(terms.items())]


# ---------------------------------------------------------------------------
# lambda

def cmd_lambda(args) -> int:
    g = parse_group_spec(args.group)
    kl = _kl(args)
    method = args.method
    payload = _payload("lambda", kl, g)
    if kl.diff % g.v == 0:
        payload["note"] = "the exponent divides k-l, so ka = la for every a and the maximum is 0"

    if method in ("formula", "all"):
        try:
            payload["formula"], payload["formula_basis"] = lambda_formula(g, kl)
        except FormulaUnavailableError as exc:
            if method == "formula":
                raise
            payload["formula"] = None
            payload["formula_note"] = str(exc)

    if method in ("bounds", "all"):
        rep = lambda_bounds_general(g, kl)
        payload["bounds"] = {
            "lower": rep.lower,
            "upper": rep.upper,
            "lower_terms": _terms_pairs(rep.lower_terms),
            "upper_terms": _terms_pairs(rep.upper_terms),
            "argmax_lower": rep.argmax_lower,
            "argmax_upper": rep.argmax_upper,
            "degenerate": rep.degenerate,
        }

    if method in ("exact", "all"):
        try:
            res = lambda_exact(g, kl, limit=_limit_for(args, "EXACT"))
            payload["exact"] = {
                "value": res.max_size,
                "nodes_explored": res.nodes_explored,
                "witness": res.witness,
            }
        except LimitExceededError as exc:
            if method == "exact":
                raise
            payload["exact"] = None
            payload["exact_note"] = _limit_message(exc)

    if args.json:
        _emit_json(payload)
        return 0
    lines = [f"group {_group_name(g)}, (k,l)=({kl.k},{kl.l})"]
    if "note" in payload:
        lines.append("note: v divides k-l; the maximum is 0")
    if "formula" in payload:
        if payload["formula"] is None:
            lines.append(f"formula: unavailable ({payload['formula_note']})")
        else:
            lines.append(f"formula: {payload['formula']}  ({payload['formula_basis']})")
    if "bounds" in payload:
        lines.append(
            f"bounds: [{rep.lower}, {rep.upper}]"
            + (
                f"  (lower at d={rep.argmax_lower}, upper at d={rep.argmax_upper})"
                if not rep.degenerate
                else "  (degenerate: v divides k-l)"
            )
        )
        if method == "bounds" and not rep.degenerate:
            lines.append("per-divisor terms (divisor: lower-term / upper-term):")
            for d in sorted(set(rep.lower_terms) | set(rep.upper_terms)):
                lo = rep.lower_terms.get(d, "-")
                up = rep.upper_terms.get(d, "-")
                lines.append(f"  d={d}: {lo} / {up}")
    if "exact" in payload:
        exact = payload["exact"]
        if exact is None:
            lines.append(f"exact: skipped ({payload['exact_note']})")
        else:
            lines.append(
                f"exact: {exact['value']}  (witness {_format_element(exact['witness'])}, "
                f"{exact['nodes_explored']} nodes)"
            )
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# witness / verify

def cmd_witness(args) -> int:
    g = parse_group_spec(args.group)
    kl = _kl(args)
    w = best_witness(g, kl)
    base = w.base  # best_witness keeps a base, an interval, only with its certificate
    if args.json:
        construction = {"kind": "empty", "params": {}, "certificate": None}
        if base is not None:
            construction = {
                "kind": "lifted-interval",
                "params": {"modulus": base.modulus, "start": base.start, "difference": base.difference},
                "certificate": base.certificate._asdict(),
            }
        _emit_json(_payload("witness", kl, g, size=w.size, members=w.members, construction=construction))
        return 0
    print(f"group {_group_name(g)}, (k,l)=({kl.k},{kl.l})")
    print(f"witness size {w.size}: {_format_element(w.members)}")
    if w.divisor is not None:
        print(f"built from quotient modulus d={w.divisor}")
    if base is not None:
        c = base.certificate
        print(
            f"progression start {base.start}, length {base.size}; "
            f"certificate q={c.q} r={c.r} u={c.u} w={c.w}"
        )
    return 0


def cmd_verify(args) -> int:
    g = parse_group_spec(args.group)
    kl = _kl(args)
    subset = _parse_set(g, args.set)
    violation = find_violation(subset, kl.k, kl.l)  # None exactly when the set is sum-free
    ok = violation is None
    if args.json:
        tuples = None
        if violation is not None:
            # coordinate lists, in a cyclic group too
            ktuple, ltuple = (list(map(list, g.coords_of_all(t))) for t in violation)
            tuples = {"k_tuple": ktuple, "l_tuple": ltuple}
        _emit_json(_payload("verify", kl, g, set=subset, sum_free=ok, violation=tuples))
    elif ok:
        print(f"{_format_element(subset)} is ({kl.k},{kl.l})-sum-free in {_group_name(g)}")
    else:
        identity = " = ".join(_rows(g, t, "+", "(", ",", ")") for t in violation)
        print(
            f"{_format_element(subset)} is NOT ({kl.k},{kl.l})-sum-free in {_group_name(g)}: "
            f"{identity}"
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# alpha / count / enumerate

def cmd_alpha(args) -> int:
    kl = _kl(args)
    rep = alpha_report(args.n, kl)
    payload = _payload(
        "alpha",
        kl,
        n=args.n,
        case=rep.case_tag,
        exact_formula=rep.exact,
        lower=rep.lower,
        upper=rep.upper,
        beta_bounds=list(rep.beta_bounds),
        gamma_bounds=list(rep.gamma_bounds),
    )
    lines = [f"longest ({kl.k},{kl.l})-sum-free progression in Z_{args.n} [case: {rep.case_tag}]"]
    if rep.exact is not None:
        lines.append(f"value: {rep.exact}")
    else:
        lines.append(f"bounds: [{rep.lower}, {rep.upper}]")
    lines.append(f"restricted-difference bounds: shared-factor {rep.beta_bounds}, coprime {rep.gamma_bounds}")
    if args.exact:
        value = alpha_exact(args.n, kl)
        payload["exact_search"] = value
        lines.append(f"search value: {value}")
    if args.json:
        _emit_json(payload)
    else:
        print("\n".join(lines))
    return 0


def cmd_count(args) -> int:
    g = parse_group_spec(args.group)
    kl = _kl(args)
    res = count_sum_free(g, kl, limit=_limit_for(args, "COUNT"))
    if args.json:
        by_size = {str(s): c for s, c in res.by_size.items()}
        _emit_json(_payload("count", kl, g, total=res.total, by_size=by_size))
    else:
        print(f"{res.total} ({kl.k},{kl.l})-sum-free subsets in {_group_name(g)}")
        for s, c in res.by_size.items():
            print(f"  size {s}: {c}")
    return 0


def cmd_enumerate(args) -> int:
    g = parse_group_spec(args.group)
    kl = _kl(args)
    sets = enumerate_maximum(g, kl, limit=_limit_for(args, "EXACT"))
    lam = sets[0].size  # at least one set: the empty set when the maximum is 0
    if args.json:
        _emit_json(_payload("enumerate", kl, g, max_size=lam, count=len(sets), sets=sets))
    else:
        print(f"{len(sets)} maximum ({kl.k},{kl.l})-sum-free sets of size {lam} in {_group_name(g)}:")
        for s in sets:
            print(f"  {_format_element(s)}")
    return 0


# ---------------------------------------------------------------------------
# scan

def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:  # no "..", more than one, or an end that is no int
        raise ValueError(f"range must look like 2..36, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"range {text!r} is empty: {lo} > {hi}")
    if hi < 2:
        raise ValueError(f"range {text!r} holds no order >= 2")
    return max(2, lo), hi


def _scan_instances(args) -> list[GroupSpec]:
    # --family all-abelian goes with --order and with nothing else
    if args.order is not None and args.family is None:
        raise ValueError("--order requires --family all-abelian")
    if args.n is not None and args.family is not None:
        raise ValueError("--family all-abelian requires --order, not --n")
    if args.n is not None:
        lo, hi = _parse_range(args.n)
        return [make_group([m]) for m in range(lo, hi + 1)]
    lo, hi = _parse_range(args.order)
    return all_abelian_groups(hi, min_order=lo)


def _scan_row(g: GroupSpec, kl: KLParams, checks: list[str], limit: Optional[int]) -> dict:
    rep = lambda_bounds_general(g, kl)
    wsize = best_witness(g, kl).size
    try:
        formula, _ = lambda_formula(g, kl)
    except FormulaUnavailableError:
        formula = None
    row: dict = {
        "group": str(g),
        "k": kl.k,
        "l": kl.l,
        "formula": formula,
        "lower": rep.lower,
        "upper": rep.upper,
        "exact": None,
        "witness_size": wsize,
        "agree": None,
    }
    try:
        exact = lambda_exact(g, kl, limit=limit).max_size
    except LimitExceededError:
        return row
    row["exact"] = exact

    results = []
    for check in checks:
        if check == "bounds":
            results.append(rep.lower <= exact <= rep.upper and wsize == rep.lower)
        elif check == "formula-vs-exact":
            if formula is not None:
                results.append(formula == exact)
        elif check == "green-ruzsa":
            if (kl.k, kl.l) == (2, 1):
                results.append(lambda_cyclic_21(g.v) * (g.n // g.v) == exact)
        elif check == "lift-identity" or (
            check == "theorem16" and theorem16_condition(g.v, kl).holds
        ):
            lam_v = lambda_exact(make_group([g.v]), kl, limit=limit).max_size
            results.append(lam_v * (g.n // g.v) == exact)
    # a row that no requested check applies to is skipped, not agreed
    row["agree"] = all(results) if results else None
    return row


def _csv_cell(value):
    """None is an empty cell and booleans are lowercase, as in the JSON rows."""
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else value


def cmd_scan(args) -> int:
    kl = _kl(args)
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    if not checks:
        raise ValueError(f"no check given; available: {', '.join(SCAN_CHECKS)}")
    for c in checks:
        if c not in SCAN_CHECKS:
            raise ValueError(f"unknown check {c!r}; available: {', '.join(SCAN_CHECKS)}")
    limit = _limit_for(args, "EXACT")
    instances = _scan_instances(args)
    rows = [_scan_row(g, kl, checks, limit) for g in instances]
    disagreements = sum(1 for r in rows if r["agree"] is False)
    skipped = sum(1 for r in rows if r["agree"] is None)
    if args.json:
        _emit_json(
            _payload(
                "scan",
                kl,
                checks=checks,
                rows=rows,
                instances=len(rows),
                disagreements=disagreements,
                skipped=skipped,
            )
        )
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(_SCAN_COLUMNS)
        for r in rows:
            writer.writerow([_csv_cell(r[c]) for c in _SCAN_COLUMNS])
        print(
            f"scanned {len(rows)} instances: {disagreements} disagreements, {skipped} skipped",
            file=sys.stderr,
        )
    return 1 if disagreements else 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p, group=True, limit=True):
    if group:
        p.add_argument("--group", required=True, help='group spec: "10" or "2x4x8"')
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if limit:
        p.add_argument("--limit", type=_limit_value, default=None, help="override the oracle size limit")
        p.add_argument("--force", action="store_true", help="ignore the oracle size limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klsf",
        description="maximum (k,l)-sum-free sets: formulas, witnesses, exhaustive checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="maximum (k,l)-sum-free set size")
    _add_common(p)
    p.add_argument(
        "--method",
        choices=["formula", "bounds", "exact", "all"],
        default="all",
    )
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("witness", help="construct a certified witness set")
    _add_common(p, limit=False)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="check a user-supplied set")
    _add_common(p, limit=False)
    p.add_argument("--set", required=True, help='elements: "1,3,5" (cyclic) or "0:1,1:1"')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("alpha", help="longest sum-free arithmetic progression in Z_n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, group=False, limit=False)
    p.add_argument("--exact", action="store_true", help="also compute the exact value")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("count", help="count all (k,l)-sum-free subsets")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list all maximum (k,l)-sum-free sets")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("scan", help="sweep instances and cross-check values")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", default=None, help="cyclic order range, e.g. 2..36")
    src.add_argument("--order", default=None, help="with --family: order range, e.g. 2..16")
    p.add_argument("--family", choices=["all-abelian"], default=None)
    _add_common(p, group=False)
    p.add_argument("--check", default="bounds", help=f"comma list of: {', '.join(SCAN_CHECKS)}")
    p.set_defaults(func=cmd_scan)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main() call (not at
    import).  parse_args returns a fresh Namespace and resolves sys.stdout,
    sys.stderr and the terminal width when it prints, so calls share no
    state; limits and KLSF_LIMIT_* are read per call by _limit_for."""
    return build_parser()


def _too_large(args) -> str:
    """What a command that overflowed or ran out of memory could not hold.
    A subset is a mask of n bits.  find_violation keeps the k sumset
    layers 0A..(k-1)A of a set that is not sum-free, so verify with a k
    above the group's order names k;
    the exact searches run at a k below n + v (oracle._reduced), so every
    other command names the group."""
    if args.command == "verify" and args.k > parse_group_spec(args.group).n:
        return "k too large: the sumset layers 1A..kA do not fit in memory"
    return "group too large: its subsets do not fit in memory"


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except LimitExceededError as exc:
        print(f"error: {_limit_message(exc)}", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError):
        print(f"error: {_too_large(args)}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
