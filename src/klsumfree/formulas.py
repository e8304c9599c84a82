"""Closed-form values and bounds for maximum (k,l)-sum-free set sizes.

lambda_{k,l}(G) denotes the maximum size of a (k,l)-sum-free subset of G.
The functions here evaluate the known exact formulas (cyclic groups for
(2,1) and (3,1), and the coprime case gcd(n, k-l) = 1) and the general
divisor-maximum bounds, exposing per-divisor terms so results can be
audited and cross-checked against exhaustive search.

Wherever a value has both a case form and a divisor-maximum form, both are
computed and asserted equal, so a transcription slip in either one fails
loudly instead of silently skewing results.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .abelian import GroupSpec, divisors, make_group, prime_factors

__all__ = [
    "KLParams",
    "BoundReport",
    "AlphaReport",
    "BetaReport",
    "GammaBounds",
    "Theorem16Result",
    "ClassReport31",
    "FormulaUnavailableError",
    "delta",
    "lambda_bounds_general",
    "lambda_cyclic_21",
    "lambda_cyclic_31",
    "alpha_21",
    "alpha_31",
    "beta_report",
    "gamma_bounds",
    "alpha_report",
    "lambda_cyclic_via_alpha",
    "hp_general_bounds",
    "theorem16_condition",
    "lambda_31_class_report",
    "lambda_formula",
]


class FormulaUnavailableError(ValueError):
    """Raised when only bounds, not an exact closed form, are known."""


class _KLFields(NamedTuple):
    k: int
    l: int


class KLParams(_KLFields):
    """The parameter pair (k, l) with k > l >= 1."""

    __slots__ = ()

    def __new__(cls, k: int, l: int):
        if not (isinstance(k, int) and isinstance(l, int)):
            raise ValueError(f"k and l must be integers, got {k!r}, {l!r}")
        if not k > l >= 1:
            raise ValueError(f"need k > l >= 1, got k={k}, l={l}")
        return tuple.__new__(cls, (k, l))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__'s check
        return cls(*iterable)

    @property
    def diff(self) -> int:
        return self.k - self.l

    @property
    def weight(self) -> int:
        return self.k + self.l


def delta(d: int, kl: KLParams) -> int:
    """gcd(d, k - l): how far translation by d can be corrected mod k - l."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return gcd(d, kl.diff)


# ---------------------------------------------------------------------------
# general divisor-maximum bounds

class BoundReport(NamedTuple):
    """Per-divisor evaluation of the general lower/upper bounds.

    lower ranges over divisors of the exponent v, upper over divisors of n.
    Negative bracket terms (tiny divisors) are clamped to 0.  degenerate
    marks the case v | k - l, where every element a has ka = la and the
    maximum is exactly 0; upper_terms is left empty there.
    """

    lower: int
    upper: int
    lower_terms: dict[int, int]
    upper_terms: dict[int, int]
    argmax_lower: Optional[int]
    argmax_upper: Optional[int]
    degenerate: bool = False


def _lower_term(d: int, kl: KLParams) -> int:
    """Interval length floor((d-1-delta)/(k+l)) + 1 in Z_d, clamped at 0."""
    return max(0, (d - 1 - delta(d, kl)) // kl.weight + 1)


def _upper_term(d: int, kl: KLParams) -> int:
    """floor((d-2)/(k+l)) + 1, clamped at 0: the per-divisor upper term."""
    return max(0, (d - 2) // kl.weight + 1)


def lambda_bounds_general(g: GroupSpec, kl: KLParams) -> BoundReport:
    """Sandwich max-over-divisors bounds for lambda_{k,l}(G)."""
    n, v = g.n, g.v
    lower_terms = {d: _lower_term(d, kl) * (n // d) for d in divisors(v)}
    if kl.diff % v == 0:
        return BoundReport(
            lower=0,
            upper=0,
            lower_terms=lower_terms,
            upper_terms={},
            argmax_lower=None,
            argmax_upper=None,
            degenerate=True,
        )
    upper_terms = {d: _upper_term(d, kl) * (n // d) for d in divisors(n)}
    lower = max(lower_terms.values())
    upper = max(upper_terms.values())
    argmax_lower = min(d for d, t in lower_terms.items() if t == lower)
    argmax_upper = min(d for d, t in upper_terms.items() if t == upper)
    return BoundReport(
        lower=lower,
        upper=upper,
        lower_terms=lower_terms,
        upper_terms=upper_terms,
        argmax_lower=argmax_lower,
        argmax_upper=argmax_upper,
    )


# ---------------------------------------------------------------------------
# exact cyclic values for (2,1) and (3,1)

def lambda_cyclic_21(n: int) -> int:
    """Maximum size of a sum-free set in Z_n.

    Divisor form: max over d | n of floor((d+1)/3) * n/d.  Case form:
    (p+1)/p * n/3 with p the smallest prime divisor congruent to 2 mod 3,
    else floor(n/3).  Both are computed and must agree.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    max_form = max((d + 1) // 3 * (n // d) for d in divisors(n))
    p = next((q for q in sorted(prime_factors(n)) if q % 3 == 2), None)
    case_form = (p + 1) * n // (3 * p) if p is not None else n // 3
    if max_form != case_form:
        raise AssertionError(
            f"sum-free formula mismatch at n={n}: {max_form} vs {case_form}"
        )
    return max_form


def lambda_cyclic_31(n: int) -> int:
    """Maximum size of a (3,1)-sum-free set in Z_n.

    Divisor form: max over d | n with d not congruent to 2 mod 4 of
    floor((d+2)/4) * n/d.  Case form: (p+1)/p * n/4 with p the smallest
    prime divisor congruent to 3 mod 4, else floor(n/4).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    max_form = max(
        ((d + 2) // 4 * (n // d) for d in divisors(n) if d % 4 != 2), default=0
    )
    p = next((q for q in sorted(prime_factors(n)) if q % 4 == 3), None)
    case_form = (p + 1) * n // (4 * p) if p is not None else n // 4
    if max_form != case_form:
        raise AssertionError(
            f"(3,1) formula mismatch at n={n}: {max_form} vs {case_form}"
        )
    return max_form


# ---------------------------------------------------------------------------
# longest sum-free arithmetic progressions in Z_n
#
# alpha = any difference, beta = difference sharing a factor with n,
# gamma = difference coprime to n; alpha = max(beta, gamma).

def alpha_21(n: int) -> int:
    """Longest sum-free progression in Z_n: n/2 if n even, else floor((n+1)/3)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return n // 2 if n % 2 == 0 else (n + 1) // 3


def alpha_31(n: int) -> int:
    """Longest (3,1)-sum-free progression in Z_n.

    n/3 when 3 | n; floor((n+2)/4) when 3 does not divide n and
    n is not 2 mod 8; (n-2)/4 when 3 does not divide n and n is 2 mod 8.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n % 3 == 0:
        return n // 3
    if n % 8 == 2:
        return (n - 2) // 4
    return (n + 2) // 4


class BetaReport(NamedTuple):
    lower: int
    upper: int
    case_tag: str


def beta_report(n: int, kl: KLParams) -> BetaReport:
    """Bounds for the longest (k,l)-sum-free progression whose difference
    shares a factor with n.

    rho1 is the smallest divisor d > 1 of n that does not divide k-l, and
    rho2 the smallest that does.  Exact when n | k-l (zero) or
    gcd(n, k-l) = 1 (n/rho1, rho1 then being the smallest prime divisor);
    otherwise sandwiched between n/rho1 and max(n/rho1, floor(n/(2 rho2))).
    The n/(2 rho2) term is floored: it bounds a cardinality.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if kl.diff % n == 0:
        return BetaReport(0, 0, "divides")
    diff, above_1 = kl.diff, divisors(n)[1:]  # ascending
    rho1 = next(d for d in above_1 if diff % d)
    if gcd(n, diff) == 1:
        return BetaReport(n // rho1, n // rho1, "coprime")
    rho2 = next(d for d in above_1 if diff % d == 0)
    lower = n // rho1
    return BetaReport(lower, max(lower, n // (2 * rho2)), "intermediate")


class GammaBounds(NamedTuple):
    lower: int
    upper: int


def gamma_bounds(n: int, kl: KLParams) -> GammaBounds:
    """Bounds for the longest (k,l)-sum-free progression with difference
    coprime to n: floor((n-1-delta)/(k+l)) + 1 up to floor((n-2)/(k+l)) + 1,
    delta = gcd(n, k-l).  The lower term is clamped at 0 for degenerate n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return GammaBounds(_lower_term(n, kl), _upper_term(n, kl))


class AlphaReport(NamedTuple):
    """Longest (k,l)-sum-free progression in Z_n: exact value or bounds.

    case_tag is "divides" (n | k-l, exact 0), "coprime" (gcd(n,k-l) = 1,
    exact), or "intermediate" (only bounds are known; exact values must
    come from search).  When exact is set, lower == upper == exact.
    """

    case_tag: str
    exact: Optional[int]
    lower: int
    upper: int
    beta_bounds: tuple[int, int]
    gamma_bounds: tuple[int, int]


def alpha_report(n: int, kl: KLParams) -> AlphaReport:
    beta = beta_report(n, kl)
    gamma = gamma_bounds(n, kl)
    if beta.case_tag == "intermediate":
        exact, lower, upper = None, max(beta.lower, gamma.lower), max(beta.upper, gamma.upper)
    else:
        exact = 0 if beta.case_tag == "divides" else max(beta.lower, gamma.upper)
        lower = upper = exact
    return AlphaReport(beta.case_tag, exact, lower, upper, (beta.lower, beta.upper), tuple(gamma))


def _alpha_formula_exact(d: int, kl: KLParams) -> int:
    """Exact longest-progression value for Z_d, or raise if only bounds exist."""
    if d == 1:
        return 0
    if (kl.k, kl.l) == (2, 1):
        return alpha_21(d)
    if (kl.k, kl.l) == (3, 1):
        return alpha_31(d)
    rep = alpha_report(d, kl)
    if rep.exact is None:
        raise FormulaUnavailableError(
            f"no closed form for the longest (k,l)-sum-free progression in Z_{d} "
            f"with (k,l)=({kl.k},{kl.l}): 1 < gcd({d},{kl.diff}) < {d} gives only "
            f"bounds [{rep.lower}, {rep.upper}]; use the exhaustive search instead"
        )
    return rep.exact


def lambda_cyclic_via_alpha(n: int, kl: KLParams, alpha_source: str = "formula") -> int:
    """lambda_{k,l}(Z_n) as max over d | n of alpha_{k,l}(Z_d) * n/d.

    alpha_source "formula" uses the closed forms (total for (2,1)/(3,1),
    otherwise only where each divisor lands in an exact case);
    "exact" takes every per-divisor value from the oracle's progression
    maxima (oracle.alpha_exact).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if alpha_source == "formula":
        alpha = lambda d: _alpha_formula_exact(d, kl)
    elif alpha_source == "exact":
        from .oracle import alpha_exact

        alpha = lambda d: alpha_exact(d, kl)
    else:
        raise ValueError(f"alpha_source must be 'formula' or 'exact', got {alpha_source!r}")
    # ascending d, so the first divisor without a value raises first
    return hp_general_bounds(make_group([n]), kl, {d: alpha(d) for d in divisors(n)})[0]


def hp_general_bounds(
    g: GroupSpec, kl: KLParams, alpha_values: dict[int, int]
) -> tuple[int, int]:
    """Bounds for lambda_{k,l}(G) from per-divisor progression maxima.

    alpha_values must map every divisor d of the exponent v to
    alpha_{k,l}(Z_d).  lower = max alpha(d) * n/d; upper adds the global
    term floor((n - eps)/(k+l)) with eps = 1 for odd n, 0 for even n.
    """
    n, v = g.n, g.v
    if kl.diff % v == 0:
        return (0, 0)
    missing = [d for d in divisors(v) if d not in alpha_values]
    if missing:
        raise ValueError(f"alpha_values missing divisors of v={v}: {missing}")
    lower = max(alpha_values[d] * (n // d) for d in divisors(v))
    eps = n % 2
    upper = max((n - eps) // kl.weight, lower)
    return (lower, upper)


class Theorem16Result(NamedTuple):
    holds: bool
    witness_divisor: Optional[int]


def theorem16_condition(v: int, kl: KLParams) -> Theorem16Result:
    """Sufficient condition for lambda_{k,l}(G) = lambda_{k,l}(Z_v) * n/v.

    Holds when some divisor d of v is not congruent mod k+l to any integer
    in [1, gcd(d, k-l)].  Returns the smallest such divisor.
    """
    if v < 2:
        raise ValueError(f"v must be >= 2, got {v}")
    w = kl.weight
    for d in divisors(v):
        residue = d % w
        if residue not in {j % w for j in range(1, delta(d, kl) + 1)}:
            return Theorem16Result(True, d)
    return Theorem16Result(False, None)


# ---------------------------------------------------------------------------
# the six-way divisor classification behind the (3,1) cyclic value

class ClassReport31(NamedTuple):
    """Divisors of n > 1 split into six residue classes, with the best
    (3,1) progression-times-cosets value from each.

    Classes (3|d; d=3 mod 4, 3 not | d; 4|d, 3 not | d; d=1 mod 4, 3 not | d;
    d=6 mod 8, 3 not | d; d=2 mod 8, 3 not | d) contribute d/3, (d+1)/4,
    d/4, (d-1)/4, (d+2)/4, (d-2)/4 progressions respectively, each worth
    n/d elements after lifting.  Empty classes contribute 0.  The last two
    classes always collapse onto classes 2 and 4 (e5 = e2, e6 = e4), so the
    overall maximum equals the maximum of the first four.
    """

    e: tuple[int, int, int, int, int, int]
    p: tuple[Optional[int], ...]
    nmax: tuple[Optional[int], ...]
    max_size: int


def lambda_31_class_report(n: int) -> ClassReport31:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    d_gt1 = [d for d in divisors(n) if d > 1]
    classes = [
        [d for d in d_gt1 if d % 3 == 0],
        [d for d in d_gt1 if d % 4 == 3 and d % 3 != 0],
        [d for d in d_gt1 if d % 4 == 0 and d % 3 != 0],
        [d for d in d_gt1 if d % 4 == 1 and d % 3 != 0],
        [d for d in d_gt1 if d % 8 == 6 and d % 3 != 0],
        [d for d in d_gt1 if d % 8 == 2 and d % 3 != 0],
    ]
    numerators = [
        lambda d: d // 3,
        lambda d: (d + 1) // 4,
        lambda d: d // 4,
        lambda d: (d - 1) // 4,
        lambda d: (d + 2) // 4,
        lambda d: (d - 2) // 4,
    ]
    e = tuple(
        max((num(d) * (n // d) for d in cls), default=0)
        for cls, num in zip(classes, numerators)
    )
    p = tuple(min(cls) if cls else None for cls in classes)
    nmax = tuple(max(cls) if cls else None for cls in classes)
    if classes[4] and e[4] != e[1]:
        raise AssertionError(f"class-5 collapse failed at n={n}: {e[4]} vs {e[1]}")
    if classes[5] and e[5] != e[3]:
        raise AssertionError(f"class-6 collapse failed at n={n}: {e[5]} vs {e[3]}")
    max_size = max(e)
    if max_size != max(e[:4]):
        raise AssertionError(f"six-way maximum not achieved in first four at n={n}")
    if max_size != lambda_cyclic_31(n):
        raise AssertionError(
            f"class report disagrees with the (3,1) formula at n={n}: "
            f"{max_size} vs {lambda_cyclic_31(n)}"
        )
    return ClassReport31(e=e, p=p, nmax=nmax, max_size=max_size)


# ---------------------------------------------------------------------------
# best-effort exact formula dispatch (CLI surface)

def lambda_formula(g: GroupSpec, kl: KLParams) -> tuple[int, str]:
    """Exact lambda_{k,l}(G) where a closed form is known, with a basis tag.

    Raises FormulaUnavailableError otherwise (only bounds are known then).
    """
    n, v = g.n, g.v
    if kl.diff % v == 0:
        return 0, "zero: the exponent divides k-l, so ka = la for every a"

    def cyclic_value(m: int) -> tuple[int, str]:
        if (kl.k, kl.l) == (2, 1):
            return lambda_cyclic_21(m), "sum-free closed form"
        if (kl.k, kl.l) == (3, 1):
            return lambda_cyclic_31(m), "(3,1) closed form"
        if gcd(m, kl.diff) == 1:
            return lambda_bounds_general(make_group([m]), kl).upper, "coprime-case divisor maximum"
        raise FormulaUnavailableError(
            f"no exact closed form for (k,l)=({kl.k},{kl.l}) on Z_{m}: "
            f"1 < gcd({m},{kl.diff}) < {m} leaves only bounds; "
            "use --method bounds or --method exact"
        )

    if g.is_cyclic:
        return cyclic_value(n)
    if (kl.k, kl.l) == (2, 1):
        value, basis = cyclic_value(v)
        return value * (n // v), f"cyclic {basis} lifted by n/v cosets"
    if theorem16_condition(v, kl).holds:
        value, basis = cyclic_value(v)
        return value * (n // v), f"divisor condition holds: cyclic {basis} times n/v"
    raise FormulaUnavailableError(
        f"no exact closed form for (k,l)=({kl.k},{kl.l}) on {g}: the divisor "
        "condition for lifting the cyclic value fails; use --method bounds or exact"
    )
