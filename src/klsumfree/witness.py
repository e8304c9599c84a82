"""Explicit (k,l)-sum-free sets realizing the constructive lower bounds.

The core construction places an interval {a, a+1, ..., a+c} in Z_d so that
the difference set kA - lA is an interval of length (k+l)c + 1 that misses
zero.  The start a is pinned down by a division step and a Bezout pair:

    l*c   = delta*q - r   with 1 <= r <= delta,   delta = gcd(d, k-l)
    delta = (k-l)*u + d*w
    a     = u*q  (mod d)

Every witness records (q, r, u, w) as a machine-checkable certificate and
re-verifies its own sum-freeness through the sumset predicate before it is
returned; a verification failure is a bug, not an input error.  A lifted
witness is a union of cosets of the kernel of G -> Z_d, so the predicate
checks it in the least such quotient Z_d, with the same answer as in G
(sumset module docstring).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Union

from .abelian import GroupSpec, make_group
from .formulas import KLParams, _lower_term, delta, lambda_bounds_general
from .sumset import Subset, _repeat, is_kl_sum_free

__all__ = [
    "EuclidCertificate",
    "APWitness",
    "LiftedWitness",
    "WitnessVerificationError",
    "ap_witness",
    "ap_witness_max",
    "coset_union_witness",
    "case51_witness",
    "cyclic_quotient_lift",
    "lift_witness",
    "best_witness",
    "members_json",
    "witness_json",
]


class WitnessVerificationError(RuntimeError):
    """A constructed witness failed its own sum-freeness check (a bug)."""


class EuclidCertificate(NamedTuple):
    """The (q, r, u, w) values deriving a progression start.

    q, r: quotient/remainder with l*c = delta*q - r, 1 <= r <= delta.
    u, w: Bezout pair with delta = (k-l)*u + d*w, u normalized into [0, d).
    """

    q: int
    r: int
    u: int
    w: int


class APWitness(NamedTuple):
    """An arithmetic progression {start, start+diff, ..., start+c*diff} in Z_d.

    size = c + 1; a size-0 witness (certificate None) records that the
    modulus admits no progression at all for these parameters.
    """

    modulus: int
    start: int
    difference: int
    size: int
    kl: KLParams
    kind: str
    certificate: Optional[EuclidCertificate]
    members: Subset

    @property
    def c(self) -> int:
        return self.size - 1


class LiftedWitness(NamedTuple):
    """A witness in G obtained by pulling a cyclic-quotient witness back.

    base is the source construction (an APWitness, or a bare Subset when a
    caller lifts its own set); divisor is the quotient modulus d, and
    members the (k,l)-sum-free preimage of size |base| * n/d.
    """

    base: Union[APWitness, Subset, None]
    group: GroupSpec
    members: Subset
    kl: KLParams
    divisor: Optional[int]

    @property
    def size(self) -> int:
        return self.members.size


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return r0, x0, y0


def _verify(members: Subset, kl: KLParams, what: str) -> None:
    if not is_kl_sum_free(members, kl.k, kl.l):
        raise WitnessVerificationError(
            f"{what} produced a set that is not ({kl.k},{kl.l})-sum-free: "
            f"{members!r}"
        )


def _build_interval(d: int, kl: KLParams, c: int, kind: str) -> APWitness:
    """Construct {a, a+1, ..., a+c} in Z_d with its certificate and verify it."""
    dl = delta(d, kl)
    # unique q with delta*q in [l*c + 1, l*c + delta]
    q = (kl.l * c) // dl + 1
    r = dl * q - kl.l * c
    assert 1 <= r <= dl, (d, kl, c)
    g0, u, _ = _ext_gcd(kl.diff, d)
    assert g0 == dl
    u %= d
    w = (dl - kl.diff * u) // d
    a = (u * q) % d
    group = make_group([d])
    members = Subset.from_indices(group, ((a + i) % d for i in range(c + 1)))
    wit = APWitness(
        modulus=d,
        start=a,
        difference=1,
        size=c + 1,
        kl=kl,
        kind=kind,
        certificate=EuclidCertificate(q=q, r=r, u=u, w=w),
        members=members,
    )
    _verify(members, kl, f"{kind} witness (d={d}, c={c})")
    return wit


def ap_witness(d: int, kl: KLParams, c: int) -> APWitness:
    """Interval witness of size c+1 in Z_d, admissible when
    (k+l)*c <= d - 1 - gcd(d, k-l).

    c = 0 (a verified singleton) is allowed: it is what the per-divisor
    lower-bound term degenerates to for small d.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    if c < 0:
        raise ValueError(f"progression length parameter c must be >= 0, got {c}")
    dl = delta(d, kl)
    if kl.weight * c > d - 1 - dl:
        raise ValueError(
            f"(k+l)*c = {kl.weight * c} exceeds d-1-delta(d) = {d - 1 - dl} "
            f"for d={d}, (k,l)=({kl.k},{kl.l})"
        )
    return _build_interval(d, kl, c, "interval")


def ap_witness_max(d: int, kl: KLParams) -> APWitness:
    """Interval witness with the largest admissible c for this modulus: its
    size is the per-divisor lower-bound term (formulas._lower_term),
    floor((d - 1 - delta(d)) / (k+l)) + 1.  When d | k-l that term is 0,
    no progression exists, and an explicit size-0 witness is returned.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    size = _lower_term(d, kl)
    if size == 0:
        return APWitness(
            modulus=d,
            start=0,
            difference=1,
            size=0,
            kl=kl,
            kind="empty",
            certificate=None,
            members=Subset.empty(make_group([d])),
        )
    return _build_interval(d, kl, size - 1, "interval")


def coset_union_witness(n: int, d: int, kl: KLParams) -> Subset:
    """The full coset {1 + i*d : 0 <= i < n/d} in Z_n, sum-free whenever
    d divides n but not k-l (so kA - lA sits in the nonzero residue k-l
    mod d).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d <= 1 or n % d != 0 or kl.diff % d == 0:
        raise ValueError(
            f"need a divisor d > 1 of n={n} that does not divide k-l={kl.diff}, got d={d}"
        )
    group = make_group([n])
    members = Subset.from_indices(group, ((1 + i * d) % n for i in range(n // d)))
    _verify(members, kl, f"coset-union witness (n={n}, d={d})")
    return members


def case51_witness(n: int) -> APWitness:
    """The extremal (3,1) interval for n = 6 mod 8 with 3 not dividing n:
    start (n+2)/8, length (n+2)/4, one past the generic admissible bound.

    The certificate machinery produces exactly this start, so the witness
    carries a full certificate; sum-freeness rests on the verification, not
    on the generic admissibility inequality (which this c exceeds by one).
    """
    if n % 8 != 6 or n % 3 == 0:
        raise ValueError(f"need n = 6 mod 8 with 3 not dividing n, got {n}")
    kl = KLParams(3, 1)
    wit = _build_interval(n, kl, (n - 2) // 4, "case51")
    assert wit.start == (n + 2) // 8
    return wit


def cyclic_quotient_lift(g: GroupSpec, d: int, residues: Subset) -> Subset:
    """Pull a subset of Z_d back through the canonical surjection g -> Z_d.

    The surjection is fixed as x -> (last coordinate of x) mod d, which for
    the mixed-radix index is simply index mod d; it is a homomorphism
    exactly because d divides the exponent v.  The preimage of a set of
    size s has size s * n/d: the residue mask repeated n/d times, its
    product with the base-2^d repunit (sumset._repeat, which also tells
    is_kl_sum_free whether a set is such a lift).
    """
    if d < 2 or g.v % d != 0:
        raise ValueError(f"{d} does not divide the exponent {g.v} of {g}")
    if not isinstance(residues, Subset):
        raise TypeError("residues must be a Subset of the cyclic group Z_d")
    if residues.group.factors != (d,):
        raise ValueError(
            f"residues live in {residues.group}, expected the cyclic group of order {d}"
        )
    return Subset(g, _repeat(residues.bits, d, g.n))


def _lift(base: Union[APWitness, Subset], g: GroupSpec, kl: KLParams) -> LiftedWitness:
    """Lift a Z_d witness (or bare set) to g and re-verify the preimage."""
    residues = base.members if isinstance(base, APWitness) else base
    d = residues.group.n
    members = cyclic_quotient_lift(g, d, residues)
    _verify(members, kl, f"lift of a Z_{d} witness to {g}")
    return LiftedWitness(base=base, group=g, members=members, kl=kl, divisor=d)


def lift_witness(base_set: Subset, g: GroupSpec, kl: KLParams) -> LiftedWitness:
    """Pull a verified (k,l)-sum-free subset of Z_d back to G (d | v).

    The preimage has size |base| * n/d and is re-verified after lifting.
    """
    if not base_set.group.is_cyclic:
        raise ValueError(f"base set must live in a cyclic group, got {base_set.group}")
    if not is_kl_sum_free(base_set, kl.k, kl.l):
        raise ValueError(
            f"base set {base_set!r} is not ({kl.k},{kl.l})-sum-free in Z_{base_set.group.n}"
        )
    return _lift(base_set, g, kl)


def best_witness(g: GroupSpec, kl: KLParams) -> LiftedWitness:
    """The largest interval witness over all quotient moduli d | v, lifted.

    Realizes the general lower bound exactly: size
    max over d | v of (floor((d-1-delta(d))/(k+l)) + 1) * n/d.
    The modulus d is the bound report's argmax_lower (lambda_bounds_general;
    ties go to the smallest divisor: longer progression, fewer cosets), so
    only the winning interval is built and verified.  When v | k-l the
    only sum-free set is empty and a size-0 witness is returned.
    """
    bounds = lambda_bounds_general(g, kl)
    if bounds.degenerate:
        return LiftedWitness(
            base=None, group=g, members=Subset.empty(g), kl=kl, divisor=None
        )
    best = ap_witness_max(bounds.argmax_lower, kl)
    assert best.size > 0
    return _lift(best, g, kl)


# ---------------------------------------------------------------------------
# serialization

def members_json(members: Subset):
    """Element indices for a cyclic group, coordinate lists otherwise: the
    members as witness_json gives them to library callers.  The CLI lays a
    Subset out as json would lay out this value, from its indices, without
    building the lists (cli._members_layout)."""
    g = members.group
    if g.is_cyclic:
        return members.indices()
    return list(map(list, g.coords_of_all(members.indices())))


def _progression_json(w: APWitness, kind: str) -> dict:
    """The {kind, params, certificate} record of an interval witness."""
    c = w.certificate
    return {
        "kind": kind,
        "params": {"modulus": w.modulus, "start": w.start, "difference": w.difference},
        "certificate": None if c is None else {"q": c.q, "r": c.r, "u": c.u, "w": c.w},
    }


def _witness_fields(w: Union[APWitness, LiftedWitness]) -> dict:
    """witness_json's fields, with members left as their Subset (the CLI
    lays a Subset out directly)."""
    if isinstance(w, APWitness):
        construction = _progression_json(w, w.kind)
    elif isinstance(w.base, APWitness):
        construction = _progression_json(w.base, f"lifted-{w.base.kind}")
    elif isinstance(w.base, Subset):
        construction = {"kind": "lifted-set", "params": {"modulus": w.divisor}, "certificate": None}
    else:
        construction = {"kind": "empty", "params": {}, "certificate": None}
    return {
        "group": str(w.members.group),
        "k": w.kl.k,
        "l": w.kl.l,
        "size": w.size,
        "members": w.members,
        "construction": construction,
    }


def witness_json(w: Union[APWitness, LiftedWitness]) -> dict:
    """The wire format: {group, k, l, size, members, construction}."""
    return {**_witness_fields(w), "members": members_json(w.members)}
