"""Sumsets, stabilizers, and the (k,l)-sum-free predicate.

A Subset is an immutable bitmask over the element indices of its group.
The h-fold sumset hA is the set of all sums of h not-necessarily-distinct
elements of A; a set A is (k,l)-sum-free when kA and lA are disjoint, or
equivalently when 0 is not in kA - lA.  Both characterizations are
implemented so they can be checked against each other.

All functions are pure; callers may parallelize sweeps freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .abelian import Element, GroupSpec, apply_ops, negation_table, translation_ops
from .formulas import KLParams

__all__ = [
    "Subset",
    "StabilizerResult",
    "KneserCheck",
    "pair_sumset",
    "h_fold",
    "negate",
    "is_kl_sum_free",
    "is_kl_sum_free_via_difference",
    "stabilizer",
    "kneser_check",
    "find_violation",
]


@dataclass(frozen=True)
class Subset:
    """A subset of a group, stored as a bitmask over element indices."""

    group: GroupSpec
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.group.n:
            raise ValueError("bitmask has bits outside the group")

    @classmethod
    def empty(cls, group: GroupSpec) -> "Subset":
        return cls(group, 0)

    @classmethod
    def full(cls, group: GroupSpec) -> "Subset":
        return cls(group, (1 << group.n) - 1)

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "Subset":
        bits = 0
        for i in indices:
            if not 0 <= i < group.n:
                raise ValueError(f"index {i} out of range for group of order {group.n}")
            bits |= 1 << i
        return cls(group, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return [i for i in range(self.group.n) if self.bits >> i & 1]

    def elements(self) -> list[Element]:
        return [self.group.element_at(i) for i in self.indices()]

    def contains_index(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def __contains__(self, x: Element) -> bool:
        return self.contains_index(self.group.index_of(x.coords))

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements())

    def __repr__(self) -> str:
        return f"Subset({self.group}, {{{','.join(str(e) for e in self.elements())}}})"


def _require_same_group(a: Subset, b: Subset) -> None:
    if a.group != b.group:
        raise ValueError(f"subsets live in different groups: {a.group} vs {b.group}")


def pair_sumset(a: Subset, b: Subset) -> Subset:
    """A + B = {x + y : x in A, y in B}; empty if either input is empty."""
    _require_same_group(a, b)
    small, large = (a, b) if a.size <= b.size else (b, a)
    ops = translation_ops(a.group)
    out = 0
    bits = small.bits
    lbits = large.bits
    while bits:
        low = bits & -bits
        out |= apply_ops(lbits, ops[low.bit_length() - 1])
        bits ^= low
    return Subset(a.group, out)


def _h_fold_naive(a: Subset, h: int) -> Subset:
    out = a
    for _ in range(h - 1):
        out = pair_sumset(out, a)
    return out


def h_fold(a: Subset, h: int) -> Subset:
    """The h-fold sumset hA, computed by doubling.

    h = 0 is rejected: 0A never comes up and its natural value ({0}) is a
    trap for callers expecting a multiple of A.
    """
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    if a.bits == 0:
        return a
    # square-and-multiply over Minkowski addition: (i+j)A = iA + jA
    result: Optional[Subset] = None
    power = a
    while h:
        if h & 1:
            result = power if result is None else pair_sumset(result, power)
        h >>= 1
        if h:
            power = pair_sumset(power, power)
    assert result is not None
    return result


def negate(a: Subset) -> Subset:
    """{-x : x in A}."""
    table = negation_table(a.group)
    bits = 0
    src = a.bits
    while src:
        low = src & -src
        bits |= 1 << table[low.bit_length() - 1]
        src ^= low
    return Subset(a.group, bits)


def is_kl_sum_free(a: Subset, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint."""
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    if a.bits == 0:
        return True
    return h_fold(a, k).bits & h_fold(a, l).bits == 0


def is_kl_sum_free_via_difference(a: Subset, k: int, l: int) -> bool:
    """True iff 0 is not in kA - lA (kA plus the pointwise negation of lA)."""
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    if a.bits == 0:
        return True
    diff = pair_sumset(h_fold(a, k), negate(h_fold(a, l)))
    return diff.bits & 1 == 0


@dataclass(frozen=True)
class StabilizerResult:
    """The stabilizer H = {g : g + S = S} of a subset S, with its index n/|H|.

    empty_input flags the conventional answer for S = {} (the full group).
    """

    subgroup: Subset
    index: int
    empty_input: bool = False


def stabilizer(s: Subset) -> StabilizerResult:
    g = s.group
    if s.bits == 0:
        return StabilizerResult(Subset.full(g), 1, empty_input=True)
    ops = translation_ops(g)
    bits = 0
    for e in range(g.n):
        if apply_ops(s.bits, ops[e]) == s.bits:
            bits |= 1 << e
    sub = Subset(g, bits)
    return StabilizerResult(sub, g.n // sub.size)


@dataclass(frozen=True)
class KneserCheck:
    """|hA| versus h|A| - (h-1)|H| where H is the stabilizer of hA."""

    lhs: int
    rhs: int
    holds: bool


def kneser_check(a: Subset, h: int) -> KneserCheck:
    """Evaluate the sumset lower bound |hA| >= h|A| - (h-1)|H|.

    holds is always True (it is a theorem); returning the record lets test
    sweeps assert it instance by instance.
    """
    if a.bits == 0:
        raise ValueError("kneser_check requires a non-empty subset")
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    ha = h_fold(a, h)
    stab = stabilizer(ha)
    lhs = ha.size
    rhs = h * a.size - (h - 1) * stab.subgroup.size
    return KneserCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def find_violation(
    a: Subset, k: int, l: int
) -> Optional[tuple[tuple[Element, ...], tuple[Element, ...]]]:
    """A k-tuple and an l-tuple of elements of A with equal sums, or None.

    Used to print a concrete witnessing identity when verification fails.
    The tuples are the lexicographically first over index-sorted tuples:
    the first k-tuple whose sum lies in lA, then the first l-tuple with
    that sum.  Each is built one element at a time from the layers
    0A..kA, taking the smallest a in A with which the remaining layer can
    still reach the target, so no tuple is enumerated.
    """
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    g = a.group
    layers = [Subset(g, 1)]  # 0A = {0}, index 0 being the identity
    for _ in range(k):
        layers.append(pair_sumset(layers[-1], a))
    if layers[k].bits & layers[l].bits == 0:
        return None
    ops = translation_ops(g)
    idxs = a.indices()

    def first_tuple(h: int, goal: int) -> tuple[list[int], int]:
        """The first h-tuple of A whose sum lies in the mask goal, and that sum."""
        combo, total = [], 0
        for rest in reversed(layers[:h]):
            for i in idxs:
                s = g.add_index(total, i)
                if apply_ops(rest.bits, ops[s]) & goal:
                    combo.append(i)
                    total = s
                    break
        return combo, total

    ktuple, target = first_tuple(k, layers[l].bits)
    ltuple, _ = first_tuple(l, 1 << target)
    return tuple(map(g.element_at, ktuple)), tuple(map(g.element_at, ltuple))
