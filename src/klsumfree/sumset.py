"""Sumsets, stabilizers, and the (k,l)-sum-free predicate.

A Subset is an immutable bitmask over the element indices of its group.
The h-fold sumset hA is the set of all sums of h not-necessarily-distinct
elements of A; a set A is (k,l)-sum-free when kA and lA are disjoint, or
equivalently when 0 is not in kA - lA.  Both characterizations are
implemented so they can be checked against each other.

A set lifted from a cyclic quotient has its sumset layers built in that
quotient.  For d | v the index mod d equals the last coordinate mod d, so
pi(x) = index(x) mod d is a homomorphism G -> Z_d.  If A = pi^-1(R), then
A + ker pi = A, and every h-fold sum of A is a sum of lifts of residues
in R, so hA = pi^-1(hR) for every h >= 1.  Hence kA & lA = pi^-1(kR & lR),
which is empty exactly when kR & lR is: A is (k,l)-sum-free iff R is.  A
is such a lift iff its mask is its low d bits repeated n/d times (their
product with the base-2^d repunit, _repeat); a lift has |R| n/d members,
so n divides |A| d, and _least_quotient takes the first divisor of v, in
ascending order, that passes both tests.  _multiples runs the chain of
layers on R, so is_kl_sum_free, h_fold and find_violation all take a
lift's layers from its quotient; is_kl_sum_free intersects kR and lR in
Z_d, and the other two lift each layer they keep (_lifted).  The
difference characterization takes kA and lA from h_fold and forms kA - lA
in G.

A + B is computed in the padded layout of the group (abelian.PaddedLayout),
where adding offsets adds elements, by one kernel (_sumset_bits): the
padded mask of the larger operand is shifted once per element of the
smaller, and no per-group translation table is built.  The layers hA
come from one chain, jA = (j-1)A + A (_multiples), in which A is the
smaller operand of every sumset.  The chain stops at the first layer no
larger than the one before; every later layer is a translate of it, so
the chain's length is bounded by the order of the group, not by h.

All functions are pure; callers may parallelize sweeps freely.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add
from typing import Iterable, NamedTuple, Optional

from .abelian import Element, GroupSpec, PaddedLayout, divisors, make_group, padded_layout
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


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending, in O(bit length + count).

    The binary digits, least significant first, split at every 1 into
    the runs of 0s between members; member j sits at the total length of
    runs 0..j plus j.  Every step runs in C, one object per member.
    """
    runs = format(x, "b")[::-1].split("1")
    out = list(accumulate(map(add, map(len, runs), repeat(1)), initial=-1))
    del out[0], out[-1]  # the start value and the run after the top member
    return out


def _scatter(n: int, indices: Iterable[int]) -> int:
    """The n-bit mask of indices in [0, n), unchecked.  Each index sets
    its binary digit, least significant first, with one bare store (which
    CPython runs faster than a map of operator.setitem), and one reversal
    and one base-2 parse make the mask."""
    digits = bytearray(b"0" * n)
    for i in indices:
        digits[i] = 0x31  # "1"
    return int(digits[::-1], 2)


class _SubsetFields(NamedTuple):
    group: GroupSpec
    bits: int


class Subset(_SubsetFields):
    """A subset of a group, stored as a bitmask over element indices."""

    __slots__ = ()

    def __new__(cls, group: GroupSpec, bits: int):
        if bits < 0 or bits >> group.n:
            raise ValueError("bitmask has bits outside the group")
        return tuple.__new__(cls, (group, bits))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__'s check
        return cls(*iterable)

    @classmethod
    def empty(cls, group: GroupSpec) -> "Subset":
        return cls(group, 0)

    @classmethod
    def full(cls, group: GroupSpec) -> "Subset":
        return cls(group, (1 << group.n) - 1)

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "Subset":
        """The set of the given indices, in any order and with repeats.

        They are range-checked at once (min and max), and a failing check
        names the first index outside [0, n) in iteration order."""
        n = group.n
        indices = list(indices)
        if indices and (min(indices) < 0 or max(indices) >= n):
            bad = next(i for i in indices if not 0 <= i < n)
            raise ValueError(f"index {bad} out of range for group of order {n}")
        return cls(group, _scatter(n, indices))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        """Member indices in ascending order."""
        return _set_bits(self.bits)

    def elements(self) -> list[Element]:
        return list(map(Element, self.group.coords_of_all(self.indices())))

    def contains_index(self, i: int) -> bool:
        if not 0 <= i < self.group.n:
            raise ValueError(f"index {i} out of range for group of order {self.group.n}")
        return bool(self.bits >> i & 1)

    def __contains__(self, x: Element) -> bool:
        return self.contains_index(self.group.checked_index(x.coords))

    def __repr__(self) -> str:
        return f"Subset({self.group}, {{{','.join(str(e) for e in self.elements())}}})"


def _require_same_group(a: Subset, b: Subset) -> None:
    if a.group is not b.group and a.group != b.group:
        raise ValueError(f"subsets live in different groups: {a.group} vs {b.group}")


def _sumset_bits(layout: PaddedLayout, x: int, y: int) -> int:
    """The mask of A + B from the masks of A and B: the union of the
    translates of the larger operand's padded mask by each element of the
    smaller, shifts costing (smaller count) * (padded size) bit operations."""
    if x.bit_count() > y.bit_count():
        x, y = y, x
    padded = layout.pad(y)
    out = 0
    for offset in _set_bits(layout.pad(x)):
        out |= padded << offset
    return layout.unpad(out)


def pair_sumset(a: Subset, b: Subset) -> Subset:
    """A + B = {x + y : x in A, y in B}; empty if either input is empty."""
    _require_same_group(a, b)
    return Subset(a.group, _sumset_bits(padded_layout(a.group), a.bits, b.bits))


def _repeat(mask: int, d: int, n: int) -> int:
    """A mask of d bits repeated n/d times (d | n): its product with the
    base-2^d repunit, the sum of 2^(jd) over 0 <= j < n/d, which has no
    carries between the copies.  Each shift doubles the copies, so it
    costs O(n) bit operations, where a product or a division by 2^d - 1
    costs O(nd)."""
    full = (1 << n) - 1  # sized first: an n too large for a mask stops here
    width = d
    while width < n:
        mask |= mask << width
        width <<= 1
    return mask & full


def _least_quotient(a: Subset) -> Optional[int]:
    """The least d >= 2 dividing the exponent v such that A = pi^-1(R) for
    pi: G -> Z_d, index mod d; None if A is no such lift with d < n.

    The divisors of v are tried in ascending order.  A lift of R has
    |R| n/d members, so a d for which n does not divide |A| d is skipped
    without the period check.
    """
    g, bits, size = a.group, a.bits, a.size
    if not 0 < size < g.n:
        return None  # least period 1, and Z_1 is no group here
    for d in divisors(g.v)[1:]:
        if d < g.n and size * d % g.n == 0 and bits == _repeat(bits & ((1 << d) - 1), d, g.n):
            return d
    return None


def _multiples(a: Subset, hs: tuple[int, ...]) -> tuple[Optional[int], list[int]]:
    """(d, masks): the masks of hX for h in hs, from one chain
    jX = (j-1)X + X, which stops at the first j with |jX| = |(j-1)X|.

    X is A, with d None, or, for a set lifted from a cyclic quotient Z_d
    (_least_quotient), its residues R in Z_d, with masks over Z_d: then
    hA = pi^-1(hR) (module docstring), which _lifted gives.  Layer j costs
    one shift per element of X, which is never larger than (j-1)X; only
    the layers in hs are kept.  For x in X, (j-1)X + x lies in jX and has
    as many elements, so once the sizes agree jX = (j-1)X + x, and every
    later layer is a translate, hX = (j-1)X + (h-j+1)x, with the multiple
    taken mod the exponent.  The sizes never fall and never pass the
    order, so the chain stops within that many steps, whatever max(hs).
    """
    d = _least_quotient(a)
    g, bits = (a.group, a.bits) if d is None else (make_group([d]), a.bits & ((1 << d) - 1))
    if not bits:
        return d, [0] * len(hs)
    layout, layer, size = padded_layout(g), bits, bits.bit_count()
    kept = dict.fromkeys(hs, layer)
    for j in range(2, max(hs) + 1):
        nxt = _sumset_bits(layout, bits, layer)
        count = nxt.bit_count()
        if count == size:
            padded, x = layout.pad(layer), (bits & -bits).bit_length() - 1
            for h in kept:
                if h >= j:
                    kept[h] = layout.translate(padded, g.scale_index((h - j + 1) % g.v, x))
            break
        layer, size = nxt, count
        if j in kept:
            kept[j] = layer
    return d, [kept[h] for h in hs]


def _lifted(a: Subset, hs: tuple[int, ...]) -> list[int]:
    """The masks of hA in G for h in hs: _multiples' layers, each lifted
    back to G when A is a lift."""
    d, masks = _multiples(a, hs)
    return masks if d is None else [_repeat(mask, d, a.group.n) for mask in masks]


def h_fold(a: Subset, h: int) -> Subset:
    """The h-fold sumset hA, from the chain of _multiples.

    h = 0 is rejected: 0A never comes up and its natural value ({0}) is a
    trap for callers expecting a multiple of A.
    """
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    if a.bits == 0:
        return a
    return Subset(a.group, _lifted(a, (h,))[0])


def negate(a: Subset) -> Subset:
    """{-x : x in A}.

    Index n - 1 - i has coordinates d_j - 1 - c_j, one less than those of
    -x on every axis, so -A is the bit-reversed mask translated by
    (1, ..., 1).
    """
    g = a.group
    layout = padded_layout(g)
    flipped = int(format(a.bits, f"0{g.n}b")[::-1], 2)
    return Subset(g, layout.translate(layout.pad(flipped), g.index_of([1] * len(g.factors))))


def is_kl_sum_free(a: Subset, k: int, l: int) -> bool:
    """True iff kA and lA are disjoint.

    A set lifted from a cyclic quotient Z_d (d | v, d < n) is checked in
    Z_d: kR and lR of its residue set R (_multiples) meet iff kA and lA do
    (module docstring), so neither layer is lifted back; any other set, G
    itself and the empty set among them, is checked in G.
    """
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    if a.bits == 0:
        return True
    _, (kx, lx) = _multiples(a, (k, l))
    return kx & lx == 0


def is_kl_sum_free_via_difference(a: Subset, k: int, l: int) -> bool:
    """True iff 0 is not in kA - lA (kA plus the pointwise negation of lA)."""
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    if a.bits == 0:
        return True
    diff = pair_sumset(h_fold(a, k), negate(h_fold(a, l)))
    return diff.bits & 1 == 0


class StabilizerResult(NamedTuple):
    """The stabilizer H = {g : g + S = S} of a subset S, with its index n/|H|.

    empty_input flags the conventional answer for S = {} (the full group).
    """

    subgroup: Subset
    index: int
    empty_input: bool = False


def stabilizer(s: Subset) -> StabilizerResult:
    """H = {g : g + S = S}, as the complement of S^c - S.

    g moves S off itself exactly when some s + g lands outside S, that
    is when g is in S^c + (-S); one sumset finds every such g.
    """
    g = s.group
    if s.bits == 0:
        return StabilizerResult(Subset.full(g), 1, empty_input=True)
    full = (1 << g.n) - 1
    moved = pair_sumset(Subset(g, full ^ s.bits), negate(s))
    sub = Subset(g, full ^ moved.bits)
    return StabilizerResult(sub, g.n // sub.size)


class KneserCheck(NamedTuple):
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
    0A..kA (1A..kA from the chain of _multiples, lifted), taking the
    smallest a in A with which the remaining layer can still reach the
    target, so no tuple is enumerated.
    """
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    g = a.group
    # 0A = {0}, index 0 being the identity
    layers = [1] + _lifted(a, tuple(range(1, k + 1)))
    if layers[k] & layers[l] == 0:
        return None
    layout = padded_layout(g)
    padded = [layout.pad(layer) for layer in layers[:k]]
    idxs = a.indices()

    def first_tuple(h: int, goal: int) -> tuple[list[int], int]:
        """The first h-tuple of A whose sum lies in the mask goal, and that sum."""
        combo, total = [], 0
        for rest in reversed(padded[:h]):
            for i in idxs:
                s = g.add_index(total, i)
                if layout.translate(rest, s) & goal:
                    combo.append(i)
                    total = s
                    break
        return combo, total

    ktuple, target = first_tuple(k, layers[l])
    ltuple, _ = first_tuple(l, 1 << target)
    return tuple(tuple(map(Element, g.coords_of_all(t))) for t in (ktuple, ltuple))
