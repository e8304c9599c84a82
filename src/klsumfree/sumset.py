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
Z_d, and the other two lift each layer they need (_lifted).  The
difference characterization takes kA and lA from h_fold and forms kA - lA
in G.

Sums are formed in the padded layout of the group (abelian.PaddedLayout),
where adding offsets adds elements, by one kernel (_sumset_bits): a
reduced padded mask is shifted once per padded offset of the other
operand, and the union is folded once per axis; no per-group translation
table is built.  pair_sumset pads both operands, shifts the larger once
per element of the smaller and unpads the result.  The layers hA come
from one chain, jA = (j-1)A + A (_multiples), which pads A and takes its
offsets once and keeps every layer reduced padded: a layer is unpadded
only where a caller needs it as a mask of G (h_fold, or a lift's
_repeat), is_kl_sum_free intersects the padded kA and lA, and
find_violation walks the padded layers.  The chain stops at the first
layer no larger than the one before; every later layer is a translate of
it, so the chain's length is bounded by the order of the group, not by h.

All functions are pure; callers may parallelize sweeps freely.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat
from operator import add, mod, mul, sub
from typing import Container, Iterable, NamedTuple, Optional, Sequence

from .abelian import GroupSpec, PaddedLayout, divisors, make_group, padded_layout
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


def _rows(g: GroupSpec, indices: Sequence[int], sep: str, start: str, comma: str, end: str) -> str:
    """The elements of g at indices, in non-decreasing order, as rows
    joined by sep: the one routine that lays a set out as text, with no
    object built per element.  A cyclic group's rows are the bare
    indices.  A product group's row is start, the coordinates joined by
    comma, then end.  Index i is block i // v, which holds the leading
    coordinates, then i % v; the elements of a block are consecutive in
    index order, so each block the indices meet is one join of its
    residues, with the rows' shared text, the block's prefix and the
    row's end, as the separator."""
    if g.is_cyclic:
        return sep.join(map(str, indices))
    v = g.v
    bounds, lo = [], 0
    while lo < len(indices):
        base = indices[lo] - indices[lo] % v
        hi = bisect_left(indices, base + v, lo)
        bounds.append((base, lo, hi))
        lo = hi
    blocks = []
    for (base, lo, hi), coords in zip(bounds, g.coords_of_all([b for b, _, _ in bounds])):
        prefix = start + comma.join(map(str, coords[:-1])) + comma
        residues = map(sub, indices[lo:hi], repeat(base)) if base else indices[lo:hi]
        blocks.append(prefix + (end + sep + prefix).join(map(str, residues)) + end)
    return sep.join(blocks)


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

    def contains_index(self, i: int) -> bool:
        if not 0 <= i < self.group.n:
            raise ValueError(f"index {i} out of range for group of order {self.group.n}")
        return bool(self.bits >> i & 1)

    def __contains__(self, coords: Sequence[int]) -> bool:
        """Membership of the element with these coordinates, checked by
        GroupSpec.checked_index (never the tuple's own membership)."""
        return self.contains_index(self.group.checked_index(coords))

    def __repr__(self) -> str:
        return f"Subset({self.group}, {{{_rows(self.group, self.indices(), ',', '(', ',', ')')}}})"


def _require_same_group(a: Subset, b: Subset) -> None:
    if a.group is not b.group and a.group != b.group:
        raise ValueError(f"subsets live in different groups: {a.group} vs {b.group}")


def _sumset_bits(layout: PaddedLayout, offsets: Iterable[int], padded: int) -> int:
    """The one sumset kernel: the reduced padded mask of A + B, from the
    padded offsets of A's elements and the reduced padded mask of B.  B
    is shifted once per offset, then the union is folded once per axis,
    (|A| + axes) * (padded size) bit operations."""
    out = 0
    for offset in offsets:
        out |= padded << offset
    return layout.fold(out)


def pair_sumset(a: Subset, b: Subset) -> Subset:
    """A + B = {x + y : x in A, y in B}; empty if either input is empty."""
    _require_same_group(a, b)
    layout = padded_layout(a.group)
    x, y = sorted((a.bits, b.bits), key=int.bit_count)  # shift the larger, once per element of the smaller
    return Subset(a.group, layout.unpad(_sumset_bits(layout, _set_bits(layout.pad(x)), layout.pad(y))))


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


class _Chain(NamedTuple):
    """The chain jX = (j-1)X + X of _multiples, in the padded layout of
    X's group g.

    d is the quotient Z_d that X lives in (None: X is A, in G).  layers
    maps each kept j, and top, the last layer built, to the reduced padded
    mask of jX; x is the least index of X.  The chain stopped at top when
    (top+1)X was no larger than topX, or at the top it was asked for.
    """

    d: Optional[int]
    g: GroupSpec
    layout: PaddedLayout
    layers: dict[int, int]
    top: int
    x: int

    def layer(self, h: int) -> int:
        """The reduced padded mask of hX: a kept layer for h <= top, else
        layer top translated by (h - top)x, the multiple taken mod the
        exponent (_multiples)."""
        if h <= self.top:
            return self.layers[h]
        g, layout = self.g, self.layout
        return layout.fold(self.layers[self.top] << layout.offset(g.scale_index((h - self.top) % g.v, self.x)))


def _multiples(a: Subset, top: int, keep: Container[int]) -> _Chain:
    """The chain jX = (j-1)X + X of a non-empty A, up to layer top or to
    the first j with |(j+1)X| = |jX|, every layer a reduced padded mask.

    X is A, with d None, or, for a set lifted from a cyclic quotient Z_d
    (_least_quotient), its residues R in Z_d: then hA = pi^-1(hR) (module
    docstring), which _lifted gives.  X's padded offsets are taken once;
    each layer is one shift of the layer before per element of X, which
    is never larger than that layer, and one fold per axis, and no layer
    is unpadded here.  Only the layers in keep, and the last, are kept.
    For x in X, jX + x lies in (j+1)X and has as many elements, so once
    the sizes agree (j+1)X = jX + x, and every later layer is a
    translate, hX = jX + (h-j)x (_Chain.layer).  The sizes never fall
    and never pass the order, so the chain stops within that many steps,
    whatever top.
    """
    d = _least_quotient(a)
    g, bits = (a.group, a.bits) if d is None else (make_group([d]), a.bits & ((1 << d) - 1))
    layout = padded_layout(g)
    layer, size, layers, j = layout.pad(bits), bits.bit_count(), {}, 1
    offsets = _set_bits(layer)
    while j < top:
        nxt = _sumset_bits(layout, offsets, layer)
        count = nxt.bit_count()
        if count == size:
            break
        if j in keep:
            layers[j] = layer
        layer, size, j = nxt, count, j + 1
    layers[j] = layer
    return _Chain(d, g, layout, layers, j, (bits & -bits).bit_length() - 1)


def _lifted(chain: _Chain, h: int, n: int) -> int:
    """The mask of hA in G, of order n: the chain's layer h unpadded, and
    lifted back to G when A is a lift."""
    mask = chain.layout.unpad(chain.layer(h))
    return mask if chain.d is None else _repeat(mask, chain.d, n)


def h_fold(a: Subset, h: int) -> Subset:
    """The h-fold sumset hA, from the chain of _multiples.

    h = 0 is rejected: 0A never comes up and its natural value ({0}) is a
    trap for callers expecting a multiple of A.
    """
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    if a.bits == 0:
        return a
    return Subset(a.group, _lifted(_multiples(a, h, ()), h, a.group.n))


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
    chain = _multiples(a, k, (l,))
    return chain.layer(k) & chain.layer(l) == 0


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


def find_violation(a: Subset, k: int, l: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A k-tuple and an l-tuple of element indices of A with equal sums, or None.

    Used to print a concrete witnessing identity when verification fails;
    None exactly when is_kl_sum_free holds, decided from the same chain
    (_multiples) that then gives the tuples.  They are the
    lexicographically first over index-sorted tuples: the first k-tuple
    whose sum lies in lA, then the first l-tuple with that sum.  Each is
    built one element at a time from the reduced padded layers 0A..(k-1)A,
    taking the smallest a in A with which the remaining layer can still
    reach the padded goal, so no tuple is enumerated.  A step is one shift
    of that layer by the running sum, carried as coordinates, and one fold
    per axis.  A lift's layers are lifted to G and padded there, once each.
    """
    KLParams(k, l)  # raises ValueError unless k > l >= 1
    if a.bits == 0:
        return None
    chain = _multiples(a, k, range(1, k))
    if chain.layer(k) & chain.layer(l) == 0:
        return None
    g = a.group
    layout = chain.layout if chain.d is None else padded_layout(g)
    padded = [1] * k  # 0A = {0}, index 0 being the identity; a k too large stops here
    for h in range(1, k):
        padded[h] = chain.layer(h) if chain.d is None else layout.pad(_lifted(chain, h, g.n))
    factors = g.factors
    strides = [shift // m for (_, shift), m in zip(layout.folds, factors)]  # a fold shifts by d_i strides
    idxs = a.indices()
    members = list(zip(idxs, g.coords_of_all(idxs)))

    def first_tuple(h: int, goal: int) -> tuple[list[int], tuple[int, ...]]:
        """The first h-tuple of A whose sum lies in the padded mask goal,
        and that sum's coordinates."""
        combo, total = [], (0,) * len(factors)
        for rest in reversed(padded[:h]):
            for i, coords in members:
                s = tuple(map(mod, map(add, total, coords), factors))
                if layout.fold(rest << sum(map(mul, s, strides))) & goal:
                    combo.append(i)
                    total = s
                    break
        return combo, total

    ktuple, target = first_tuple(k, padded[l])
    ltuple, _ = first_tuple(l, 1 << sum(map(mul, target, strides)))
    return tuple(ktuple), tuple(ltuple)
