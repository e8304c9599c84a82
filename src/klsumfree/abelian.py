"""Finite abelian groups in invariant-factor form.

A group is stored as a chain of invariant factors d1 | d2 | ... | dm with
order n = d1*...*dm and exponent v = dm; make_group takes such a chain
and invariant_factors rewrites any other list of cyclic factors into one.
Every element is identified with its mixed-radix index in [0, n) (last
coordinate least significant), so a subset is an n-bit mask.  The one
operation on a single index is scaling (GroupSpec.scale_index); sums of
sets are formed on masks, in the padded layout below.  Coordinates,
decoded from indices by coords_of_all, are only the form in which
elements are shown.  The only number theory here is prime_factors and
divisors (its lists cached for 1024 orders); every rule that ranges over
divisors for a (k,l) pair lives in formulas.

A mask moves in one way, through a padded layout of the same masks
(PaddedLayout): axis i gets 2*d_i - 1 slots, so adding two padded offsets
adds the elements without a carry, a whole translate is one shift, and
one fold per axis brings the sums back.  Sumset chains and the
exhaustive oracle keep their masks reduced padded, one slot per element:
a chain pads its set once and unpads only the layers it hands back as
masks of g, and the oracle moves its masks by the per-element moves of
translation_ops.

Automorphisms enter only as generators: unit scalings, a set of them that
generates the units of each axis, and transvections (_generator_moves).
automorphism_closure closes a collection of sets under them by a
breadth-first search; the closure of each singleton not yet reached is
one orbit (automorphism_orbits), and the oracle's enumeration closes the
maximum sets it finds.  That the orbits are the whole Aut(g)-orbits only
saves search effort; the oracle needs only that each generator is an
automorphism and that the orbits are those of the group they generate.
Every per-group table is cached in a bounded cache.

Everything here is immutable and pure; values can be shared freely between
concurrent callers.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from operator import floordiv, mod, mul
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "GroupSpec",
    "make_group",
    "parse_group_spec",
    "format_group_spec",
    "invariant_factors",
    "divisors",
    "prime_factors",
    "invariant_factor_chains",
    "all_abelian_groups",
    "PaddedLayout",
    "padded_layout",
    "automorphism_orbits",
    "automorphism_closure",
]


# ---------------------------------------------------------------------------
# prime factors and divisors (desk scale; trial division is plenty)

def prime_factors(x: int) -> dict[int, int]:
    """Prime factorization of an int x >= 1 as {prime: exponent}."""
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def divisors(x: int) -> list[int]:
    """All divisors of an int x >= 1, sorted ascending."""
    return list(_divisor_tuple(x))


# every divisor rule in formulas walks the divisors of the same few orders;
# typed, so that 6.0 misses the entry of 6 and is refused by prime_factors
@functools.lru_cache(maxsize=1024, typed=True)
def _divisor_tuple(x: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in prime_factors(x).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


# ---------------------------------------------------------------------------
# groups and elements

class GroupSpec(NamedTuple):
    """A finite abelian group Z_{d1} x ... x Z_{dm} with d1 | d2 | ... | dm.

    n is the order (product of the factors), v the exponent (last factor).
    Construct through make_group / parse_group_spec, which normalize and
    validate the chain.
    """

    factors: tuple[int, ...]
    n: int
    v: int

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range for group of order {self.n}")
        return self.coords_of_all([index])[0]

    def coords_of_all(self, indices: Sequence[int]) -> list[tuple[int, ...]]:
        """The coordinates of each index in [0, n), unchecked: the one
        decoder from indices to coordinates.  They are taken column by
        column, one % and one // pass over the indices per axis, last axis
        first."""
        columns, rest = [], indices
        for d in reversed(self.factors[1:]):
            columns.append(list(map(mod, rest, itertools.repeat(d))))
            rest = list(map(floordiv, rest, itertools.repeat(d)))
        columns.append(rest)
        return list(zip(*reversed(columns)))

    def index_of(self, coords: Iterable[int]) -> int:
        idx = 0
        for c, d in zip(coords, self.factors):
            idx = idx * d + (c % d)
        return idx

    def checked_index(self, coords: Sequence[int]) -> int:
        """index_of for coordinates from outside: one per factor, each in
        [0, d_i), else ValueError (index_of reduces them mod d_i)."""
        if len(coords) != len(self.factors):
            raise ValueError(
                f"coordinates {tuple(coords)} do not fit group {self}, "
                f"which needs {len(self.factors)}"
            )
        for c, d in zip(coords, self.factors):
            if not 0 <= c < d:
                raise ValueError(
                    f"coordinates {tuple(coords)} do not fit group {self}: "
                    f"coordinate {c} is outside [0, {d})"
                )
        return self.index_of(coords)

    def scale_index(self, h: int, i: int) -> int:
        return self.index_of(h * c for c in self.coords_of(i))

    def __str__(self) -> str:
        return format_group_spec(self)


def invariant_factors(factors: Iterable[int]) -> tuple[int, ...]:
    """Invariant-factor chain of the product of cyclic groups Z_f.

    Merges the prime-power content of all factors: for each prime, the
    exponent multiset is right-aligned so the largest powers end up in the
    last (biggest) invariant factor.  make_group(invariant_factors([2, 3]))
    is Z_6.
    """
    per_prime: dict[int, list[int]] = {}
    for f in factors:
        for p, e in prime_factors(f).items():
            per_prime.setdefault(p, []).append(e)
    if not per_prime:
        return ()
    m = max(len(es) for es in per_prime.values())
    chain = [1] * m
    for p, es in per_prime.items():
        es = sorted(es)
        for i, e in enumerate(es):
            chain[m - len(es) + i] *= p**e
    return tuple(chain)


def make_group(factors: Iterable[int]) -> GroupSpec:
    """Build a GroupSpec from a factor list, dropping factors equal to 1.

    The remaining factors must form a divisibility chain with product > 1;
    invariant_factors rewrites any other factor list into one.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("factor list must be non-empty")
    if any(not isinstance(f, int) or f < 1 for f in factors):
        raise ValueError(f"factors must be positive integers, got {factors}")
    kept = tuple(f for f in factors if f > 1)
    n = 1
    for f in kept:
        n *= f
    if n <= 1:
        raise ValueError(f"group order must exceed 1, got factors {factors}")
    for a, b in zip(kept, kept[1:]):
        if b % a != 0:
            raise ValueError(f"{a} does not divide {b}: not an invariant-factor chain")
    return GroupSpec(factors=kept, n=n, v=kept[-1])


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a CLI group spec: "10" for Z_10, "2x4x8" for Z_2 x Z_4 x Z_8."""
    parts = text.strip().split("x")
    try:
        factors = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse group spec {text!r}") from None
    return make_group(factors)


def format_group_spec(g: GroupSpec) -> str:
    return "x".join(str(f) for f in g.factors)


# ---------------------------------------------------------------------------
# the padded layout
#
# A block is the run of v bits that share every coordinate but the last.
# pad() moves each of the n/v blocks of a mask to its padded offset.
# fold() folds one axis at a time: slots d_i..2d_i-2 of axis i hold sums
# that wrapped past d_i, so one mask, one shift and one OR move them onto
# slots 0..d_i-2, which leaves a reduced padded mask; unpad() folds, then
# moves the blocks back.  A block move halves the
# run of blocks and recurses, so each big-int operation touches only the
# half it splits, O(size * log(n/v)) bit operations in all.  Sums of
# padded offsets stay below the padded size, so a shift never leaves the
# layout.
#
# A reduced padded mask sets only slots whose every coordinate is below
# d_i, the padded offsets of elements of g; bit 0 is the identity, as in
# g.  translation_ops moves one by an element e without leaving the
# layout: one shift by e's offset, then the fold of each axis on which e
# can wrap.  Axis 0 is the most significant, so its fold needs no XOR:
# the slots that did not wrap lie below the fold's shift, which drops
# them.

# Each per-group cache holds at most this many groups: more than the 67
# abelian groups of order <= 40 that the exact oracle searches by default,
# so a sweep over all of them rebuilds nothing.
_TABLE_CACHE_GROUPS = 128


def _move_blocks(x: int, src: tuple[int, ...], dst: tuple[int, ...], lo: int, hi: int) -> int:
    """Blocks lo..hi-1 of x, read at offsets src[j] - src[lo] and written at
    dst[j] - dst[lo]; x holds nothing but those blocks."""
    if hi - lo == 1:
        return x
    mid = (lo + hi) // 2
    cut = src[mid] - src[lo]
    low = _move_blocks(x & ((1 << cut) - 1), src, dst, lo, mid)
    return low | _move_blocks(x >> cut, src, dst, mid, hi) << (dst[mid] - dst[lo])


class PaddedLayout(NamedTuple):
    """Subset masks of g spread out so that adding offsets adds elements.

    size is the number of padded slots, prod(2*d_i - 1); blocks[j] = j*v
    and offsets[j] are the offsets of the j-th block of g in g and in the
    layout; folds holds, per axis, the mask of the padded slots whose
    coordinate on that axis is below d_i and the padded stride times d_i,
    the shift that folds the axis.  pad and unpad move a mask of g in and
    out; fold keeps a sum of reduced padded masks in the layout, so a
    chain of sums (sumset._multiples) pads once and unpads only what it
    hands back.
    """

    v: int
    size: int
    blocks: tuple[int, ...]
    offsets: tuple[int, ...]
    folds: tuple[tuple[int, int], ...]

    def offset(self, index: int) -> int:
        """The padded offset of the element at this index of g."""
        return self.offsets[index // self.v] + index % self.v

    def pad(self, bits: int) -> int:
        """A subset mask of g in the padded layout."""
        return _move_blocks(bits, self.blocks, self.offsets, 0, len(self.blocks))

    def fold(self, bits: int) -> int:
        """The reduced padded mask that a padded mask of sums of two reduced
        ones stands for: one fold per axis brings each coordinate below d_i."""
        for low, shift in self.folds:
            kept = bits & low
            bits = kept | (bits ^ kept) >> shift
        return bits

    def unpad(self, bits: int) -> int:
        """The subset mask of g that a padded mask (of any padded sums) stands for."""
        return _move_blocks(self.fold(bits), self.offsets, self.blocks, 0, len(self.blocks))

    def translate(self, padded: int, index: int) -> int:
        """The mask of g translated by an element, from its padded mask."""
        return self.unpad(padded << self.offset(index))


@functools.lru_cache(maxsize=_TABLE_CACHE_GROUPS)
def padded_layout(g: GroupSpec) -> PaddedLayout:
    """The padded layout of g: two offsets per block and one fold per axis."""
    strides = []  # padded stride of each axis, last axis first
    size = 1
    for d in reversed(g.factors):
        strides.append(size)
        size *= 2 * d - 1
    strides.reverse()
    # block j starts at index j*v, whose last coordinate is 0
    offsets = tuple(
        sum(c * s for c, s in zip(coords, strides))
        for coords in g.coords_of_all(range(0, g.n, g.v))
    )
    folds = []
    for d, s in zip(g.factors, strides):
        pattern = "0" * ((d - 1) * s) + "1" * (d * s)  # one period of axis i
        folds.append((int(pattern * (size // len(pattern)), 2), d * s))
    return PaddedLayout(
        v=g.v, size=size, blocks=tuple(range(0, g.n, g.v)), offsets=offsets, folds=tuple(folds)
    )


@functools.lru_cache(maxsize=_TABLE_CACHE_GROUPS)
def translation_ops(g: GroupSpec) -> tuple[tuple[int, tuple[tuple[int, int], ...], int, int], ...]:
    """translation_ops(g)[e] is the move (shift, folds, top, top_down) that
    adds the element e to a reduced padded mask.

    shift is e's padded offset; folds are the folds of the axes i >= 1 on
    which e's coordinate is nonzero (no other axis can wrap); (top,
    top_down) is axis 0's fold, or (-1, size), which keeps every slot and
    drops nothing, when e's axis-0 coordinate is 0.
    """
    layout = padded_layout(g)
    top = layout.folds[0]
    table = []
    for e, coords in enumerate(g.coords_of_all(range(g.n))):
        folds = tuple(layout.folds[i] for i in range(1, len(coords)) if coords[i])
        table.append((layout.offset(e), folds) + (top if coords[0] else (-1, layout.size)))
    return tuple(table)


# ---------------------------------------------------------------------------
# automorphism orbits

@functools.lru_cache(maxsize=_TABLE_CACHE_GROUPS)
def _generator_moves(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Unit scalings x_i -> u*x_i and the transvections
    x_j -> x_j + (d_j / gcd(d_i, d_j))*x_i of g, as index maps.  A scaling
    is kept only when u is not in the subgroup of units of Z_{d_i} that
    the scalings kept before it generate, so the kept ones still generate
    all the units (Z_128 keeps 2 of its 63).  The transvection's
    coefficient makes d_i*x_i vanish mod d_j, so it is well defined; each
    map is additive, and the inverse unit or subtracting the same multiple
    undoes it.  A map changes one coordinate c_j to c'_j, so it moves index
    x to x + (c'_j - c_j)*stride_j."""
    # stride_i is the product of the factors after axis i; cols[i][x] is
    # the coordinate of index x on axis i
    strides = [g.n // d for d in itertools.accumulate(g.factors, mul)]
    cols = list(zip(*g.coords_of_all(range(g.n))))
    moves = []
    for i, (d, s) in enumerate(zip(g.factors, strides)):
        generated = {1}
        for u in range(2, d):
            if gcd(u, d) == 1 and u not in generated:
                moves.append(tuple(x + (u * c % d - c) * s for x, c in enumerate(cols[i])))
                powers = [1]  # the kept units now generate generated * <u>
                while powers[-1] * u % d != 1:
                    powers.append(powers[-1] * u % d)
                generated = {a * b % d for a in generated for b in powers}
        for j, (dj, sj) in enumerate(zip(g.factors, strides)):
            if j != i:
                step = dj // gcd(d, dj)
                moves.append(
                    tuple(x + ((cj + step * ci) % dj - cj) * sj
                          for x, ci, cj in zip(range(g.n), cols[i], cols[j]))
                )
    return tuple(moves)


def automorphism_closure(g: GroupSpec, sets: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The sets, as sorted index tuples, and every image of them under the
    automorphisms that _generator_moves generate, each once, in
    breadth-first order from the given sets.  The generated group is
    finite, so the closure under the generators is closed under it."""
    gens = _generator_moves(g)
    reached = list(dict.fromkeys(sets))
    seen = set(reached)
    for s in reached:  # reached grows as the search goes
        for phi in gens:
            image = tuple(sorted(map(phi.__getitem__, s)))
            if image not in seen:
                seen.add(image)
                reached.append(image)
    return reached


@functools.lru_cache(maxsize=_TABLE_CACHE_GROUPS)
def automorphism_orbits(g: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """The orbits of the automorphisms that _generator_moves generate,
    each in ascending index order, ordered by their smallest index (so {0}
    comes first): each is the closure of the smallest index not yet
    reached.  A test checks that these are the Aut(g)-orbits to order 128."""
    orbits, reached = [], set()
    for start in range(g.n):
        if start not in reached:
            orbits.append(tuple(sorted(x for x, in automorphism_closure(g, [(start,)]))))
            reached.update(orbits[-1])
    return tuple(orbits)


# ---------------------------------------------------------------------------
# enumerating all abelian groups of a given order

def invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    """All invariant-factor chains with the given product, sorted.

    Each chain is one isomorphism class of abelian group of that order.
    """
    if order < 2:
        return []

    def rec(m: int, cap: int) -> list[tuple[int, ...]]:
        if m == 1:
            return [()]
        out = []
        for t in divisors(m):
            if t >= 2 and cap % t == 0:
                out.extend(prefix + (t,) for prefix in rec(m // t, t))
        return out

    return sorted(rec(order, order))


def all_abelian_groups(max_order: int, min_order: int = 2) -> list[GroupSpec]:
    """Every abelian group with order in [min_order, max_order], ascending."""
    out = []
    for order in range(max(2, min_order), max_order + 1):
        out.extend(make_group(chain) for chain in invariant_factor_chains(order))
    return out

