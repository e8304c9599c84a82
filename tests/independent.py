"""A (k,l)-sum-free test and an exhaustive oracle that share no code with
klsumfree.

They check the package's sum-free test, exact search, count and
enumeration, so they import nothing from the package.  A group
Z_{d_1} x ... x Z_{d_r} is given by its factors; an element is its
mixed-radix index, the last axis varying fastest, and a set is a plain
n-bit mask, bit x for element x.  Adding an element to every member of a
set rotates each block of axis i (d_i * stride_i consecutive bits) by the
element's coordinate on that axis: two masked shifts per axis on which
the coordinate is nonzero.

A set A is (k,l)-sum-free when kA and lA are disjoint.  Its state is the
tower of layers jA, j = 0..k (0A = {0}); adding x gives the layers of
A + {x} by out_0 = {0} and out_j = layers_j | (out_{j-1} + x).  The test
adds a given set's members in turn.  The search walks the sets in index
order, each level keeping only the candidates that stay addable, and
cuts a branch only when its size plus its remaining candidates cannot
beat the best found (or, listing the largest sets, cannot reach its
size).
"""

from __future__ import annotations

from math import prod


def translation_ops(factors: list[int]) -> list[tuple[tuple[int, int, int], ...]]:
    """translation_ops(factors)[x]: the (up, low, down) block rotations
    that add the element x to a mask, one per axis where x's coordinate c
    is nonzero.  up = c * stride; low marks the bits of each block that
    move up by it, and the rest of the block wraps down by down."""
    n = prod(factors)
    axes = []  # (stride, block, a 1 at the bottom of every block), last axis first
    stride = 1
    for d in reversed(factors):
        block = d * stride
        axes.append((stride, block, sum(1 << i for i in range(0, n, block))))
        stride = block
    ops = []
    for x in range(n):
        rotations = []
        rest = x
        for (stride, block, ones), d in zip(axes, reversed(factors)):
            rest, c = divmod(rest, d)
            if c:
                up = c * stride
                rotations.append((up, ((1 << (block - up)) - 1) * ones, block - up))
        ops.append(tuple(rotations))
    return ops


def make_extend(factors: list[int], k: int, l: int):
    """extend(layers, x): the layers of A + {x} from those of A, or None
    when A + {x} is not (k,l)-sum-free."""
    ops = translation_ops(factors)

    def extend(layers, x):
        out = [1]
        for j in range(1, k + 1):
            bits = out[-1]
            for up, low, down in ops[x]:
                bits = (bits & low) << up | (bits & ~low) >> down
            out.append(layers[j] | bits)
        return None if out[k] & out[l] else out

    return extend


def is_sum_free(factors: list[int], k: int, l: int, indices) -> bool:
    """Whether the set of the given indices is (k,l)-sum-free.  Its layers
    are built by adding the members one at a time; once extend refuses a
    member, the members so far are not sum-free, nor is any set that holds
    them."""
    extend = make_extend(factors, k, l)
    layers = [1] + [0] * k
    for x in indices:
        layers = extend(layers, x)
        if layers is None:
            return False
    return True


def _roots(factors: list[int], k: int, l: int):
    extend = make_extend(factors, k, l)
    empty = [1] + [0] * k
    roots = []
    for x in range(prod(factors)):
        layers = extend(empty, x)
        if layers is not None:
            roots.append((x, layers))
    return extend, roots


def _children(extend, candidates, i):
    """The candidates after the i-th that stay addable with it."""
    child = []
    for y, _ in candidates[i + 1:]:
        layers = extend(candidates[i][1], y)
        if layers is not None:
            child.append((y, layers))
    return child


def max_size(factors: list[int], k: int, l: int) -> int:
    """The largest size of a (k,l)-sum-free subset of the group."""
    extend, roots = _roots(factors, k, l)
    best = 0

    def walk(size, candidates):
        nonlocal best
        best = max(best, size)
        for i in range(len(candidates)):
            if size + len(candidates) - i <= best:
                return
            walk(size + 1, _children(extend, candidates, i))

    walk(0, roots)
    return best


def by_size(factors: list[int], k: int, l: int) -> dict[int, int]:
    """The number of (k,l)-sum-free subsets of the group of each size,
    by increasing size."""
    extend, roots = _roots(factors, k, l)
    counts: dict[int, int] = {}

    def walk(size, candidates):
        counts[size] = counts.get(size, 0) + 1
        for i in range(len(candidates)):
            walk(size + 1, _children(extend, candidates, i))

    walk(0, roots)
    return dict(sorted(counts.items()))


def maximum_sets(factors: list[int], k: int, l: int) -> list[tuple[int, ...]]:
    """Every (k,l)-sum-free subset of the largest size, as its indices in
    ascending order, the sets in index order; [()] when that size is 0.
    The walk keeps the sets of the largest size met so far, and cuts a
    branch only when its size plus its remaining candidates falls short
    of that size."""
    extend, roots = _roots(factors, k, l)
    best, found = 0, [()]

    def walk(chosen, candidates):
        nonlocal best, found
        if len(chosen) > best:
            best, found = len(chosen), [chosen]
        elif len(chosen) == best and chosen:
            found.append(chosen)
        for i in range(len(candidates)):
            if len(chosen) + len(candidates) - i < best:
                return
            walk(chosen + (candidates[i][0],), _children(extend, candidates, i))

    walk((), roots)
    return found
