"""Ground truth by exhaustive search.

One walk, _walk, visits the tree of (k,l)-sum-free sets in a given element
order.  Sum-freeness is hereditary (any subset of a sum-free set is
sum-free), so each level passes its children only the candidates that
stayed individually addable.  The walk carries a floor: a branch is cut
as soon as the current size plus the surviving candidates cannot exceed
it, or, given per-element caps, as soon as the current size plus the cap
of the next candidate cannot.  State per candidate is the tower of sumset
layers 1A, 2A, ..., kA, updated incrementally when an element is added.

The maximum search breaks the symmetry of Aut(G): it lists the elements
orbit by orbit, and for each orbit, from the last to the first, searches
only the sets that contain the orbit's first element and lie in that orbit
and the later ones.  Each such branch leaves the maximum inside its suffix
of orbits, which caps every later branch's candidates from that orbit
(Russian-doll bounds, Ostergard 2002).  Neither cut uses a formula the
oracle checks.  The count walks the same orbit branches with the floor at
0 (no cut) and weights each set by its orbit: every automorphism fixes
each orbit, so the sets whose first orbit is b follow from those that
contain the orbit's first element.  The enumeration of maximum sets walks
the maximum search's orbit order with its caps and the floor at
lambda - 1, then sorts what it found into element-index order.

Progression maxima (alpha/beta/gamma) do not enumerate subsets at all: for
a progression with difference q and start a, the difference set kA - lA is
{(k-l)a + i*q : -l*c <= i <= k*c}, so the largest safe c falls out of a
congruence.  Its solutions depend on q only through g = gcd(q, n) and on a
only through a subgroup of Z_{n/g}, so one short loop per divisor g of n
gives all three maxima, in O(sigma(n)) steps.

Each entry point takes one limit on the order, by default its
DEFAULT_LIMIT_EXACT, DEFAULT_LIMIT_COUNT or DEFAULT_LIMIT_AP: a larger
order raises LimitExceededError, and limit=None lifts the limit.

Searches are deterministic and sequential; callers that want parallelism
can fan out across instances.  Exact lambda results are cached per process.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from math import gcd
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .abelian import GroupSpec, automorphism_orbits, divisors, translation_ops
from .formulas import KLParams
from .sumset import Subset
from .witness import best_witness

__all__ = [
    "SearchResult",
    "CountResult",
    "LimitExceededError",
    "DEFAULT_LIMIT_EXACT",
    "DEFAULT_LIMIT_COUNT",
    "DEFAULT_LIMIT_AP",
    "lambda_exact",
    "count_sum_free",
    "enumerate_maximum",
    "alpha_exact",
    "beta_exact",
    "gamma_exact",
]

DEFAULT_LIMIT_EXACT = 40
DEFAULT_LIMIT_COUNT = 28
DEFAULT_LIMIT_AP = 2000


class LimitExceededError(RuntimeError):
    """The instance's order exceeds the search limit the caller passed."""


def _check_limit(n: int, limit: Optional[int], what: str):
    if limit is not None and n > limit:
        raise LimitExceededError(f"{what} limited to order {limit} (requested {n})")


@dataclass(frozen=True)
class SearchResult:
    """Exact maximum with one witness set and search-effort counters.

    cached is True when the answer came from the in-process cache of
    earlier searches: nodes_explored is then the first search's count.
    """

    max_size: int
    witness: Subset
    nodes_explored: int
    cached: bool = False


@dataclass(frozen=True)
class CountResult:
    """Exact number of (k,l)-sum-free subsets, split by size (read-only),
    with the number of sets the walks visited.  Results compare by their
    counts alone.
    """

    total: int
    by_size: Mapping[int, int]
    nodes_explored: int = field(compare=False)


def _make_extend(g: GroupSpec, k: int):
    """extend(layers, x): sumset layers of A + {x} from those of A.

    layers[j] is the reduced padded mask of jA (layers[0] = {0}, bit 0
    being the identity); the new j-th layer is layers[j] union (new
    (j-1)-th layer translated by x), moved by x's entry of translation_ops.
    """
    moves = translation_ops(g)
    # the move is inlined: a call per layer made exact search about 10% slower

    def extend(layers, x):
        shift, folds, top, top_down = moves[x]
        out = [1]
        prev = 1
        for j in range(1, k + 1):
            b = prev << shift
            for low, down in folds:
                kept = b & low
                b = kept | (b ^ kept) >> down
            prev = layers[j] | (b & top) | b >> top_down
            out.append(prev)
        return out

    return extend


def _walk(
    g: GroupSpec,
    k: int,
    l: int,
    floor: list[int],
    visit,
    order: Optional[Sequence[int]] = None,
    cap: Optional[Sequence[int]] = None,
    base: tuple[int, ...] = (),
) -> None:
    """Walk the tree of (k,l)-sum-free sets of g that contain base, adding
    elements in the given order (element-index order by default).

    A level lists the (x, layers) candidates that extend the chosen set by
    one element, layers being the reduced padded masks of the extended
    set's sumset layers.  visit(level, depth, chosen) sees each level once,
    depth being the size of the extended sets, and returns False to skip
    its subtree.  A sibling loop stops as soon as the chosen set plus the
    remaining siblings cannot exceed floor[0], or, when a cap is given, as
    soon as the chosen set plus cap[x] cannot: cap[x] must bound every
    sum-free set made of x and the elements after it in the order, and must
    not increase along the order (only candidates' caps are read).  A child
    level is entered only when it could exceed floor[0]; visitors may raise
    floor[0] as they go.  base must itself be sum-free.
    """
    extend = _make_extend(g, k)
    layers = [1] + [0] * k
    for x in base:
        layers = extend(layers, x)
    if cap is None:
        cap = [g.n] * g.n  # never cuts: no set exceeds the group
    root = []
    for x in range(g.n) if order is None else order:
        lx = extend(layers, x)
        if not lx[k] & lx[l]:
            root.append((x, lx))

    def walk(level, depth, chosen):
        if not visit(level, depth + 1, chosen):
            return
        for i, (x, lx) in enumerate(level):
            room = floor[0] - depth
            if len(level) - i <= room or cap[x] <= room:
                return
            child = []
            for y, _ in level[i + 1:]:
                ly = extend(lx, y)
                if not ly[k] & ly[l]:
                    child.append((y, ly))
            if child and depth + 1 + len(child) > floor[0]:
                walk(child, depth + 1, chosen + (x,))

    if len(base) + len(root) > floor[0]:
        walk(root, len(base), base)


def _orbit_branches(g: GroupSpec, k: int, l: int):
    """Yield (orbit, later) for each orbit of Aut(g) whose first element r_b
    is sum-free, from the last orbit to the first; later lists the elements
    after r_b, orbit by orbit.  Automorphisms keep (k-l)x = 0, so no element
    of a skipped orbit is ever a candidate."""
    orbits = automorphism_orbits(g)
    order = [x for orbit in orbits for x in orbit]
    end = g.n
    for orbit in reversed(orbits):
        end -= len(orbit)
        if g.scale_index(k - l, orbit[0]):  # {r_b} is sum-free: k*r_b != l*r_b
            yield orbit, order[end + 1:]


def _search_max(
    g: GroupSpec,
    k: int,
    l: int,
    seed: tuple[int, ...],
    progress: Optional[Callable[[int, int, int], None]],
    progress_interval: int = 65536,
) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """The max visitor: (largest size, a set of that size, nodes visited,
    the caps).

    The branches are _orbit_branches'.  Let u[b] be the size of the largest
    sum-free set inside orbits b and later.  Branch b walks the sets that
    contain the orbit's first element r_b and lie inside orbits b and later;
    its floor starts at u[b+1] and ends at u[b].  An automorphism maps a set
    whose first orbit is b to one that contains r_b, and it keeps every
    suffix of orbits, so u[0] is the maximum.  Below the branch root, u of
    its orbit caps each candidate of a later orbit (Russian-doll bounds);
    u does not increase along the order, so a sibling loop stops at the
    first cap that fails.  The caps, u of each element's orbit (g.n in the
    skipped orbits, whose elements are never candidates), hold for every
    walk in the orbit order.

    The witness is the seed when the seed is maximum, else the first
    maximum set in element-index order (enumerate_maximum's first set):
    a walk with the floor one below the maximum stops at its first hit.
    nodes counts the empty set, each branch root and every set either walk
    visits.
    """
    floor = [0]
    best = len(seed)  # the progress report never drops below the seed
    nodes = 1  # the empty set

    def tick(level, depth):
        nonlocal nodes
        before = nodes
        nodes += len(level)
        if progress is not None and nodes // progress_interval > before // progress_interval:
            progress(nodes - nodes % progress_interval, depth, max(best, floor[0]))

    def visit(level, depth, chosen):
        tick(level, depth)
        floor[0] = max(floor[0], depth)
        return True

    cap = [g.n] * g.n
    for orbit, later in _orbit_branches(g, k, l):
        nodes += 1
        floor[0] = max(floor[0], 1)
        _walk(g, k, l, floor, visit, later, cap, orbit[:1])
        for x in orbit:
            cap[x] = floor[0]
    lam = floor[0]
    cap = tuple(cap)
    if lam == len(seed):
        return lam, seed, nodes, cap

    best = lam
    witness = seed

    def first_hit(level, depth, chosen):
        nonlocal witness
        tick(level, depth)
        if depth < lam:
            return True
        witness = chosen + (level[0][0],)
        floor[0] = g.n  # stops every sibling loop
        return False

    floor[0] = lam - 1
    _walk(g, k, l, floor, first_hit)
    return lam, witness, nodes, cap


# (g.factors, k, l) -> (the search's result, its caps); grows by one entry per miss
_EXACT_CACHE: dict[tuple, tuple[SearchResult, tuple[int, ...]]] = {}


def lambda_exact(
    g: GroupSpec,
    kl: KLParams,
    limit: Optional[int] = DEFAULT_LIMIT_EXACT,
    progress: Optional[Callable[[int, int, int], None]] = None,
    progress_interval: int = 65536,
) -> SearchResult:
    """Exact maximum size of a (k,l)-sum-free subset of g, with a witness.

    Branch-and-bound over automorphism orbits with Russian-doll bounds (see
    _search_max).  The witness is the constructive one when that is
    maximum, else the first maximum set in element-index order.
    nodes_explored counts the sets the search visits.  progress, when
    given, is called as progress(nodes, depth, best) with nodes a multiple
    of progress_interval, once per level that crosses one; best never drops
    and never falls below the constructive witness's size.
    Results are cached per process and (group, k, l): a repeated call
    searches nothing, never calls progress, and returns the first search's
    result with cached=True.  limit caps g.n (None lifts it).
    """
    _check_limit(g.n, limit, "exact search")
    key = (g.factors, kl.k, kl.l)
    hit = _EXACT_CACHE.get(key)
    if hit is not None:
        return replace(hit[0], cached=True)
    seed = best_witness(g, kl)
    size, indices, nodes, cap = _search_max(
        g, kl.k, kl.l, tuple(seed.members.indices()), progress, progress_interval
    )
    result = SearchResult(size, Subset.from_indices(g, indices), nodes)
    _EXACT_CACHE[key] = result, cap
    return result


def _count(g: GroupSpec, k: int, l: int) -> tuple[dict[int, int], int]:
    """The count visitor: (number of sum-free sets by size, sets visited).

    The branches are _orbit_branches', as in _search_max.  A nonempty set's
    first orbit is the first one it meets, and no set meets a skipped orbit.
    Branch b walks the sets that contain the orbit's first element r_b and
    lie inside orbits b and later, and tallies N_b(s, m): how many have size
    s and m members in orbit b.  Automorphisms fix every orbit and move r_b
    to each element of orbit b, so each of its |O_b| elements lies in
    N_b(s, m) of the sets with size s, first orbit b and m members there;
    counting the pairs (set, member in orbit b) both ways, there are
    |O_b| N_b(s, m) / m such sets.  nodes counts the empty set, each branch
    root and every set the walks visit.
    """
    by_size = defaultdict(int)
    by_size[0] = 1
    nodes = 1
    for orbit, later in _orbit_branches(g, k, l):
        members = frozenset(orbit)
        tally = defaultdict(int)
        tally[1, 1] = 1  # the branch root {r_b}

        def visit(level, depth, chosen):
            m = len(members.intersection(chosen))
            inside = sum(x in members for x, _ in level)
            tally[depth, m + 1] += inside
            tally[depth, m] += len(level) - inside
            return True

        _walk(g, k, l, [0], visit, later, None, orbit[:1])
        for (size, m), sets in tally.items():
            if not sets:
                continue
            nodes += sets
            weighted, rest = divmod(len(orbit) * sets, m)  # m >= 1: r_b is a member
            if rest:
                raise RuntimeError(
                    f"orbit-weighted count in group {g} is not integral: {len(orbit)} * "
                    f"{sets} sets of size {size} with {m} members in the orbit of {orbit[0]}"
                )
            by_size[size] += weighted
    return dict(sorted(by_size.items())), nodes


def count_sum_free(
    g: GroupSpec, kl: KLParams, limit: Optional[int] = DEFAULT_LIMIT_COUNT
) -> CountResult:
    """Exact count of all (k,l)-sum-free subsets of g, split by size.

    Orbit-weighted walks over the sets that contain an orbit's first
    element (see _count); counts are exact big integers, and a weight that
    does not divide exactly raises RuntimeError.  Counts are not cached:
    every call walks.  limit caps g.n (None lifts it).
    """
    _check_limit(g.n, limit, "subset counting")
    by_size, nodes = _count(g, kl.k, kl.l)
    return CountResult(sum(by_size.values()), MappingProxyType(by_size), nodes)


def enumerate_maximum(
    g: GroupSpec, kl: KLParams, limit: Optional[int] = DEFAULT_LIMIT_EXACT
) -> list[Subset]:
    """All (k,l)-sum-free subsets of maximum size, in lexicographic
    index order.  For the degenerate maximum 0 this is just the empty set.

    The walk takes the maximum search's orbit order and caps (see
    _search_max) with the floor one below the maximum.  limit caps g.n
    (None lifts it).
    """
    _check_limit(g.n, limit, "maximum enumeration")
    lam = lambda_exact(g, kl, limit=None).max_size
    if lam == 0:
        return [Subset.empty(g)]
    _, cap = _EXACT_CACHE[g.factors, kl.k, kl.l]
    order = [x for orbit in automorphism_orbits(g) for x in orbit]
    found: list[tuple[int, ...]] = []

    def visit(level, depth, chosen):
        if depth < lam:
            return True
        found.extend(chosen + (x,) for x, _ in level)
        return False

    _walk(g, kl.k, kl.l, [lam - 1], visit, order, cap)
    return [Subset.from_indices(g, ch) for ch in sorted(tuple(sorted(ch)) for ch in found)]


# ---------------------------------------------------------------------------
# exact progression maxima

@functools.lru_cache(maxsize=None)
def _ap_maxima(n: int, k: int, l: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma): longest (k,l)-sum-free progression in Z_n,
    overall / difference sharing a factor with n / difference coprime to n.

    For difference q with g = gcd(q, n) and period N = n/g, a progression
    from a is safe at length c+1 iff no solution i of i*q = -(k-l)a (mod n)
    lies in [-l*c, k*c].  When the congruence is unsolvable the whole coset
    of length N is safe.  Otherwise the solutions are i0 + N*Z with
    i0 = (r/g) * (q/g)^-1 mod N, r = -(k-l)a mod n, and the longest safe
    progression has min(ceil(i0/k), ceil((N-i0)/l)) terms.

    As a runs over Z_n, r runs over the multiples of D = gcd(n, k-l), so the
    class of q depends only on g: if g does not divide D, some start leaves
    the congruence unsolvable and the class reaches N; if it does, r/g runs
    over the multiples of D/g, a divisor of N, and so does i0 (a unit times
    r/g).  Every divisor g of n is gcd(q, n) for some q (q = g, or q = 0 for
    g = n, the singletons), so alpha, beta and gamma are maxima over the
    divisors g of n: beta over g > 1, gamma at g = 1.  Only divisors of D
    need a loop, of length n/D each; their total is at most sigma(n).
    """
    dd = gcd(n, k - l)
    beta = gamma = 0
    for g in divisors(n):
        period = n // g
        if dd % g:
            best = period
        else:
            best = max(
                min(-(-i0 // k), -(-(period - i0) // l))
                for i0 in range(0, period, dd // g)
            )
        if g == 1:
            gamma = best
        else:
            beta = max(beta, best)
    return max(beta, gamma), beta, gamma


def _ap_value(n: int, kl: KLParams, which: int, limit: Optional[int]) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_limit(n, limit, "progression search")
    return _ap_maxima(n, kl.k, kl.l)[which]


def alpha_exact(n: int, kl: KLParams, limit: Optional[int] = DEFAULT_LIMIT_AP) -> int:
    """Longest (k,l)-sum-free arithmetic progression in Z_n, any difference.

    n = 1 is allowed so divisor sweeps can include the trivial quotient.
    limit caps n (None lifts it).
    """
    return _ap_value(n, kl, 0, limit)


def beta_exact(n: int, kl: KLParams, limit: Optional[int] = DEFAULT_LIMIT_AP) -> int:
    """Longest such progression whose difference shares a factor with n."""
    return _ap_value(n, kl, 1, limit)


def gamma_exact(n: int, kl: KLParams, limit: Optional[int] = DEFAULT_LIMIT_AP) -> int:
    """Longest such progression whose difference is coprime to n."""
    return _ap_value(n, kl, 2, limit)
