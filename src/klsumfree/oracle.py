"""Ground truth by exhaustive search.

One walk, _walk, visits the tree of (k,l)-sum-free sets in a given element
order.  Sum-freeness is hereditary (any subset of a sum-free set is
sum-free), so each level passes its children only the candidates that
stayed individually addable.  The walk carries a floor: a branch is cut
as soon as the current size plus the surviving candidates cannot exceed
it.  A coloured walk bounds each level instead: the candidates a set adds
are pairwise compatible, so a greedy colouring of the level's
compatibility graph bounds how many it can add (MCQ, Tomita-Seki 2003).
The colouring is first-fit and tests a pair of candidates only when it
needs the answer; the walk tests the others only where it branches.
State per candidate is the tower of sumset layers 1A, 2A, ..., kA,
updated incrementally when an element is added; the one step that updates
it (_make_extend) also answers whether the set is still sum-free.

The maximum search breaks the symmetry of Aut(G): it lists the elements
orbit by orbit, and for each orbit, from the last to the first, searches
only the sets that contain the orbit's first element and lie in that orbit
and the later ones, coloured, with the floor starting at the constructive
witness.  Neither cut uses a formula the oracle checks.  The count walks
the same orbit branches with the floor at 0 (no cut) and weights each set
by its orbit: every automorphism fixes each orbit, so the sets whose first
orbit is b follow from those that contain the orbit's first element.  The
enumeration of maximum sets walks the same branches, coloured, with the
floor at lambda - 1, closes the sets it finds under the generating
automorphisms (abelian.automorphism_closure), and sorts the closure into
element-index order.  Both take a complete level, one whose chosen set
plus all its candidates is sum-free (_joins), in bulk and skip its
subtree: heredity makes every set below it sum-free, so the count tallies
their sizes by binomials and the enumeration keeps the one largest set.
The orbits are the closures of single elements under the same generators
(abelian.automorphism_orbits).  The search, the count and the enumeration
need only that each generator is an automorphism and that the orbits are
those of the group they generate; that the orbits are the whole
Aut(G)-orbits only keeps the branches few.

Progression maxima (alpha/beta/gamma) do not enumerate subsets at all: for
a progression with difference q and start a, the difference set kA - lA is
{(k-l)a + i*q : -l*c <= i <= k*c}, so the largest safe c falls out of a
congruence.  Its solutions depend on q only through g = gcd(q, n) and on a
only through a subgroup of Z_{n/g}.  Over that subgroup the safe length
rises up to one cutoff and falls after it, and of the two starts beside
the cutoff the one below it is never beaten, so one start per divisor g
of n gives all three maxima, in O(d(n)) steps.

Each entry point takes one limit on the order, by default its
DEFAULT_LIMIT_EXACT, DEFAULT_LIMIT_COUNT or DEFAULT_LIMIT_AP: a larger
order raises LimitExceededError, and limit=None lifts the limit.

Searches are deterministic and sequential; callers that want parallelism
can fan out across instances.  Exact lambda results are cached per process,
for the last _EXACT_CACHE_MAX instances.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field, replace
from math import comb, gcd
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .abelian import GroupSpec, automorphism_closure, automorphism_orbits, divisors, translation_ops
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
    with nodes_explored: the empty set, each orbit branch's root, and every
    set the walks reach, whether visited or tallied in bulk below a
    complete level.  Results compare by their counts alone.
    """

    total: int
    by_size: Mapping[int, int]
    nodes_explored: int = field(compare=False)


def _make_extend(g: GroupSpec, k: int, l: int):
    """extend(layers, x): the sumset layers of A + {x} from those of A, or
    None when A + {x} is not (k,l)-sum-free (its kA and lA meet).

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
        return None if prev & out[l] else out

    return extend


def _joins(extend, level) -> bool:
    """Whether the chosen set of a level plus every candidate of it is
    (k,l)-sum-free: one chain of extend from level[0]'s layers, adding the
    rest of the level one element at a time.  False for an empty level.

    Sum-freeness is hereditary, so when it holds every chosen + S, S a
    subset of the level, is sum-free: the walk below the level would
    visit each nonempty S once.
    """
    if not level:
        return False
    layers = level[0][1]
    for x, _ in level[1:]:
        layers = extend(layers, x)
        if layers is None:
            return False
    return True


def _first_fit(n: int, compatible: Callable[[int, int], bool]) -> tuple[list[int], list[int]]:
    """First-fit colouring of the compatibility graph on vertices 0..n-1:
    (order, colours), order listing the vertices class by class, each class
    in vertex order, and colours[p] the colour, from 1, of order[p].

    Vertex v joins the first class with no member compatible with it.
    compatible(u, v), always with u < v and never twice for one pair, is
    asked only until v meets a compatible member in each class it skips,
    and for every member of the class it joins.  Each class is what a
    class-by-class greedy colouring builds from the whole graph: by
    induction on v, both put v in class c iff v has no neighbour among the
    class-c members below it and has one among those of each lower class.
    A class is an independent set, so a clique meets it at most once, and
    a clique inside order[:p + 1] has at most colours[p] vertices.
    Colours never decrease along order.
    """
    classes: list[list[int]] = []
    for v in range(n):
        for members in classes:
            for u in members:
                if compatible(u, v):
                    break
            else:
                members.append(v)
                break
        else:
            classes.append([v])
    order = [v for members in classes for v in members]
    colours = [c for c, members in enumerate(classes, 1) for _ in members]
    return order, colours


def _walk(
    g: GroupSpec,
    k: int,
    l: int,
    floor: list[int],
    visit,
    order: Optional[Sequence[int]] = None,
    base: tuple[int, ...] = (),
    coloured: bool = False,
) -> None:
    """Walk the tree of (k,l)-sum-free sets of g that contain base, adding
    elements in the given order (element-index order by default).

    A level lists the (x, layers) candidates that extend the chosen set by
    one element, layers being the reduced padded masks of the extended
    set's sumset layers.  Each step is one extend (_make_extend), which
    gives those layers, or None when the extended set is not sum-free:
    that None is the walk's only sum-free test.  visit(level, depth,
    chosen) sees each level once, depth being the size of the extended
    sets, and returns False to skip its subtree.  A child level is entered
    only when it could exceed floor[0]; visitors may raise floor[0] as
    they go.  base must itself be sum-free.

    By default a level branches on its candidates in its order, the child
    of x being the candidates after x that stay addable with it, and the
    sibling loop stops as soon as the chosen set plus the remaining
    siblings cannot exceed floor[0].

    With coloured, every level is coloured instead (MCQ, Tomita-Seki
    2003); coloured callers keep floor[0] at or above the depth their
    visitor is given, so the floor can cut every coloured level.
    Sum-freeness is hereditary, so the elements a set adds to the chosen
    one are pairwise compatible: each pair of them keeps the chosen set
    sum-free.  _first_fit colours the compatibility graph, testing a pair
    (one extend) only when the colouring reads it, and the level keeps
    each tested pair's layers, or None.  The level branches from the
    highest colour down, the child of v being the compatible candidates
    before v in colour order, with the pair's layers: kept ones are
    reused, and only the pairs not yet tested are extended, so child
    layers are computed only where the walk goes.  A set added below v
    takes at most one candidate per colour, so the sibling loop stops at
    the first v whose colour plus the chosen set cannot exceed floor[0].
    The bound depends only on the instance.
    """
    extend = _make_extend(g, k, l)
    layers = [1] + [0] * k
    for x in base:
        layers = extend(layers, x)
    root = []
    for x in range(g.n) if order is None else order:
        lx = extend(layers, x)
        if lx is not None:
            root.append((x, lx))

    def walk(level, depth, chosen):
        if not visit(level, depth + 1, chosen):
            return
        if coloured:
            branch_coloured(level, depth, chosen)
            return
        for i, (x, lx) in enumerate(level):
            if len(level) - i <= floor[0] - depth:
                return
            child = []
            for y, _ in level[i + 1:]:
                ly = extend(lx, y)
                if ly is not None:
                    child.append((y, ly))
            if child and depth + 1 + len(child) > floor[0]:
                walk(child, depth + 1, chosen + (x,))

    def branch_coloured(level, depth, chosen):
        tested = {}  # (u, v), u < v: the pair's layers, or None if incompatible

        def compatible(u, v):
            ly = tested[u, v] = extend(level[u][1], level[v][0])
            return ly is not None

        by_colour, colours = _first_fit(len(level), compatible)
        for p in range(len(level) - 1, -1, -1):
            if depth + colours[p] <= floor[0]:
                return
            v = by_colour[p]
            xv, lv = level[v]
            child = []
            for u in by_colour[:p]:
                ly = tested.get((u, v) if u < v else (v, u), False)
                if ly is False:  # untested: the colouring never needed this pair
                    ly = extend(lv, level[u][0])
                if ly is not None:
                    child.append((level[u][0], ly))
            if child and depth + 1 + len(child) > floor[0]:
                walk(child, depth + 1, chosen + (xv,))

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
) -> tuple[int, tuple[int, ...], int]:
    """The max visitor: (largest size, a set of that size, nodes visited).

    The branches are _orbit_branches'.  Branch b walks, coloured, the sets
    that contain the orbit's first element r_b and lie inside orbits b and
    later.  An automorphism maps a set whose first orbit is b to one that
    contains r_b, and it keeps every suffix of orbits, so the branches
    together reach the maximum.  The floor starts at the seed's size (the
    seed is a verified witness) and rises with every larger set found.

    The witness is the seed when the seed is maximum, else the first
    maximum set in element-index order (enumerate_maximum's first set):
    an index-order walk with the floor one below the maximum stops at its
    first hit.  nodes counts the empty set, each branch root and every set
    either walk visits.
    """
    floor = [len(seed)]
    best = 0  # the maximum, once known: the witness walk's floor sits below it
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

    for orbit, later in _orbit_branches(g, k, l):
        nodes += 1
        floor[0] = max(floor[0], 1)
        _walk(g, k, l, floor, visit, later, orbit[:1], coloured=True)
    lam = floor[0]
    if lam == len(seed):
        return lam, seed, nodes

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
    return lam, witness, nodes


# (g.factors, k, l) -> the search's result, oldest first; a miss adds one
# entry, dropping the oldest once the cache holds _EXACT_CACHE_MAX (a search
# benchmark round fills under 160 keys)
_EXACT_CACHE: dict[tuple, SearchResult] = {}
_EXACT_CACHE_MAX = 1024


def lambda_exact(
    g: GroupSpec,
    kl: KLParams,
    limit: Optional[int] = DEFAULT_LIMIT_EXACT,
    progress: Optional[Callable[[int, int, int], None]] = None,
    progress_interval: int = 65536,
) -> SearchResult:
    """Exact maximum size of a (k,l)-sum-free subset of g, with a witness.

    Branch-and-bound over automorphism orbits with a colouring bound (see
    _search_max and _walk).  The witness is the constructive one when that
    is maximum, else the first maximum set in element-index order.
    nodes_explored counts the sets the search visits.  progress, when
    given, is called as progress(nodes, depth, best) with nodes a multiple
    of progress_interval, once per level that crosses one; best never drops
    and never falls below the constructive witness's size.
    Results are cached per process and (group, k, l), for the last
    _EXACT_CACHE_MAX instances searched: a repeated call searches nothing,
    never calls progress, and returns the first search's result with
    cached=True.  limit caps g.n (None lifts it).
    """
    _check_limit(g.n, limit, "exact search")
    key = (g.factors, kl.k, kl.l)
    hit = _EXACT_CACHE.get(key)
    if hit is not None:
        return replace(hit, cached=True)
    seed = best_witness(g, kl)
    size, indices, nodes = _search_max(
        g, kl.k, kl.l, tuple(seed.members.indices()), progress, progress_interval
    )
    result = SearchResult(size, Subset.from_indices(g, indices), nodes)
    if len(_EXACT_CACHE) >= _EXACT_CACHE_MAX:
        del _EXACT_CACHE[next(iter(_EXACT_CACHE))]
    _EXACT_CACHE[key] = result
    return result


def _count(g: GroupSpec, k: int, l: int) -> tuple[dict[int, int], int]:
    """The count visitor: (number of sum-free sets by size, sets reached).

    The branches are _orbit_branches', as in _search_max.  A nonempty set's
    first orbit is the first one it meets, and no set meets a skipped orbit.
    Branch b walks the sets that contain the orbit's first element r_b and
    lie inside orbits b and later, and tallies N_b(s, m): how many have size
    s and m members in orbit b.  Automorphisms fix every orbit and move r_b
    to each element of orbit b, so each of its |O_b| elements lies in
    N_b(s, m) of the sets with size s, first orbit b and m members there;
    counting the pairs (set, member in orbit b) both ways, there are
    |O_b| N_b(s, m) / m such sets.

    A level of depth d whose chosen set has m members in orbit b is
    tallied one set per candidate and walked, unless it is complete
    (_joins): then, with i its leading orbit members and o the rest, the
    walk below it would visit the C(i, a) C(o, c) sets that add a members
    and c others, for every (a, c) but (0, 0), so they are tallied as
    N_b(d - 1 + a + c, m + a) and the subtree is skipped.  nodes counts the
    empty set, each branch root and every set the tallies hold: the same
    sets a walk without bulk tallies visits.
    """
    by_size = defaultdict(int)
    by_size[0] = 1
    nodes = 1
    extend = _make_extend(g, k, l)
    for orbit, later in _orbit_branches(g, k, l):
        members = frozenset(orbit)
        tally = defaultdict(int)
        tally[1, 1] = 1  # the branch root {r_b}

        def visit(level, depth, chosen):
            # later lists orbit b's own elements first and uncoloured levels
            # keep its order, so the orbit's members lead every level; chosen
            # is r_b and then elements in later's order, so they lead chosen
            # too, and m is its leading run: all of it once its last element
            # is a member, else the run that ends before the first non-member
            m = len(chosen)
            if chosen[-1] not in members:
                m = 1  # chosen[0] is r_b
                while chosen[m] in members:
                    m += 1
            inside = 0
            for x, _ in level:
                if x not in members:
                    break
                inside += 1
            outside = len(level) - inside
            if not _joins(extend, level):
                tally[depth, m + 1] += inside
                tally[depth, m] += outside
                return True
            # a complete level: chosen plus a of its members and c of the
            # rest, for every (a, c) but (0, 0), is a set the walk below
            # would visit, each once
            for a in range(inside + 1):
                for c in range(outside + 1):
                    if a or c:
                        tally[depth - 1 + a + c, m + a] += comb(inside, a) * comb(outside, c)
            return False

        _walk(g, k, l, [0], visit, later, orbit[:1])
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

    The branches are _orbit_branches', as in _search_max.  Branch b walks,
    coloured (see _walk) with the floor one below the maximum, the maximum
    sets that contain the orbit's first element r_b and lie inside orbits
    b and later; the sets all branches find are closed under the
    generating automorphisms (abelian.automorphism_closure).  Each
    generator is an automorphism, and the orbits are those of the group H
    they generate, so H fixes every orbit and carries r_b to each element
    of orbit b.  A maximum set whose first orbit is b holds some e in
    orbit b, and the h in H with h(r_b) = e maps one of branch b's sets
    onto it; so the closure, which holds every image under H of the sets
    found, is every maximum set.  Below a complete level (_joins) of depth
    less than the maximum, every set is sum-free, so the only maximum set
    there is the chosen set plus the whole level: it is kept when its size
    is the maximum and the subtree is skipped.  limit caps g.n (None lifts
    it).
    """
    _check_limit(g.n, limit, "maximum enumeration")
    lam = lambda_exact(g, kl, limit=None).max_size
    if lam == 0:
        return [Subset.empty(g)]
    found: list[tuple[int, ...]] = []
    extend = _make_extend(g, kl.k, kl.l)

    def visit(level, depth, chosen):
        if depth < lam:
            if not _joins(extend, level):
                return True
            # a complete level: the one largest set below it is chosen
            # plus the whole level
            if len(chosen) + len(level) == lam:
                found.append(tuple(sorted(chosen + tuple(x for x, _ in level))))
            return False
        found.extend(tuple(sorted(chosen + (x,))) for x, _ in level)
        return False

    for orbit, later in _orbit_branches(g, kl.k, kl.l):
        if lam == 1:  # no level visits the root {r_b}
            found.append(orbit[:1])
        _walk(g, kl.k, kl.l, [lam - 1], visit, later, orbit[:1], coloured=True)
    return [Subset.from_indices(g, s) for s in sorted(automorphism_closure(g, found))]


# ---------------------------------------------------------------------------
# exact progression maxima

# bounded like abelian's divisor lists; a progressions-witness benchmark
# round fills under 450 keys
@functools.lru_cache(maxsize=1024)
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
    divisors g of n: beta over g > 1, gamma at g = 1.

    For g | D the maximum of f(i0) = min(ceil(i0/k), ceil((N-i0)/l)) over
    the multiples i0 of s = D/g in [0, N) needs no loop.  With
    x* = kN/(k+l), i0 <= x* iff i0/k <= (N-i0)/l, so f(i0) = ceil(i0/k) up
    to x*, which never falls as i0 grows, and f(i0) = ceil((N-i0)/l) past
    it, which never rises.  So the maximum sits at one of two cutoffs: the
    last multiple a = s*floor(floor(x*)/s) at or below x*, with f(a) =
    c = ceil(a/k), or the first one past it, a + s, when a + s < N.  The
    second never wins.  Suppose it did: u = N - a - s > l*c.  Past x*,
    l(a+s) > k*u > klc, and a <= kc, so v = a + s is the one multiple of s
    in (kc, kc+s], kc + t say.  s divides k - l, so lc = kc (mod s) and u,
    a multiple of s above lc, is at least lc + t.  Then l(kc+t) = l*v >
    k*u >= k(lc+t) gives l > k, which is false.  So each divisor g | D
    gives ceil(a/k) in O(1) steps, and a call takes O(d(n)).
    """
    dd = gcd(n, k - l)
    beta = gamma = 0
    for g in divisors(n):
        period = n // g
        if dd % g:
            best = period
        else:
            step = dd // g
            best = -(-(k * period // (k + l) // step * step) // k)
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
