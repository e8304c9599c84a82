"""Ground truth by exhaustive search.

One walk, _walk, serves the maximum search and the enumeration: from a
level it is given, the candidates that each extend a chosen set, it visits
the tree of (k,l)-sum-free sets that add some of them, with one call per
depth.  One builder (_addable) makes the root levels, the uncoloured
children and the count's levels: the elements, in order, that one extend
accepts.  Sum-freeness is hereditary (any subset of a sum-free set is
sum-free), so each level passes its children only the candidates that
stayed individually addable.  The walk carries a floor: a level is
visited only when it is nonempty and the current size plus its candidates
can exceed it.  A coloured walk bounds each level instead: the candidates
a set adds are pairwise compatible, so a greedy colouring of the level's
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
witness.  _orbit_branches builds each branch's root level once, and the
search, the count and the enumeration each start from it with one extend.
Neither cut uses a formula the oracle checks.  The count takes
the same orbit branches and weights each set by its orbit: every
automorphism fixes each orbit, so the sets whose first orbit is b follow
from those that contain the orbit's first element.  It does not walk:
one chain of extend (_chain) adds a level's candidates to its chosen set
in turn, and each candidate the chain cannot add splits the sets in two,
those with it, counted by a recursive call on the candidates that stay
addable next to it, and those without it, counted as the chain resumes.
The candidates the chain keeps form a complete level, one whose chosen set
plus all of them is sum-free, and heredity makes every set of them
sum-free, so their sizes are tallied by binomials.  The enumeration of
maximum sets walks the same branches, coloured, with the floor at
lambda - 1, closes the sets it finds under the generating automorphisms
(abelian.automorphism_closure), and sorts the closure into element-index
order.  It enters a level only while the level holds more candidates
than lambda less the chosen set's size; with exactly that many, the only
maximum set below is the chosen set plus the whole level, which the same
chain, from the level's first element, accepts or rejects, and the
subtree is skipped either way.
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

Each exhaustive entry point (lambda_exact, count_sum_free,
enumerate_maximum) takes one limit on the order, by default its
DEFAULT_LIMIT_EXACT or DEFAULT_LIMIT_COUNT: a larger order raises
LimitExceededError, and limit=None lifts the limit.

Searches are deterministic and sequential; callers that want parallelism
can fan out across instances.  Exact lambda results are cached per process,
for the last _EXACT_CACHE_MAX instances.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from math import comb, gcd
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

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
    "lambda_exact",
    "count_sum_free",
    "enumerate_maximum",
    "alpha_exact",
    "beta_exact",
    "gamma_exact",
]

DEFAULT_LIMIT_EXACT = 40
DEFAULT_LIMIT_COUNT = 28


class LimitExceededError(RuntimeError):
    """The instance's order exceeds the search limit the caller passed."""


def _check_limit(n: int, limit: Optional[int], what: str):
    if limit is not None and n > limit:
        raise LimitExceededError(f"{what} limited to order {limit} (requested {n})")


class SearchResult(NamedTuple):
    """Exact maximum with one witness set and search-effort counters.

    cached is True when the answer came from the in-process cache of
    earlier searches: nodes_explored is then the first search's count.
    """

    max_size: int
    witness: Subset
    nodes_explored: int
    cached: bool = False


class CountResult(NamedTuple):
    """Exact number of (k,l)-sum-free subsets, split by size (read-only),
    with nodes_explored: the empty set, each orbit branch's root, and every
    set that contains a branch's root, each tallied once, whether alone or
    in bulk with a complete level (see oracle._count).  These are the sets
    a walk that visits each of them reaches, so the figure does not depend
    on how the count splits them.  Results compare by their counts alone.
    """

    total: int
    by_size: Mapping[int, int]
    nodes_explored: int

    # tuple's own == and != would compare nodes_explored too
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.total == other.total and self.by_size == other.by_size

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # by_size is a mapping


def _reduced(g: GroupSpec, kl: KLParams) -> tuple[int, int]:
    """The pair the exact searches run at: each of k and l that is at
    least n becomes n + (h - n) mod v, and the larger comes first.

    For h >= n, hA = h'A for every A with h' = n + (h - n) mod v: the
    chain jA = (j-1)A + A stops growing by j = n + 1 (sumset._multiples),
    and from there hA = (j-1)A + (h-j+1)x for any x in A, which depends
    on h only mod v.  So (k,l)-sum-freeness, and every search result, is
    that of the reduced pair, and a huge k costs what one below n + v
    does.  kA and lA meeting is symmetric in k and l.
    """
    k, l = (h if h < g.n else g.n + (h - g.n) % g.v for h in (kl.k, kl.l))
    return max(k, l), min(k, l)


def _make_extend(g: GroupSpec, k: int, l: int):
    """extend(layers, x): the sumset layers of A + {x} from those of A, or
    None when A + {x} is not (k,l)-sum-free (its kA and lA meet).

    layers lists the reduced padded masks of 1A, ..., kA (the empty set's
    are k zeros); the new jA is the old jA union the new (j-1)A translated
    by x, 0A being {0} (bit 0, the identity), moved by x's entry of
    translation_ops.  A move with no folds (every move of a cyclic group,
    and each element whose coordinates past axis 0 are all 0) takes a loop
    without the fold step.
    """
    moves = translation_ops(g)
    lm = l - 1
    # the move is inlined: a call per layer made exact search about 10% slower

    def extend(layers, x):
        shift, folds, top, top_down = moves[x]
        out = []
        prev = 1
        if folds:
            for layer in layers:
                b = prev << shift
                for low, down in folds:
                    kept = b & low
                    b = kept | (b ^ kept) >> down
                prev = layer | (b & top) | b >> top_down
                out.append(prev)
        else:
            for layer in layers:
                b = prev << shift
                prev = layer | (b & top) | b >> top_down
                out.append(prev)
        return None if prev & out[lm] else out

    return extend


def _chain(extend, level, i: int = 0, layers=None):
    """(j, layers): the chain of extend that adds level[i], level[i + 1],
    ... in turn to a level's chosen set plus a prefix, up to the first
    element it cannot add.  j is that element's index (len(level) when
    the chain never breaks), and layers are the sumset layers 1A, ...,
    kA of chosen + prefix + level[i:j], as extend takes them.  layers None
    stands for an empty prefix: the chain then starts from level[i]'s own
    layers, with no extend.

    From i = 0 it decides whether a level is complete, its chosen set plus
    every candidate of it sum-free: j == len(level), which holds for the
    empty level.  Sum-freeness is hereditary, so then every chosen + S, S
    a subset of the level, is sum-free.  The enumeration runs the same
    chain from i = 0 on a level whose chosen set plus all of it has the
    maximum size.
    """
    if layers is None:
        if i == len(level):
            return i, None
        layers = level[i][1]
        i += 1
    while i < len(level):
        joined = extend(layers, level[i][0])
        if joined is None:
            break
        layers = joined
        i += 1
    return i, layers


def _first_fit(extend, level) -> tuple[list[int], list[int], list[dict]]:
    """First-fit colouring of the compatibility graph of a level's
    candidates 0..len(level)-1: (order, colours, pairs), order listing the
    candidates class by class, each class in level order, colours[p] the
    colour, from 1, of order[p], and pairs[v] the pair tests of v: for each
    tested u < v, pairs[v][u] is extend(level[u]'s layers, level[v]'s
    element), the layers of the chosen set plus both, or None when the two
    are incompatible.

    Candidate v joins the first class with no member compatible with it.
    A pair (u, v), u < v, is tested at most once, and only until v meets a
    compatible member in each class it skips, and for every member of the
    class it joins.  Each class is what a class-by-class greedy colouring
    builds from the whole graph: by induction on v, both put v in class c
    iff v has no neighbour among the class-c members below it and has one
    among those of each lower class.  A class is an independent set, so a
    clique meets it at most once, and a clique inside order[:p + 1] has at
    most colours[p] vertices.  Colours never decrease along order.
    """
    classes: list[list[int]] = []
    pairs: list[dict] = []
    for v, (x, _) in enumerate(level):
        row = {}
        pairs.append(row)
        for members in classes:
            for u in members:
                ly = row[u] = extend(level[u][1], x)
                if ly is not None:
                    break
            else:
                members.append(v)
                break
        else:
            classes.append([v])
    order = [v for members in classes for v in members]
    colours = [c for c, members in enumerate(classes, 1) for _ in members]
    return order, colours, pairs


def _addable(extend, layers, xs) -> list:
    """[(x, layers of the set + x)] for each x of xs, in order, that extend
    accepts, layers being those of the set: a level of the walk and the
    count."""
    return [(x, lx) for x in xs if (lx := extend(layers, x)) is not None]


def _walk(
    extend, floor: list[int], visit, level, chosen: tuple[int, ...], coloured: bool = False
) -> None:
    """Walk the tree of (k,l)-sum-free sets that extend chosen by a nonempty
    subset of the level, one call per depth.

    A level lists the (x, layers) candidates that extend the chosen set by
    one element, layers being the reduced padded masks of the extended
    set's sumset layers 1A, ..., kA (_addable builds it).  Each step is one
    extend (_make_extend), which gives those layers, or None when the
    extended set is not sum-free: that None is the walk's only sum-free
    test.  visit(level, depth, chosen) sees each level once, depth being
    len(chosen) + 1, the size of the extended sets, and returns True to
    enter its subtree or False to skip it.  A level is visited only when
    it is nonempty and could exceed floor[0]; visitors may raise floor[0]
    as they go.

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
    (one extend) only when the colouring reads it, and keeps each tested
    pair's layers, or None, in the row of its later candidate.  The level
    branches from the highest colour down, the child of v being the
    compatible candidates before v in colour order, with the pair's
    layers.  The colouring tests v only against candidates below it, and a
    candidate u above v that precedes v in colour order sits in a lower
    class than v, so placing u never read v's class and never tested the
    pair; so v's row holds every tested pair of its child, kept layers are
    reused, and only the pairs not yet tested are extended: child layers
    are computed only where the walk goes.  A set added below v takes at
    most one candidate per colour, so the sibling loop stops at the first
    v whose colour plus the chosen set cannot exceed floor[0].  The bound
    depends only on the instance.
    """
    depth = len(chosen)
    if not level or depth + len(level) <= floor[0]:
        return
    if not visit(level, depth + 1, chosen):
        return
    if not coloured:
        for i, (x, lx) in enumerate(level):
            if len(level) - i <= floor[0] - depth:
                return
            child = _addable(extend, lx, [y for y, _ in level[i + 1:]])
            _walk(extend, floor, visit, child, chosen + (x,))
        return
    by_colour, colours, pairs = _first_fit(extend, level)
    for p in range(len(level) - 1, -1, -1):
        if depth + colours[p] <= floor[0]:
            return
        v = by_colour[p]
        xv, lv = level[v]
        row = pairs[v]
        child = []
        for u in by_colour[:p]:
            ly = row.get(u, False)
            if ly is False:  # untested: the colouring never needed this pair
                ly = extend(lv, level[u][0])
            if ly is not None:
                child.append((level[u][0], ly))
        _walk(extend, floor, visit, child, chosen + (xv,), coloured=True)


def _orbit_branches(g: GroupSpec, k: int, l: int, extend):
    """Yield (orbit, root) for each orbit of Aut(g) whose first element r_b
    is sum-free, from the last orbit to the first; root is the level of
    {r_b} (_addable) over the elements after r_b, orbit by orbit.
    Automorphisms keep (k-l)x = 0, so no element of a skipped orbit is
    ever a candidate."""
    orbits = automorphism_orbits(g)
    order = [x for orbit in orbits for x in orbit]
    end = g.n
    for orbit in reversed(orbits):
        end -= len(orbit)
        if g.scale_index(k - l, orbit[0]):  # {r_b} is sum-free: k*r_b != l*r_b
            yield orbit, _addable(extend, extend([0] * k, orbit[0]), order[end + 1:])


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

    extend = _make_extend(g, k, l)
    for orbit, root in _orbit_branches(g, k, l, extend):
        nodes += 1
        floor[0] = max(floor[0], 1)
        _walk(extend, floor, visit, root, orbit[:1], coloured=True)
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
    _walk(extend, floor, first_hit, _addable(extend, [0] * k, range(g.n)), ())
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
    and never falls below the constructive witness's size.  An interval
    below 1 raises ValueError, whether or not progress is given.
    Results are cached per process and (group, k, l), for the last
    _EXACT_CACHE_MAX instances searched: a repeated call searches nothing,
    never calls progress, and returns the first search's result with
    cached=True.  limit caps g.n (None lifts it).
    """
    _check_limit(g.n, limit, "exact search")
    if progress_interval < 1:
        raise ValueError(f"progress_interval must be >= 1, got {progress_interval}")
    key = (g.factors, kl.k, kl.l)
    hit = _EXACT_CACHE.get(key)
    if hit is not None:
        return hit._replace(cached=True)
    seed = best_witness(g, kl)
    size, indices, nodes = _search_max(
        g, *_reduced(g, kl), tuple(seed.members.indices()), progress, progress_interval
    )
    result = SearchResult(size, Subset.from_indices(g, indices), nodes)
    if len(_EXACT_CACHE) >= _EXACT_CACHE_MAX:
        del _EXACT_CACHE[next(iter(_EXACT_CACHE))]
    _EXACT_CACHE[key] = result
    return result


def _count(g: GroupSpec, k: int, l: int) -> tuple[dict[int, int], int]:
    """The count: (number of sum-free sets by size, sets tallied).

    The branches are _orbit_branches', as in _search_max.  A nonempty set's
    first orbit is the first one it meets, and no set meets a skipped orbit.
    Branch b counts the sets that contain the orbit's first element r_b and
    lie inside orbits b and later, and tallies N_b(s, m): how many have size
    s and m members in orbit b.  Automorphisms fix every orbit and move r_b
    to each element of orbit b, so each of its |O_b| elements lies in
    N_b(s, m) of the sets with size s, first orbit b and m members there;
    counting the pairs (set, member in orbit b) both ways, there are
    |O_b| N_b(s, m) / m such sets.

    split(size, m, level) tallies the sum-free sets chosen + S, S a
    nonempty subset of the level, where chosen has size elements, m of
    them in orbit b (m is a plain counter), and each candidate x of the
    level carries the layers of chosen + x.  It runs the level's chain
    (_chain) once, from level[0]'s own layers.  The first element x that
    breaks the chain divides the sets in two.  Those with x are chosen + x,
    tallied at once, and chosen + x + T, tallied by one recursive call on
    the candidates left that stay addable next to x: a pair test each from
    x's layers, except a lone element before x in the chain, whose pair
    with x just failed.  Those without x are the loop's, which drops x and
    resumes the chain from the layers it reached.  The elements the chain
    keeps form a complete level, chosen plus all of them sum-free: with i
    of them in orbit b and o not, the C(i, a) C(o, c) sets that add a
    members and c others, for every (a, c) but (0, 0), are tallied as
    N_b(size + a + c, m + a).  Only an included element recurses, so the
    calls nest no deeper than the largest set.

    Every set that contains r_b is tallied once, in the cell of its size
    and its members in orbit b, as when a walk visited each set: nodes
    counts the empty set, each branch root and every set the tallies hold,
    and neither it nor the counts depend on where the chains break.
    """
    by_size = defaultdict(int)
    by_size[0] = 1
    nodes = 1
    extend = _make_extend(g, k, l)
    for orbit, root in _orbit_branches(g, k, l, extend):
        members = frozenset(orbit)
        tally = defaultdict(int)
        tally[1, 1] = 1  # the branch root {r_b}

        def split(size, m, level):
            kept = []  # the chain's elements so far
            i, layers = 0, None
            while True:
                j, layers = _chain(extend, level, i, layers)
                kept += level[i:j]
                if j == len(level):
                    break
                x, lx = level[j]
                mx = m + (x in members)
                tally[size + 1, mx] += 1
                # a lone kept element started the chain: its pair with x failed
                others = level[j + 1:] if len(kept) == 1 else kept + level[j + 1:]
                child = _addable(extend, lx, [y for y, _ in others])
                if child:
                    split(size + 1, mx, child)
                i = j + 1
            inside = sum(x in members for x, _ in kept)
            outside = len(kept) - inside
            for a in range(inside + 1):
                for c in range(outside + 1):
                    if a or c:
                        tally[size + a + c, m + a] += comb(inside, a) * comb(outside, c)

        split(1, 1, root)
        for (size, m), sets in tally.items():
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

    Orbit-weighted counts of the sets that contain an orbit's first
    element, split on the elements that break each level's chain (see
    _count); counts are exact big integers, and a weight that does not
    divide exactly raises RuntimeError.  Counts are not cached: every call
    counts again.  limit caps g.n (None lifts it).
    """
    _check_limit(g.n, limit, "subset counting")
    by_size, nodes = _count(g, *_reduced(g, kl))
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
    found, is every maximum set.  The floor keeps every level the walk
    visits at lambda - |chosen| candidates or more.  At depth lambda each
    candidate completes a maximum set.  Above it, a level with more
    candidates is walked; with exactly that many, the only maximum set
    below is the chosen set plus the whole level, kept when its chain
    (_chain) never breaks, and the subtree is skipped.  limit caps g.n
    (None lifts it).
    """
    _check_limit(g.n, limit, "maximum enumeration")
    lam = lambda_exact(g, kl, limit=None).max_size
    if lam == 0:
        return [Subset.empty(g)]
    found: list[tuple[int, ...]] = []
    k, l = _reduced(g, kl)
    extend = _make_extend(g, k, l)

    def visit(level, depth, chosen):
        if depth == lam:
            found.extend(tuple(sorted(chosen + (x,))) for x, _ in level)
            return False
        if len(chosen) + len(level) > lam:
            return True
        # exactly lam: the one maximum set below is chosen plus the whole level
        if _chain(extend, level)[0] == len(level):
            found.append(tuple(sorted(chosen + tuple(x for x, _ in level))))
        return False

    for orbit, root in _orbit_branches(g, k, l, extend):
        if lam == 1:  # no level visits the root {r_b}
            found.append(orbit[:1])
        _walk(extend, [lam - 1], visit, root, orbit[:1], coloured=True)
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


def _ap_value(n: int, kl: KLParams, which: int) -> int:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _ap_maxima(n, kl.k, kl.l)[which]


def alpha_exact(n: int, kl: KLParams) -> int:
    """Longest (k,l)-sum-free arithmetic progression in Z_n, any difference.

    n = 1 is allowed so divisor sweeps can include the trivial quotient.
    """
    return _ap_value(n, kl, 0)


def beta_exact(n: int, kl: KLParams) -> int:
    """Longest such progression whose difference shares a factor with n."""
    return _ap_value(n, kl, 1)


def gamma_exact(n: int, kl: KLParams) -> int:
    """Longest such progression whose difference is coprime to n."""
    return _ap_value(n, kl, 2)
