"""Doubling and weak-doubling constants of finite semimetric spaces.

The doubling constant is the worst minimum number of half-radius open
balls needed to cover an open ball; the weak analog covers arbitrary
bounded sets by sets of at most half their diameter.  Both are computed
exactly at small scale (branch-and-bound set cover) and as brackets
otherwise.  Doubling bounds its cells in batches on packed uint64 words,
one vectorized greedy for many cells, and searches only where greedy and
the counting bound disagree.  The exact weak constant covers each maximal
clique of a distance threshold graph once, at the distance where it is
born, by the maximal cliques of the half-distance graph, each graph's list
enumerated once per call (Bron-Kerbosch).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .certify import sandwich_violation
from .schema import Report
from .setcover import exact_min_cover, greedy_cover, greedy_cover_batch
from .spaces import SemimetricSpace, snowflake

DOUBLING_EXACT_LIMIT = 15
WEAK_EXACT_CAP = 20  # exact weak doubling up to this many points; samples of at most as many above
MAX_DOUBLING_DIAMETER = sys.float_info.max / 4  # no critical radius sum overflows below it
BATCH_BYTES = 1 << 15  # packed half-radius traces of the cells bounded at once


class SandwichError(ValueError):
    """Pointwise D <= d <= alpha*D precondition failed."""

    def __init__(self, pair: tuple[int, int], message: str):
        self.pair = pair
        super().__init__(message)


@dataclass(frozen=True)
class Bracket(Report):
    """A constant known to lie in [lower, upper].  exact says the two bounds
    were proven equal, not merely that they meet: a greedy cover that meets
    the counting bound is still a bracket."""

    lower: int
    upper: int
    exact: bool

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("constant is a bracket; use .lower/.upper")
        return self.upper


@dataclass(frozen=True)
class DoublingReport(Bracket):
    witness_center: str
    witness_radius: float
    critical_radii_examined: int
    convention: str = "open"


@dataclass(frozen=True)
class WeakDoublingReport(Bracket):
    witness_set: tuple[str, ...]


@dataclass(frozen=True)
class CoverResult(Bracket):
    """Minimum number of half-radius balls covering one target ball."""

    target_size: int


@dataclass(frozen=True)
class BoundCheck(Report):
    base: tuple[int, int]  # (lower, upper) doubling constant of the base space
    transformed: tuple[int, int]  # the same for the transformed space
    exponent: int
    bound: float
    holds: bool
    exact: bool


def ball(space: SemimetricSpace, center: int, radius: float) -> list[int]:
    """Indices of the open ball around center."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return [int(i) for i in np.flatnonzero(space.dist[center] < radius)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as np.unique gives them, without np.unique's
    masked-array check: its first use imports numpy.ma, about 1.5 MB."""
    ordered = np.sort(values, axis=None)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _row_ints(rows: np.ndarray) -> list[int]:
    """The int of each row's little-endian bytes."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _row_masks(rows: np.ndarray) -> list[int]:
    """Bitmask of each row of a 2-D boolean array: bit j is column j."""
    return _row_ints(np.packbits(rows, axis=-1, bitorder="little"))


def cover_requirement(
    space: SemimetricSpace, center: int, radius: float, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> CoverResult:
    """Minimum number of open balls of radius/2 (centers anywhere) covering
    the open ball B(center, radius): exact when the target has at most
    exact_limit points, otherwise a greedy upper bound and the counting lower
    bound size / largest half-radius ball."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    universe = _row_masks(space.dist[center, None] < radius)[0]
    if universe == 0:
        return CoverResult(0, 0, True, 0)
    cands = [m & universe for m in _row_masks(2.0 * space.dist < radius)]
    size = universe.bit_count()
    if size <= exact_limit:
        k = exact_min_cover(universe, cands)
        return CoverResult(k, k, True, size)
    lower = -(-size // max(m.bit_count() for m in cands))
    return CoverResult(lower, greedy_cover(universe, cands), False, size)


def _cells(dist: np.ndarray, doubled: np.ndarray) -> tuple[np.ndarray, ...]:
    """Center, value v, target size, radius r and level of each cell, in
    (center, v) order: per center x and distinct v in dist[x], the first
    critical radius above v.  That is the midpoint of v and the next
    breakpoint b (distance from x or doubled distance), b where the midpoint
    rounds down to v, or v + 1 past the last; open balls are the same on
    (v, b], and B(x, r) is {dist[x] <= v}.  No doubled distance lies in
    (v, r), so the level, the number of doubled distances below r, is the
    number at most v."""
    n = len(dist)
    ordered = np.full((n, n + 1), np.inf)
    ordered[:, :n] = dist
    ordered.sort(axis=1)
    centers, cols = np.nonzero(ordered[:, :-1] != ordered[:, 1:])  # each run's last
    vals = ordered[centers, cols]
    after = ordered[centers, cols + 1]
    levels = np.searchsorted(doubled, vals, "right")
    np.minimum(after, np.append(doubled, np.inf)[levels], out=after)
    radii = (vals + after) / 2.0
    np.copyto(radii, after, where=radii <= vals)
    np.copyto(radii, vals + 1.0, where=after == np.inf)
    return centers, vals, cols + 1, radii, levels


def _pack_words(rows: np.ndarray) -> np.ndarray:
    """Little-endian uint64 words of boolean rows whose length is a multiple
    of 64: bit j of a row is bit j % 64 of its word j // 64."""
    words = np.packbits(rows, axis=None, bitorder="little").view("<u8")
    return words.reshape(*rows.shape[:-1], -1)


def doubling_constant(
    space: SemimetricSpace, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> DoublingReport:
    """Worst-case minimum half-radius ball cover over all centers and all
    critical radii; exact when every worst cell was solved exactly.

    While the target ball B(x, r) stays the same, the half-radius balls only
    grow with r, so neither the minimum cover nor the counting lower bound
    can rise.  Only the first critical radius above each distinct value of
    dist[x] is examined, at most n cells per center.

    Batches of cells, across centers and at most BATCH_BYTES of packed
    traces, get their greedy size and counting bound ceil(size / largest
    trace) from one greedy_cover_batch; a half-radius ball is 2 dist < r,
    exact where r/2 would round.  Then, in (center, radius) order, a target
    of more than exact_limit points takes (counting, greedy); a smaller one
    is exact, settled when the two meet, skipped when greedy is at most the
    best lower bound so far, else solved by exact_min_cover.  A cell whose
    target size is at most the best lower bound is skipped before it is
    bounded.  A skipped cell's bounds are all at most the best lower bound,
    so it can raise neither bound nor move the witness (the first cell with
    a larger upper).

    Breakpoints reach twice the diameter and midpoints sum two of them, so
    a diameter above a quarter of the largest float is a ValueError.
    """
    if space.diameter() > MAX_DOUBLING_DIAMETER:
        raise ValueError(
            f"doubling needs a diameter of at most {MAX_DOUBLING_DIAMETER!r}, "
            f"got {space.diameter()!r}: its critical radii would overflow a float"
        )
    n = space.n
    words = -(-n // 64)
    doubled = _distinct(2.0 * space.dist)
    # 2 d < r exactly when the rank of 2 d among the doubled distances is
    # below r's level, the number of them below r; columns past n are in no
    # ball.  Small integer ranks compare several times faster than floats.
    rank_type = np.min_scalar_type(len(doubled))
    ranks = np.full((n, 64 * words), len(doubled), dtype=rank_type)
    ranks[:, :n] = np.searchsorted(doubled, 2.0 * space.dist)
    centers, vals, sizes, radii, levels = _cells(space.dist, doubled)
    levels = levels.astype(rank_type)
    reach = np.searchsorted(doubled, 2.0 * vals, "right").astype(rank_type)  # target 2 d <= 2 v
    batch = max(1, BATCH_BYTES // (8 * n * words))
    best_lower, best_upper = 1, 1
    wit_center, wit_radius = 0, 0.0
    todo = np.flatnonzero(sizes > best_lower)
    while len(todo):
        cells, todo = todo[:batch], todo[batch:]
        targets = _pack_words(ranks[centers[cells]] < reach[cells, None])
        traces = _pack_words(ranks < levels[cells, None, None])
        traces &= targets[:, None]
        largest, upper = greedy_cover_batch(targets, traces)
        lower = -(-sizes[cells] // largest)
        # small cells where counting and greedy disagree, in order, each
        # against the best lower bound of the cells before it; one left
        # unsolved has both bounds at most that lower bound, which is at most
        # the upper of an earlier cell, so it moves no maximum or witness.
        # That bound is the larger of the counting bounds before the cell and
        # the sizes solved before it, none of which is below its own counting
        # bound.
        counted = [0, *np.maximum.accumulate(lower).tolist()]  # max of lower[:i]
        floor = best_lower
        for i in np.flatnonzero((sizes[cells] <= exact_limit) & (lower < upper)).tolist():
            if upper[i] > max(floor, counted[i]):
                universe = int.from_bytes(targets[i].tobytes(), "little")
                lower[i] = upper[i] = size = exact_min_cover(universe, _row_ints(traces[i]))
                floor = max(floor, size)
        top = upper.argmax()
        if upper[top] > best_upper:
            best_upper = int(upper[top])
            wit_center, wit_radius = int(centers[cells[top]]), float(radii[cells[top]])
        if lower.max() > best_lower:
            best_lower = int(lower.max())
            todo = todo[sizes[todo] > best_lower]
    return DoublingReport(
        lower=best_lower,
        upper=best_upper,
        exact=best_lower == best_upper,
        witness_center=space.labels[wit_center],
        witness_radius=wit_radius,
        critical_radii_examined=len(radii),
    )


def _maximal_cliques(adj: list[int], r: int, p: int) -> list[int]:
    """Maximal cliques (as bitmasks) of the graph with bitmask adjacency rows
    adj that hold the clique r and lie inside r | p, where p is the common
    neighbourhood of r, by Bron-Kerbosch with pivoting.  The whole graph's
    list is r = 0, p = every vertex."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        best_deg = -1
        scan = p | x
        while scan:
            bit = scan & -scan
            v = bit.bit_length() - 1
            deg = (p & adj[v]).bit_count()
            if deg > best_deg:
                best_deg, pivot = deg, v
            scan &= ~bit
        cand = p & ~adj[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    bk(r, p, 0)
    return out


def _threshold_adjacency(dist: np.ndarray, threshold: float) -> list[int]:
    return _row_masks((dist <= threshold) & ~np.eye(len(dist), dtype=bool))


def _half_threshold(s: np.ndarray | float) -> np.ndarray:
    """Largest float t with 2 t <= s, elementwise: below the normal range
    s / 2 rounds to even, and rounding up would admit too long pairs."""
    t = s / 2.0
    return np.where(2.0 * t > s, np.nextafter(t, 0.0), t)


def _half_diameter_cover(dist: np.ndarray) -> int:
    """Minimum number of sets of at most half its diameter covering a whole
    set with distance matrix dist.  Covering sets may be any subsets of X,
    but intersecting with the set never raises a diameter, so the maximal
    cliques of its own threshold graph suffice."""
    everything = (1 << len(dist)) - 1
    adj = _threshold_adjacency(dist, _half_threshold(dist.max()))
    return exact_min_cover(everything, _maximal_cliques(adj, 0, everything))


def weak_doubling_constant(space: SemimetricSpace) -> WeakDoublingReport:
    """Worst-case minimum cover of a bounded set by sets of at most half its
    diameter.  Exact from the maximal cliques born at each distance when
    n <= WEAK_EXACT_CAP, with witness the first subset in integer order
    (label i is bit i) to reach the value; otherwise a bracket from 200
    random subsets of 2 to WEAK_EXACT_CAP points (seed 0).

    Graphs are keyed by level: level k is {d <= k-th smallest distance},
    edgeless at 0, each grown from the one below by the pairs at its
    distance.  Each level's clique list and each (set, level) cover is
    computed at most once per call; a cover whose greedy size is below the
    best value so far stays greedy, since no size below it changes the
    report."""
    n = space.n
    d = space.dist
    if n <= WEAK_EXACT_CAP:
        # A set A of diameter s lies in a maximal clique C of {d <= s}; a cover
        # of C by sets of diameter <= s/2 covers A, and is no larger than C's
        # own cover since diam(C) <= s.  C is maximal at its own diameter too,
        # where its half graph is smallest, so the constant is the largest
        # cover of a clique at the distance it is born: {u, v} with K maximal
        # in the common neighbourhood of a pair u, v at that distance.  The
        # traces on C of the maximal cliques of {d <= s/2} hold every maximal
        # clique of its subgraph, so one list per half graph serves every C.
        everything = (1 << n) - 1
        iu, ju = np.triu_indices(n, 1)
        pairs = d[iu, ju]
        vals = _distinct(pairs)
        order = np.argsort(pairs, kind="stable")
        us, vs = iu[order].tolist(), ju[order].tolist()
        ends = np.searchsorted(pairs[order], vals, side="right").tolist()
        half_levels = np.searchsorted(vals, _half_threshold(vals), side="right").tolist()
        adjs = [[0] * n]  # by level; a half level is below the level it serves
        halves = functools.cache(lambda k: _maximal_cliques(adjs[k], 0, everything))
        # below best a size can neither raise best, join good nor pass the
        # witness test, and best never falls: greedy sizes below it will do
        cover = functools.cache(lambda c, k: exact_min_cover(c, halves(k), best))
        best, good, start = 1, [], 0
        for end, half in zip(ends, half_levels):
            adj = adjs[-1].copy()  # the pairs at this level's distance join the last
            for u, v in zip(us[start:end], vs[start:end]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            adjs.append(adj)
            born = dict.fromkeys(
                c
                for u, v in zip(us[start:end], vs[start:end])
                for c in _maximal_cliques(adj, 1 << u | 1 << v, adj[u] & adj[v])
            )
            start = end
            for clique in born:
                if clique.bit_count() < best:
                    continue
                size = cover(clique, half)
                if size > best:
                    best, good = size, [(clique, half)]
                elif size == best:
                    good.append((clique, half))
        # witness, from the top bit: the subsets of a good clique that its half
        # list covers with best sets are closed upward and hold every set that
        # reaches best, so bit i stays clear if one still reaches it without i
        wit = 0
        for i in reversed(range(n)):
            low = wit | ((1 << i) - 1)
            if not any(c & wit == wit and cover(c & low, h) == best for c, h in good):
                wit |= 1 << i
        labels = tuple(space.labels[i] for i in range(n) if wit >> i & 1)
        return WeakDoublingReport(best, best, True, labels)

    # sampling bracket: exact covers of random subsets of at most
    # WEAK_EXACT_CAP points give a lower bound; n singletons cover any set,
    # so n is an upper bound
    rng = np.random.default_rng(0)
    lower, wit_bits = 1, [0]
    for _ in range(200):
        k = int(rng.integers(2, WEAK_EXACT_CAP + 1))
        bits = sorted(rng.choice(n, size=k, replace=False).tolist())
        size = _half_diameter_cover(d[np.ix_(bits, bits)])
        if size > lower:
            lower, wit_bits = size, bits
    labels = tuple(space.labels[i] for i in wit_bits)
    return WeakDoublingReport(lower, n, False, labels)


def _bound_check(
    base_space: SemimetricSpace, other_space: SemimetricSpace, exponent: int, exact_limit: int
) -> BoundCheck:
    """Doubling constants of both spaces, and whether the other space's
    constant is at most the base one to the given power.  The bound holds
    when the other upper bound is at most the base lower bound to that
    power, and fails only when the other lower bound exceeds the base upper
    bound to it; brackets that decide neither way are a ValueError."""
    base = doubling_constant(base_space, exact_limit)
    other = doubling_constant(other_space, exact_limit)
    try:
        bound = float(base.lower) ** exponent
    except OverflowError:
        raise ValueError(f"bound {base.lower}^{exponent} is too large for a float") from None
    holds = other.upper <= bound
    try:
        undecided = not holds and other.lower <= float(base.upper) ** exponent
    except OverflowError:  # the base upper bound's power exceeds every float
        undecided = True
    if undecided:
        raise ValueError(
            f"doubling brackets decide nothing: transformed [{other.lower}, {other.upper}] "
            f"against base [{base.lower}, {base.upper}] to the power {exponent}; "
            "a larger --exact-max solves more covers exactly")
    return BoundCheck(
        base=(base.lower, base.upper),
        transformed=(other.lower, other.upper),
        exponent=exponent,
        bound=bound,
        holds=holds,
        exact=base.exact and other.exact,
    )


def snowflake_doubling_check(
    space: SemimetricSpace, p: float, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> BoundCheck:
    """Check that powering distances by p in (0, 1] raises the doubling
    constant to at most its ceil(1/p)-th power."""
    if not 0 < p <= 1:
        raise ValueError(f"power must lie in (0, 1], got {p}")
    if 1.0 / p == math.inf:
        raise ValueError(f"exponent ceil(1/p) is too large for a float at p = {p}")
    return _bound_check(space, snowflake(space, p), math.ceil(1.0 / p), exact_limit)


def sandwich_doubling_check(
    space_d: SemimetricSpace,
    space_D: SemimetricSpace,
    alpha: float,
    exact_limit: int = DOUBLING_EXACT_LIMIT,
) -> BoundCheck:
    """Check that a distance sandwiched as D <= d <= alpha*D keeps the
    doubling property, with constant at most C0^N for the smallest N with
    alpha < 2^(N-1)."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if space_d.n != space_D.n:
        raise ValueError("spaces must share the same point set")
    d, D = space_d.dist, space_D.dist
    bad = sandwich_violation(D, d, alpha * D)
    if bad:
        pair, low = bad
        raise SandwichError(pair, f"{'D > d' if low else 'd > alpha*D'} at pair {pair}")
    # alpha = m * 2^e with 1/2 <= m < 1, so 2^(e-1) <= alpha < 2^e and N = e + 1
    return _bound_check(space_d, space_D, math.frexp(alpha)[1] + 1, exact_limit)
