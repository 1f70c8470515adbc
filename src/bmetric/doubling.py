"""Doubling and weak-doubling constants of finite semimetric spaces.

The doubling constant is the worst minimum number of half-radius open
balls needed to cover an open ball; the weak analog covers arbitrary
bounded sets by sets of at most half their diameter.  Both are computed
exactly at small scale (branch-and-bound set cover) and as brackets
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import first_violation
from .schema import Report
from .setcover import exact_min_cover, greedy_cover
from .spaces import SemimetricSpace, snowflake

DOUBLING_EXACT_LIMIT = 15
WEAK_EXACT_CAP = 20  # weak doubling is exact up to min(exact_limit, this) points


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


def _row_masks(rows: np.ndarray) -> list[int]:
    """Bitmask of each row of a 2-D boolean array: bit j is column j."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _cover(universe: int, cands: list[int], exact_limit: int) -> CoverResult:
    """Minimum cover of a nonempty universe by cands, sets already inside it:
    exact up to exact_limit points, otherwise a greedy upper bound and the
    counting lower bound size / largest set."""
    size = universe.bit_count()
    if size <= exact_limit:
        k = exact_min_cover(universe, cands)
        return CoverResult(k, k, True, size)
    upper = greedy_cover(universe, cands)
    biggest = max(m.bit_count() for m in cands)
    lower = -(-size // biggest)
    return CoverResult(lower, upper, False, size)


def cover_requirement(
    space: SemimetricSpace, center: int, radius: float, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> CoverResult:
    """Minimum number of open balls of radius/2 (centers anywhere) covering
    the open ball B(center, radius); exact when the target is small enough."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    universe = _row_masks(space.dist[center, None] < radius)[0]
    if universe == 0:
        return CoverResult(0, 0, True, 0)
    cands = [m & universe for m in _row_masks(space.dist < radius / 2.0)]
    return _cover(universe, cands, exact_limit)


def _critical_radii(row: np.ndarray, doubled: np.ndarray) -> np.ndarray:
    """Radii at which either the target ball (center distances row) or some
    half-radius ball (all distances doubled) can change contents: midpoints
    between consecutive breakpoints plus one value past the largest."""
    vals = np.unique(np.concatenate(([0.0], row, doubled)))
    return np.append((vals[:-1] + vals[1:]) / 2.0, vals[-1] + 1.0)


def doubling_constant(
    space: SemimetricSpace, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> DoublingReport:
    """Worst-case minimum half-radius ball cover over all centers and all
    critical radii; exact when every worst cell was solved exactly.

    While the target ball B(x, r) stays the same, the half-radius balls only
    grow with r, so neither the minimum cover nor the counting lower bound
    can rise.  Only the first critical radius above each distinct value of
    dist[x] is examined, at most n cells per center; below the smallest one,
    0 on the diagonal, the target is empty.

    The targets of one center are packed in one call.  The half-radius
    balls of a cell depend only on its level, the number of distinct
    distances below r/2, so they are packed once per level and reused.  A
    cell whose target size, or number of distinct nonempty candidate sets,
    is at most the best lower bound so far is not solved: each set of a
    cover, greedy's too, is a different candidate adding a point, so its
    exact cover, greedy cover and counting bound are all at most that count;
    it can raise neither bound nor move the witness (the first cell with a
    larger upper).
    """
    best_lower, best_upper = 1, 1
    wit_center, wit_radius = 0, 0.0
    cells = 0
    dists = np.unique(space.dist)
    doubled = 2.0 * dists
    halves: dict[int, list[int]] = {}  # level -> packed rows of dist < r/2
    for x in range(space.n):
        row = space.dist[x]
        radii = _critical_radii(row, doubled)
        radii = radii[np.searchsorted(radii, np.unique(row), side="right")]
        targets = _row_masks(row < radii[:, None])
        levels = np.searchsorted(dists, radii / 2.0).tolist()
        for r, universe, level in zip(radii.tolist(), targets, levels):
            cells += 1
            if universe.bit_count() <= best_lower:
                continue
            balls = halves.get(level)
            if balls is None:
                balls = halves[level] = _row_masks(space.dist < r / 2.0)
            # dropping repeats and empty sets keeps greedy's picks, since it
            # takes the lowest index among ties
            cands = [m for m in dict.fromkeys(m & universe for m in balls) if m]
            if len(cands) <= best_lower:
                continue
            res = _cover(universe, cands, exact_limit)
            if res.upper > best_upper:
                best_upper = res.upper
                wit_center, wit_radius = x, r
            if res.lower > best_lower:
                best_lower = res.lower
    return DoublingReport(
        lower=best_lower,
        upper=best_upper,
        exact=best_lower == best_upper,
        witness_center=space.labels[wit_center],
        witness_radius=wit_radius,
        critical_radii_examined=cells,
    )


def _maximal_cliques(adj: list[int], subset: int) -> list[int]:
    """Maximal cliques (as bitmasks) of the graph restricted to subset.

    Bron-Kerbosch with pivoting on bitmask adjacency.
    """
    out: list[int] = []
    radj = [adj[i] & subset for i in range(len(adj))]

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        px = p | x
        pivot = (px & -px).bit_length() - 1
        best_deg = -1
        scan = px
        while scan:
            bit = scan & -scan
            v = bit.bit_length() - 1
            deg = (p & radj[v]).bit_count()
            if deg > best_deg:
                best_deg, pivot = deg, v
            scan &= ~bit
        cand = p & ~radj[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            bk(r | bit, p & radj[v], x & radj[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    bk(0, subset, 0)
    return out


def _diam_cover_size(amask: int, adj: list[int]) -> int:
    """Minimum number of diameter-limited subsets covering the set amask.

    Covering sets may be any subsets of X, but intersecting with the target
    never raises a diameter, so cliques of the threshold graph inside the
    target suffice.
    """
    cliques = _maximal_cliques(adj, amask)
    return exact_min_cover(amask, cliques)


def _threshold_adjacency(space: SemimetricSpace, threshold: float) -> list[int]:
    return _row_masks((space.dist <= threshold) & ~np.eye(space.n, dtype=bool))


def weak_doubling_constant(
    space: SemimetricSpace, exact_limit: int = DOUBLING_EXACT_LIMIT
) -> WeakDoublingReport:
    """Worst-case minimum cover of a bounded set by sets of at most half
    its diameter.  Exact from the maximal cliques of each distance threshold
    when n <= min(exact_limit, WEAK_EXACT_CAP), with the first subset in
    integer order (label i is bit i) that reaches the value as witness;
    otherwise a bracket from 200 random subsets of at most that many points
    (seed 0)."""
    n = space.n
    d = space.dist
    limit = min(exact_limit, WEAK_EXACT_CAP)
    if n == 1:
        return WeakDoublingReport(1, 1, True, (space.labels[0],))
    adj_cache: dict[float, list[int]] = {}

    def adj(t: float) -> list[int]:
        a = adj_cache.get(t)
        if a is None:
            a = adj_cache[t] = _threshold_adjacency(space, t)
        return a

    def own_cover(bits: list[int]) -> int:
        # the cover of a subset by sets of at most half its own diameter
        half = float(d[np.ix_(bits, bits)].max()) / 2.0
        return _diam_cover_size(sum(1 << b for b in bits), adj(half))

    if n <= limit:
        # A set A of diameter s lies in a maximal clique C of {d <= s}; a cover
        # of C by sets of diameter <= s/2 covers A, and is no larger than C's
        # own cover since diam(C) <= s.  So the constant is the largest such
        # cover of a maximal clique over the distances s.
        full = (1 << n) - 1
        best, good = 1, []
        for s in np.unique(d[~np.eye(n, dtype=bool)]).tolist():
            for clique in _maximal_cliques(adj(s), full):
                if clique.bit_count() < best:
                    continue
                cover = _diam_cover_size(clique, adj(s / 2.0))
                if cover > best:
                    best, good = cover, [clique]
                elif cover == best:
                    good.append(clique)
        # witness: the first subset in integer order whose cover reaches best;
        # it lies in a clique of good, the one taken at its own diameter
        for wit in range(3, 1 << n):
            if wit.bit_count() < best or all(wit & ~g for g in good):
                continue
            if own_cover([i for i in range(n) if wit >> i & 1]) == best:
                break
        labels = tuple(space.labels[i] for i in range(n) if wit >> i & 1)
        return WeakDoublingReport(best, best, True, labels)

    # sampling bracket: exact covers of random subsets of at most limit points
    # give a lower bound; n singletons cover any set, so n is an upper bound
    if limit < 2:
        raise ValueError(f"sampled weak doubling needs exact_limit >= 2, got {limit}")
    rng = np.random.default_rng(0)
    lower, wit_bits = 1, [0]
    for _ in range(200):
        k = int(rng.integers(2, limit + 1))
        bits = sorted(rng.choice(n, size=k, replace=False).tolist())
        size = own_cover(bits)
        if size > lower:
            lower, wit_bits = size, bits
    labels = tuple(space.labels[i] for i in wit_bits)
    return WeakDoublingReport(lower, n, False, labels)


def _bound_check(
    base_space: SemimetricSpace, other_space: SemimetricSpace, exponent: int, exact_limit: int
) -> BoundCheck:
    """Doubling constants of both spaces, and whether the other space's upper
    bound is at most the base lower bound to the given power."""
    base = doubling_constant(base_space, exact_limit)
    other = doubling_constant(other_space, exact_limit)
    try:
        bound = float(base.lower) ** exponent
    except OverflowError:
        raise ValueError(f"bound {base.lower}^{exponent} is too large for a float") from None
    return BoundCheck(
        base=(base.lower, base.upper),
        transformed=(other.lower, other.upper),
        exponent=exponent,
        bound=bound,
        holds=other.upper <= bound,
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
    low, high = first_violation(D, d), first_violation(d, alpha * D)
    if low or high:
        pair = min(p for p in (low, high) if p)
        what = "D > d" if pair == low else "d > alpha*D"
        raise SandwichError(pair, f"{what} at pair {pair}")
    # alpha = m * 2^e with 1/2 <= m < 1, so 2^(e-1) <= alpha < 2^e and N = e + 1
    return _bound_check(space_d, space_D, math.frexp(alpha)[1] + 1, exact_limit)
