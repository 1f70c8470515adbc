"""Independent brute-force oracles, deliberately naive.

These share no code with the library paths they check: plain triple loops,
min-plus matrix powering, literal chain enumeration and subset-combination
set cover.  The exceptions are ``loop_doubling_constant``,
``cell_doubling_constant`` and ``loop_weak_doubling_constant``: they check
which cells or subsets the constants examine or skip, so they reuse the
library's per-cell or per-subset cover.  ``loop_greedy_cover`` and
``loop_exact_min_cover`` are the library's earlier set cover, which
returned the chosen indices, kept to check that the size-only one answers
the same.  ``loop_example31`` and ``loop_doubling_not_weak`` are the
library's earlier pair-loop generators, kept to check that the array ones
build the same matrices.  ``broadcast_closure`` and
``slab_max_triple_ratio`` are the library's earlier closure and triple-scan
kernels.
"""

from itertools import combinations, permutations

import numpy as np

from bmetric import DoublingReport, WeakDoublingReport
from bmetric.doubling import (
    _critical_radii,
    _diam_cover_size,
    _threshold_adjacency,
    cover_requirement,
)


def loop_max_triple_ratio(dist):
    """Largest d[i,k] / (d[i,j] + d[j,k]) over ordered distinct triples by a
    plain triple loop, with the first triple attaining it, unclamped."""
    n = dist.shape[0]
    best, wit = -np.inf, None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                ratio = dist[i, k] / (dist[i, j] + dist[j, k])
                if ratio > best:
                    best, wit = ratio, (i, j, k)
    return best, wit


def slab_max_triple_ratio(dist):
    """Largest d[i,k] / (d[i,j] + d[j,k]) over ordered distinct triples, with
    the first triple attaining it, unclamped, from one n×n slab
    ratio[j, k] per first index i."""
    n = dist.shape[0]
    if n <= 2:
        return 0.0, None
    maxima = np.empty(n)
    where = np.empty(n, dtype=np.intp)
    for i in range(n):
        ratio = dist + dist[i, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dist[i], ratio, out=ratio)
        ratio[i, :] = -np.inf
        ratio[:, i] = -np.inf
        np.fill_diagonal(ratio, -np.inf)
        where[i] = np.argmax(ratio)
        maxima[i] = ratio.flat[where[i]]
    i = int(np.argmax(maxima))
    j, k = divmod(int(where[i]), n)
    return float(maxima[i]), (i, j, k)


def triple_loop_relaxation(dist):
    """Exhaustive scan of ordered distinct triples; returns (K, witness)."""
    best, wit = loop_max_triple_ratio(dist)
    if best <= 1.0:
        return 1.0, None
    return best, wit


def minplus_closure(dist):
    """Shortest-chain closure by repeated min-plus matrix multiplication."""
    D = np.array(dist, dtype=float)
    while True:
        step = np.min(D[:, :, None] + D[None, :, :], axis=1)
        nxt = np.minimum(D, step)
        if np.array_equal(nxt, D):
            return D
        D = nxt


def enumerate_chain_min(dist, i, j):
    """Cheapest simple chain from i to j by literal enumeration."""
    n = dist.shape[0]
    others = [v for v in range(n) if v not in (i, j)]
    best = dist[i, j]
    for size in range(1, len(others) + 1):
        for mids in permutations(others, size):
            chain = (i, *mids, j)
            cost = sum(dist[a, b] for a, b in zip(chain, chain[1:]))
            best = min(best, cost)
    return best


def polygonal_by_enumeration(dist):
    """Largest d(x,y) / cheapest-chain(x,y) over pairs (small n only)."""
    n = dist.shape[0]
    best = 1.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, dist[i, j] / enumerate_chain_min(dist, i, j))
    return best


def broadcast_closure(dist):
    """Shortest-chain closure by in-place Floyd–Warshall, with a broadcast
    outer sum for each pivot's candidate sums."""
    D = np.array(dist, dtype=float)
    for k in range(D.shape[0]):
        np.minimum(D, D[:, k, None] + D[k, None, :], out=D)
    return D


def loop_floyd_warshall(dist):
    """Shortest-chain closure via plain nested loops (no numpy)."""
    return np.array(_loop_floyd_warshall(dist)[0])


def loop_predecessors(dist):
    """Predecessor matrix of the loop closure: pred[i][j] is the vertex before
    j on the chain kept by strict improvement in ascending pivot order."""
    return np.array(_loop_floyd_warshall(dist)[1])


def _loop_floyd_warshall(dist):
    n = dist.shape[0]
    D = [[float(dist[i, j]) for j in range(n)] for i in range(n)]
    pred = [[i] * n for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = D[i][k] + D[k][j]
                if via < D[i][j]:
                    D[i][j] = via
                    pred[i][j] = pred[k][j]
    return D, pred


def broadcast_pairwise_norms(coords):
    """Euclidean distances between rows through the full n×n×N difference
    tensor."""
    return np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)


def loop_ball_mask(dist, center, radius):
    """Bitmask of the open ball B(center, radius), one bit per point by a
    plain loop over the center's row."""
    mask = 0
    for j in range(dist.shape[0]):
        if dist[center, j] < radius:
            mask |= 1 << j
    return mask


def loop_threshold_adjacency(dist, threshold):
    """Bitmask rows of the graph joining distinct points at distance at most
    threshold, by a plain pair loop."""
    n = dist.shape[0]
    adj = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and dist[i, j] <= threshold:
                mask |= 1 << j
        adj.append(mask)
    return adj


def loop_critical_radii(dist, center):
    """Midpoints between the sorted set of breakpoints {0} ∪ row ∪ 2·dist,
    plus one past the largest, built as a Python set."""
    breaks = {0.0}
    breaks.update(float(v) for v in dist[center])
    breaks.update(float(2.0 * v) for v in np.unique(dist))
    vals = sorted(breaks)
    radii = [(a + b) / 2.0 for a, b in zip(vals, vals[1:]) if b > a]
    radii.append(vals[-1] + 1.0)
    return radii


def loop_doubling_constant(space, exact_limit):
    """Doubling constant by a cover at every critical radius of every center:
    all midpoints of {0} ∪ row ∪ 2·dist, as ``loop_critical_radii`` lists
    them, with the library's ``cover_requirement`` per cell."""
    best_lower, best_upper = 1, 1
    wit_center, wit_radius = 0, 0.0
    cells = 0
    for x in range(space.n):
        for r in loop_critical_radii(space.dist, x):
            cells += 1
            res = cover_requirement(space, x, r, exact_limit)
            if res.upper > best_upper:
                best_upper = res.upper
                wit_center, wit_radius = x, r
            best_lower = max(best_lower, res.lower)
    return DoublingReport(best_lower, best_upper, best_lower == best_upper,
                          space.labels[wit_center], wit_radius, cells)


def cell_doubling_constant(space, exact_limit):
    """Doubling constant by a cover of every cell ``doubling_constant``
    examines, the first critical radius above each distinct center distance,
    with the library's ``cover_requirement`` per cell: no cell is skipped and
    every half-radius ball is packed again."""
    best_lower, best_upper = 1, 1
    wit_center, wit_radius = 0, 0.0
    cells = 0
    doubled = 2.0 * np.unique(space.dist)
    for x in range(space.n):
        row = space.dist[x]
        radii = _critical_radii(row, doubled)
        for r in radii[np.searchsorted(radii, np.unique(row), side="right")].tolist():
            cells += 1
            res = cover_requirement(space, x, r, exact_limit)
            if res.upper > best_upper:
                best_upper = res.upper
                wit_center, wit_radius = x, r
            if res.lower > best_lower:
                best_lower = res.lower
    return DoublingReport(best_lower, best_upper, best_lower == best_upper,
                          space.labels[wit_center], wit_radius, cells)


def loop_weak_doubling_constant(space):
    """Exact weak doubling constant by a cover of every subset of X in
    integer mask order, with the library's per-subset cover; the witness is
    the first subset to reach the largest cover."""
    n = space.n
    d = space.dist
    if n == 1:
        return WeakDoublingReport(1, 1, True, (space.labels[0],))
    adj_cache = {}

    def adj_for(diam):
        t = diam / 2.0
        a = adj_cache.get(t)
        if a is None:
            a = _threshold_adjacency(space, t)
            adj_cache[t] = a
        return a

    def subset_diam(bits):
        sub = d[np.ix_(bits, bits)]
        return float(sub.max())

    best, wit = 1, 1 << 0
    for amask in range(3, 1 << n):
        size = amask.bit_count()
        if size < 2 or size <= best:
            continue
        bits = [i for i in range(n) if amask >> i & 1]
        cover = _diam_cover_size(amask, adj_for(subset_diam(bits)))
        if cover > best:
            best, wit = cover, amask
    labels = tuple(space.labels[i] for i in range(n) if wit >> i & 1)
    return WeakDoublingReport(best, best, True, labels)


def brute_min_cover(universe, sets):
    """Smallest subfamily covering universe, by trying all combinations."""
    universe = frozenset(universe)
    sets = [frozenset(s) & universe for s in sets]
    for size in range(len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            if frozenset().union(*(sets[c] for c in combo)) == universe:
                return size
    raise ValueError("not coverable")


def loop_greedy_cover(universe: int, masks: list[int]) -> list[int]:
    """Indices of a cover chosen by repeatedly taking the set covering the
    most uncovered elements (ties to the lowest index); the earlier library
    greedy, kept as it was."""
    uncovered = universe
    chosen: list[int] = []
    while uncovered:
        best_i, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i < 0:
            raise ValueError("universe not coverable by the given sets")
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


def _prune_dominated(masks: list[int]) -> list[tuple[int, int]]:
    """Keep one representative per mask and drop masks contained in another.

    Returns (original_index, mask) pairs, lowest original index per kept mask.
    """
    seen: dict[int, int] = {}
    for i, m in enumerate(masks):
        if m and m not in seen:
            seen[m] = i
    items = sorted(seen.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    kept: list[tuple[int, int]] = []
    for m, i in items:
        if any(m | km == km for km, _ in kept):
            continue
        kept.append((m, i))
    return [(i, m) for m, i in kept]


def loop_exact_min_cover(universe: int, masks: list[int]) -> list[int]:
    """Indices of a minimum-cardinality cover of universe; deterministic.

    The earlier library branch-and-bound, kept as it was: it tracks the
    chosen indices and filters the covering sets at every node."""
    if universe == 0:
        return []
    cand = _prune_dominated([m & universe for m in masks])
    if not cand:
        raise ValueError("universe not coverable by the given sets")
    cmasks = [m for _, m in cand]
    corig = [i for i, _ in cand]

    # element -> candidate indices covering it
    elem_sets: dict[int, list[int]] = {}
    u = universe
    while u:
        bit = u & -u
        elem_sets[bit] = [ci for ci, m in enumerate(cmasks) if m & bit]
        if not elem_sets[bit]:
            raise ValueError("universe not coverable by the given sets")
        u &= ~bit

    incumbent = loop_greedy_cover(universe, cmasks)
    best: list[int] = list(incumbent)
    max_size = max(m.bit_count() for m in cmasks)

    def descend(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if uncovered == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        # admissible lower bound: remaining elements / largest set size
        need = -(-uncovered.bit_count() // max_size)
        if len(chosen) + need >= len(best):
            return
        # branch on the uncovered element with fewest covering sets
        u, pick, pick_opts = uncovered, 0, None
        while u:
            bit = u & -u
            opts = [ci for ci in elem_sets[bit] if cmasks[ci] & uncovered]
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = bit, opts
                if len(opts) <= 1:
                    break
            u &= ~bit
        if not pick_opts:
            return
        pick_opts.sort(key=lambda ci: (-(cmasks[ci] & uncovered).bit_count(), ci))
        for ci in pick_opts:
            chosen.append(ci)
            descend(uncovered & ~cmasks[ci], chosen)
            chosen.pop()

    descend(universe, [])
    return sorted(corig[ci] for ci in best)


def brute_weak_constant(dist):
    """Weak-doubling constant by enumerating every subset of every bounded
    set as a candidate covering set (tiny n only)."""
    n = dist.shape[0]
    best = 1
    for r in range(2, n + 1):
        for A in combinations(range(n), r):
            diam = max(dist[a, b] for a in A for b in A)
            half = diam / 2.0
            candidates = []
            for size in range(1, r + 1):
                for S in combinations(A, size):
                    if max((dist[a, b] for a in S for b in S), default=0.0) <= half:
                        candidates.append(frozenset(S))
            best = max(best, brute_min_cover(A, candidates))
    return best


def loop_validate(dist, tolerance=0.0):
    """(s1_witness, s2_witness) of the semimetric axioms by plain pair loops:
    diagonal first, then off-diagonal pairs in row-major order; a NaN or
    infinite distance fails S1."""
    n = dist.shape[0]
    s1 = next((
        (i, i) for i in range(n) if not abs(dist[i, i]) <= tolerance), None)
    if s1 is None:
        s1 = next(((i, j) for i in range(n) for j in range(n) if i != j and not (
            dist[i, j] > tolerance and np.isfinite(dist[i, j]))), None)
    with np.errstate(invalid="ignore"):  # inf - inf
        s2 = next(((i, j) for i in range(n) for j in range(i + 1, n)
                   if abs(dist[i, j] - dist[j, i]) > tolerance), None)
    return s1, s2


def loop_example31(n):
    """(labels, matrix) of the hub semimetric on {-n, ..., n} by a pair loop:
    the library's generator before it built the matrix from arrays."""
    points = list(range(-n, n + 1))
    m = len(points)
    d = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            x, y = points[a], points[b]
            if x == y:
                d[a, b] = 0.0
            elif x == 0 or y == 0:
                d[a, b] = 1.0
            else:
                d[a, b] = float(abs(x - y))
    return tuple(str(p) for p in points), d


def loop_doubling_not_weak(n, m):
    """(labels, matrix) of the m-point star joined with the naturals 1..n by
    pair loops: the library's generator before it built the matrix from
    arrays."""
    star_labels = [f"s{i}" for i in range(m)]
    nat_labels = [str(i) for i in range(1, n + 1)]
    total = m + n
    d = np.zeros((total, total))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            d[a, b] = 1.0 if (a == 0 or b == 0) else 2.0
    for i in range(1, n + 1):
        ai = m + i - 1
        for j in range(1, n + 1):
            if i != j:
                d[ai, m + j - 1] = max(1.0 / i, 1.0 / j)
        for b in range(m):
            d[ai, b] = d[b, ai] = 1.0 / i
    return tuple(star_labels + nat_labels), d
