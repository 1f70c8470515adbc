"""Minimum set cover sizes on bitmask-encoded instances (bit i is element i).

Both functions answer the size of a cover, not its sets.  The exact size
comes from branch-and-bound with the greedy size as incumbent: each node
branches on the uncovered element with the fewest covering sets, lowest bit
first among ties, in an order fixed before the search.  Intended for the
small covers that appear in doubling-constant computations (target sets of
a couple dozen elements).
"""

from __future__ import annotations


def greedy_cover(universe: int, masks: list[int]) -> int:
    """Size of the cover chosen by repeatedly taking the set covering the
    most uncovered elements (ties to the lowest index)."""
    uncovered, picks = universe, 0
    while uncovered:
        best, best_gain = 0, 0
        for m in masks:
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = m, gain
        if not best_gain:
            raise ValueError("universe not coverable by the given sets")
        uncovered &= ~best
        picks += 1
    return picks


def exact_min_cover(universe: int, masks: list[int]) -> int:
    """Size of a minimum-cardinality cover of universe."""
    if universe == 0:
        return 0
    # distinct nonempty sets inside universe, largest first (ties in
    # first-seen order), without those contained in a set kept before them
    cands: list[int] = []
    traces = (m for m in dict.fromkeys(m & universe for m in masks) if m)
    for m in sorted(traces, key=lambda m: -m.bit_count()):
        if all(m | k != k for k in cands):
            cands.append(m)

    # element -> candidates covering it, in candidate order
    covering: dict[int, list[int]] = {}
    u = universe
    while u:
        bit = u & -u
        covering[bit] = [m for m in cands if m & bit]
        if not covering[bit]:
            raise ValueError("universe not coverable by the given sets")
        u &= ~bit
    # branching order: fewest covering sets first, then the lowest bit
    order = sorted(covering, key=lambda bit: len(covering[bit]))

    best = greedy_cover(universe, cands)
    max_size = max(m.bit_count() for m in cands)

    def descend(uncovered: int, depth: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, depth)
            return
        # admissible lower bound: remaining elements / largest set size
        need = -(-uncovered.bit_count() // max_size)
        if depth + need >= best:
            return
        bit = next(b for b in order if b & uncovered)
        for m in sorted(covering[bit], key=lambda m: -(m & uncovered).bit_count()):
            descend(uncovered & ~m, depth + 1)

    descend(universe, 0)
    return best
