"""Minimum set cover sizes on bitmask-encoded instances (bit i is element i).

The functions answer the size of a cover, not its sets.  The exact size
comes from branch-and-bound that bounds before it builds: the greedy size on
the distinct sets is the incumbent and ceil(|universe| / largest set) the
counting bound, and when the two meet the greedy size is the answer.  A
caller that needs only sizes of at least some floor gets the greedy size when
it is below that floor: the minimum is no larger, so it is below too.  Only
otherwise are the sets contained in another dropped and the branching order
fixed: fewest covering sets first, the lowest bit among ties.  Each node
prunes on the counting bound of what is left, then on a packing bound:
uncovered elements taken in the branching order, each removing the union of
the sets that cover it, share no set, so each needs its own (a feasible
solution of the dual of the set-cover LP; Vazirani, *Approximation
Algorithms*, 2001, ch. 13).  The first of them is the element the node
branches on, over the sets covering it, largest first.  Any admissible bound
returns the same minimum.  Intended for the small covers that appear in
doubling-constant computations (target sets of a couple dozen elements).
``greedy_cover_batch`` runs the greedy on many instances at once, packed in
uint64 words, with ``np.bitwise_count`` for the gains.
"""

from __future__ import annotations

import numpy as np


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


def exact_min_cover(universe: int, masks: list[int], floor: int = 0) -> int:
    """Size of a minimum-cardinality cover of universe, or, when the greedy
    size is below floor, that greedy size: a cover size in [minimum, floor),
    for a caller to whom any size below floor is the same answer."""
    if universe == 0:
        return 0
    # distinct sets inside universe, largest first
    traces = sorted({m & universe for m in masks}, key=int.bit_count, reverse=True)
    best = greedy_cover(universe, traces)
    max_size = traces[0].bit_count()
    if best < floor or -(-universe.bit_count() // max_size) >= best:
        return best

    # without those contained in a set kept before them (the empty set too)
    cands: list[int] = []
    for m in traces:
        for k in cands:
            if m | k == k:
                break
        else:
            cands.append(m)
    # per element: the union of the sets covering it, and those sets, in the
    # branching order (fewest covering sets first, then the lowest bit)
    order: list[tuple[int, int, list[int]]] = []
    u = universe
    while u:
        bit = u & -u
        covering = [m for m in cands if m & bit]
        reach = 0
        for m in covering:
            reach |= m
        order.append((bit, reach, covering))
        u ^= bit
    order.sort(key=lambda entry: len(entry[2]))

    def descend(uncovered: int, depth: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, depth)
            return
        # counting bound: remaining elements / largest set size
        if depth + -(-uncovered.bit_count() // max_size) >= best:
            return
        # packing bound: a pick in no set with an earlier pick needs its own
        need, rest, branch = depth, uncovered, None
        for bit, reach, covering in order:
            if bit & rest:
                need += 1
                if need >= best:
                    return
                if branch is None:
                    branch = covering
                rest &= ~reach
        for m in branch:
            descend(uncovered & ~m, depth + 1)

    descend(universe, 0)
    return best


def _popcounts(counts: np.ndarray) -> np.ndarray:
    """Set bits of each row of words from the bit counts of its words, added
    word by word: a numpy reduction over so short an axis costs more."""
    if counts.shape[-1] == 1:
        return counts[..., 0]
    total = counts[..., 0].astype(np.uint16)
    for w in range(1, counts.shape[-1]):
        total += counts[..., w]
    return total


def greedy_cover_batch(
    universes: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Largest set and greedy_cover's size for many instances at once, on
    uint64 words: universes (instances, words), and masks (instances, sets,
    words), each set inside its universe and the universe their union.
    Each step takes the first set of largest gain; a repeated or empty set
    never wins that, so dropping them changes no pick.  An instance leaves
    once covered."""
    count = len(universes)
    work = np.empty_like(masks)
    counts = np.empty(masks.shape, dtype=np.uint8)
    gains = _popcounts(np.bitwise_count(masks, out=counts))
    largest = gains.max(1).astype(np.int64)
    picks = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    uncovered = universes.copy()
    while True:
        uncovered &= ~masks[live, gains.argmax(1)]
        picks[live] += 1
        left = uncovered.any(1)
        if not left.all():
            live, uncovered = live[left], uncovered[left]
        k = len(live)
        if not k:
            return largest, picks
        sets = masks if k == count else np.take(masks, live, 0, work[:k], "clip")
        np.bitwise_and(sets, uncovered[:, None], out=work[:k])
        gains = _popcounts(np.bitwise_count(work[:k], out=counts[:k]))
