"""Set cover sizes against the earlier index-returning cover and brute force."""

import random

import pytest

from bmetric.setcover import exact_min_cover, greedy_cover
from oracles import brute_min_cover, loop_exact_min_cover, loop_greedy_cover


def _elements(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def random_instance(rng, max_elems=10, max_sets=10):
    """A coverable (universe, masks) pair whose sets include duplicates,
    empty sets, sets contained in others and bits outside the universe."""
    n = rng.randint(1, max_elems)
    universe = ((1 << n) - 1) & ~rng.getrandbits(n)
    universe |= 1 << rng.randrange(n)
    masks = []
    for _ in range(rng.randint(1, max_sets)):
        kind = rng.random()
        if kind < 0.15 and masks:
            masks.append(rng.choice(masks))
        elif kind < 0.3 and masks:
            masks.append(rng.choice(masks) & rng.getrandbits(n + 2))
        elif kind < 0.4:
            masks.append(0)
        else:
            masks.append(rng.getrandbits(n + 2))
    # every element of the universe in some set, at a random position
    for i in _elements(universe & ~_union(masks)):
        masks.insert(rng.randrange(len(masks) + 1), 1 << i | rng.getrandbits(n + 2))
    return universe, masks


def test_random_instances_match_the_oracles_and_brute_force():
    rng = random.Random(0)
    for _ in range(400):
        universe, masks = random_instance(rng)
        exact = exact_min_cover(universe, masks)
        assert exact == len(loop_exact_min_cover(universe, masks)), (universe, masks)
        assert exact == brute_min_cover(_elements(universe), map(_elements, masks))
        assert greedy_cover(universe, masks) == len(loop_greedy_cover(universe, masks))


def test_larger_instances_match_the_oracles():
    rng = random.Random(1)
    for _ in range(100):
        universe, masks = random_instance(rng, max_elems=20, max_sets=30)
        assert exact_min_cover(universe, masks) == len(loop_exact_min_cover(universe, masks))
        assert greedy_cover(universe, masks) == len(loop_greedy_cover(universe, masks))


def test_results_are_ints():
    assert type(exact_min_cover(0b111, [0b011, 0b110])) is int
    assert type(greedy_cover(0b111, [0b011, 0b110])) is int


def test_greedy_ties_go_to_the_lowest_index():
    # all three sets gain 2 at first; {0,3} then {1,2} covers in 2, while
    # starting from {0,2} would need 3
    masks = [0b1001, 0b0110, 0b0101]
    assert greedy_cover(0b1111, masks) == 2
    assert greedy_cover(0b1111, masks[::-1]) == 3
    assert exact_min_cover(0b1111, masks[::-1]) == 2


def test_empty_universe_needs_no_set():
    assert exact_min_cover(0, []) == 0
    assert greedy_cover(0, []) == 0
    assert exact_min_cover(0, [0b1]) == 0
    assert brute_min_cover(set(), [{0}]) == 0


@pytest.mark.parametrize("cover", [exact_min_cover, greedy_cover])
@pytest.mark.parametrize("universe, masks", [
    (0b1, []),
    (0b1, [0]),
    (0b111, [0b011, 0b1000]),
])
def test_uncoverable_universe_raises(cover, universe, masks):
    with pytest.raises(ValueError, match="not coverable"):
        cover(universe, masks)
