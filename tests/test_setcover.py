"""Set cover sizes against the earlier index-returning cover and brute force,
the search nodes (``descend`` calls) the exact cover's bounds leave, and the
sizes it may answer below a floor."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmetric.doubling as doubling_mod
import bmetric.setcover as setcover_mod
from bmetric import random_bmetric
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


def _search_nodes(fn, *args):
    """fn(*args) and the number of calls it made to setcover's descend,
    counted by a profile hook so the library needs no counter."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "descend" and code.co_filename == setcover_mod.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _check_oracles(universe, masks, exact):
    assert exact == len(loop_exact_min_cover(universe, masks))
    assert exact == brute_min_cover(_elements(universe), map(_elements, masks))


@pytest.mark.parametrize("universe, masks, size", [
    (0b111, [0b011, 0b111, 0b100], 1),
    # two disjoint triples and sets inside them: any greedy takes the triples
    (0b111111, [0b000011, 0b000111, 0b111000, 0b100000, 0b000111], 2),
    # three pairs partition the universe; bits 6 and 7 lie outside it
    (0b111111, [0b11000011, 0b001100, 0b110000, 0b01000110], 3),
])
def test_greedy_meeting_the_counting_bound_starts_no_search(universe, masks, size):
    exact, nodes = _search_nodes(exact_min_cover, universe, masks)
    assert (exact, nodes) == (size, 0)
    _check_oracles(universe, masks, exact)


def test_only_the_packing_bound_closes_the_root():
    # greedy needs 3 and the counting bound says 2 (sets of 3, 6 elements),
    # but elements 0, 1 and 2 share no set, so each needs its own
    universe, masks = 0b111111, [0b101001, 0b110010, 0b101100]
    assert greedy_cover(universe, masks) == 3
    exact, nodes = _search_nodes(exact_min_cover, universe, masks)
    assert (exact, nodes) == (3, 1)
    _check_oracles(universe, masks, exact)


def test_dominated_sets_leave_one_set_to_branch_on():
    # greedy takes {0,1,2,3} and then needs {0,2,4} and {1,3,5}, which alone
    # cover; {0,4} (also traced from {0,4,7}) and {5} are the only other sets
    # covering 4 and 5, inside {0,2,4} and {1,3,5}, so each branch has one set
    x, left, right = 0b001111, 0b010101, 0b101010
    masks = [x, 0b010001, left, 0b10010001, x, right, 0b100000]
    assert greedy_cover(0b111111, masks) == 3
    exact, nodes = _search_nodes(exact_min_cover, 0b111111, masks)
    assert (exact, nodes) == (2, 3)
    _check_oracles(0b111111, masks, exact)


def test_weak_doubling_search_stays_small(monkeypatch):
    # exact weak doubling of a 24-point random b-metric (cap raised for the
    # test) made 174,149 search nodes with the counting bound alone
    monkeypatch.setattr(doubling_mod, "WEAK_EXACT_CAP", 24)
    rep, nodes = _search_nodes(doubling_mod.weak_doubling_constant,
                               random_bmetric(24, 2.0, seed=0))
    assert (rep.lower, rep.upper, rep.exact) == (7, 7, True)
    assert nodes <= 60_000


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_floor_answers_the_minimum_or_a_size_below_the_floor(rng):
    universe, masks = random_instance(rng)
    minimum = brute_min_cover(_elements(universe), map(_elements, masks))
    assert exact_min_cover(universe, masks, 0) == exact_min_cover(universe, masks) == \
        len(loop_exact_min_cover(universe, masks)) == minimum
    # the incumbent: greedy on the distinct traces, largest first
    traces = sorted({m & universe for m in masks}, key=int.bit_count, reverse=True)
    incumbent = greedy_cover(universe, traces)
    for floor in range(universe.bit_count() + 2):
        size, nodes = _search_nodes(exact_min_cover, universe, masks, floor)
        assert size == minimum or minimum <= size < floor, floor
        if incumbent < floor:
            assert (size, nodes) == (incumbent, 0), floor
        else:
            assert size == minimum, floor


@pytest.mark.parametrize("floor, size, nodes", [(0, 2, 3), (3, 2, 3), (4, 3, 0), (7, 3, 0)])
def test_a_floor_above_the_greedy_size_leaves_it_unsearched(floor, size, nodes):
    # greedy takes {0,1,2,3} and then needs two more sets, where {0,2,4} and
    # {1,3,5} alone cover: a floor of at most greedy's 3 still finds the 2
    masks = [0b001111, 0b010101, 0b101010]
    assert greedy_cover(0b111111, masks) == 3
    assert _search_nodes(exact_min_cover, 0b111111, masks, floor) == (size, nodes)
