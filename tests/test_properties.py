"""Property-based checks of the library's structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmetric import (
    SemimetricSpace,
    chain_metric,
    doubling_constant,
    euclidean_points,
    polygonal_constant,
    random_bmetric,
    relaxation_constant,
    snowflake,
    validate,
    weak_doubling_constant,
)
from bmetric.doubling import cover_requirement
from bmetric.setcover import exact_min_cover, greedy_cover
from oracles import (
    cell_doubling_constant,
    loop_critical_radii,
    loop_exact_min_cover,
    loop_greedy_cover,
    loop_weak_doubling_constant,
    triple_loop_relaxation,
)

FLOATS = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


@st.composite
def semimetric_spaces(draw, max_n=7, values=FLOATS):
    n = draw(st.integers(min_value=2, max_value=max_n))
    entries = draw(
        st.lists(
            values,
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    d = np.zeros((n, n))
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = next(it)
    return SemimetricSpace(tuple(f"p{i}" for i in range(n)), d)


@given(semimetric_spaces())
@settings(max_examples=60, deadline=None)
def test_generated_spaces_validate(space):
    assert validate(space).ok


@given(semimetric_spaces(), st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_snowflake_preserves_axioms_and_order(space, p):
    out = snowflake(space, p)
    assert validate(out).ok
    flat, powered = space.offdiag(), out.offdiag()
    # x ** p is monotone but can collapse adjacent floats, so the
    # preserved order is non-strict
    for a in range(len(flat)):
        for b in range(len(flat)):
            if flat[a] < flat[b]:
                assert powered[a] <= powered[b]
            if powered[a] < powered[b]:
                assert flat[a] < flat[b]


@given(semimetric_spaces())
@settings(max_examples=40, deadline=None)
def test_relaxation_never_exceeds_polygonal(space):
    # the cheapest chain through the worst triple's midpoint already costs
    # at most the triple's denominator, so c >= K always; chains of three
    # or more edges can push c strictly above K
    K, _ = relaxation_constant(space)
    c, _ = polygonal_constant(space)
    assert K <= c + 1e-9


@given(st.one_of(semimetric_spaces(), semimetric_spaces(values=st.integers(1, 4).map(float))))
@settings(max_examples=80, deadline=None)
def test_relaxation_matches_oracle(space):
    # the second strategy draws from four distances, so many triples tie
    # the largest ratio and only the lexicographic order picks the witness
    assert relaxation_constant(space) == triple_loop_relaxation(space.dist)


@given(semimetric_spaces(), st.floats(min_value=0.2, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_snowflake_contracts_relaxation_constant(space, p):
    K, _ = relaxation_constant(space)
    K_p, _ = relaxation_constant(snowflake(space, p))
    assert K_p <= K ** p * (1 + 1e-9)


@given(semimetric_spaces(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30, deadline=None)
def test_constants_are_scale_free(space, lam):
    scaled = space.rescale(lam)
    assert np.isclose(relaxation_constant(scaled)[0], relaxation_constant(space)[0], rtol=1e-9)
    assert np.isclose(polygonal_constant(scaled)[0], polygonal_constant(space)[0], rtol=1e-9)


@given(semimetric_spaces())
@settings(max_examples=30, deadline=None)
def test_chain_metric_is_sandwiched(space):
    rem = chain_metric(space)
    mask = ~np.eye(space.n, dtype=bool)
    assert (rem.D[mask] <= space.dist[mask]).all()
    assert (space.dist[mask] <= rem.sandwich_hi * rem.D[mask] * (1 + 1e-12)).all()
    # every ratio d/D is at least 1 in floating point, as the closure only
    # takes minima starting from d, so neither constant needs clamping to 1
    c, _ = polygonal_constant(space)
    assert rem.sandwich_hi >= 1.0 and rem.sandwich_hi == c


@given(semimetric_spaces(max_n=6), st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_weak_doubling_subspace_heredity(space, drop_seed):
    if space.n < 3:
        return
    full = weak_doubling_constant(space).value
    drop = drop_seed % space.n
    keep = [i for i in range(space.n) if i != drop]
    sub = SemimetricSpace(space.labels[:drop] + space.labels[drop + 1:],
                          space.dist[np.ix_(keep, keep)])
    assert weak_doubling_constant(sub).value <= full


@given(st.one_of(semimetric_spaces(),
                 semimetric_spaces(values=st.sampled_from([1.0, 2.0, 3.0, 5.0]))))
@settings(max_examples=40, deadline=None)
def test_weak_doubling_matches_subset_loop(space):
    # the second strategy draws from four distances, so covers tie often and
    # the witness has rivals
    assert weak_doubling_constant(space).to_dict() == loop_weak_doubling_constant(space).to_dict()


@given(st.sampled_from(["bmetric", "euclidean"]), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_cover_cannot_rise_while_the_target_ball_stays(family, n, seed):
    # doubling_constant examines only the first critical radius of each
    # target interval; this is the lemma that makes that enough.
    space = random_bmetric(n, 2.0, seed) if family == "bmetric" else euclidean_points(n, 2, seed)
    for x in range(n):
        row = space.dist[x]
        breaks = np.unique(np.append(row, 0.0))
        prev = {}
        for r in loop_critical_radii(space.dist, x):
            interval = int(np.searchsorted(breaks, r))  # B(x, r) is fixed on each
            exact = cover_requirement(space, x, r, exact_limit=n)
            counting = cover_requirement(space, x, r, exact_limit=0)
            assert exact.exact
            if interval in prev:
                assert exact.upper <= prev[interval][0]
                assert counting.lower <= prev[interval][1]
            prev[interval] = exact.upper, counting.lower
    assert doubling_constant(space).critical_radii_examined <= n * n


@given(st.one_of(semimetric_spaces(max_n=10),
                 semimetric_spaces(max_n=10, values=st.sampled_from([1.0, 2.0, 3.0, 5.0]))),
       st.sampled_from([15, 5, 2, 0]))
@settings(max_examples=60, deadline=None)
def test_doubling_matches_per_cell_loop(space, exact_limit):
    # four distances make many cells share a level and tie the lower bound
    assert doubling_constant(space, exact_limit).to_dict() == \
        cell_doubling_constant(space, exact_limit).to_dict()


@given(st.integers(min_value=0, max_value=2**10 - 1),
       st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=14))
@settings(max_examples=200, deadline=None)
def test_set_cover_sizes_match_index_oracle(universe, masks):
    # bits 10 and 11 lie outside every universe
    covered = 0
    for m in masks:
        covered |= m
    if universe & ~covered:
        for cover in (exact_min_cover, greedy_cover, loop_exact_min_cover, loop_greedy_cover):
            with pytest.raises(ValueError):
                cover(universe, masks)
        return
    assert exact_min_cover(universe, masks) == len(loop_exact_min_cover(universe, masks))
    assert greedy_cover(universe, masks) == len(loop_greedy_cover(universe, masks))
