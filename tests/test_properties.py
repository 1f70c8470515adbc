"""Property-based checks of the library's structural invariants."""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bmetric import (
    SemimetricSpace,
    assouad_embed,
    bmetric_assouad_pipeline,
    chain_metric,
    constants_report,
    doubling_constant,
    doubling_not_weak,
    epsilon_remetrize,
    euclidean_points,
    example31,
    polygonal_constant,
    random_bmetric,
    relaxation_constant,
    snowflake,
    snowflaked_grid,
    validate,
    weak_doubling_constant,
)
from bmetric.certify import ratio_range, within
from bmetric.doubling import cover_requirement
from bmetric.embed import DegenerateEmbeddingError
from bmetric.remetrize import P_RESOLUTION
from bmetric.setcover import exact_min_cover, greedy_cover
from bmetric.shortest_path import shortest_path_closure
from oracles import (
    bisection_remetrize,
    cell_doubling_constant,
    loop_critical_radii,
    loop_exact_min_cover,
    loop_greedy_cover,
    loop_weak_doubling_constant,
    triple_loop_relaxation,
)

FLOATS = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
# a hundred decades each way: chains add distances of very different sizes
WIDE_FLOATS = st.floats(min_value=1e-100, max_value=1e100)


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


@given(st.one_of(semimetric_spaces(max_n=10, values=st.integers(1, 4).map(float)),
                 semimetric_spaces(max_n=10, values=WIDE_FLOATS)),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_closure_is_a_metric_up_to_rounding(space, p):
    # the pipeline embeds the closure of d^p without re-checking that it is a
    # metric; four integer distances tie many chains, wide ones round them
    D = shortest_path_closure(space.dist ** p)
    K, _ = relaxation_constant(space.with_dist(D))
    assert within(K, 1.0)


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


@given(semimetric_spaces(max_n=8, values=st.integers(1, 4).map(float)))
@settings(max_examples=60, deadline=None)
def test_weak_doubling_with_tied_new_edges_matches_subset_loop(space):
    # four integer distances give each threshold several new edges, whose
    # born cliques overlap and are listed once
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


@given(semimetric_spaces(max_n=6, values=st.integers(1, 7).map(float)))
@settings(max_examples=60, deadline=None)
def test_doubling_is_scale_free_down_to_the_smallest_float(space):
    # integer multiples of 5e-324 are exact subnormals, where r / 2 rounds
    def fields(rep):
        return rep.lower, rep.upper, rep.exact, rep.witness_center, rep.critical_radii_examined

    assert fields(doubling_constant(space.rescale(5e-324))) == fields(doubling_constant(space))


ADJACENT_FLOATS = st.sampled_from(
    [0.5, float(np.nextafter(0.5, 1.0)), 1.0, float(np.nextafter(1.0, 2.0))]
)


@given(semimetric_spaces(max_n=6, values=ADJACENT_FLOATS))
@settings(max_examples=60, deadline=None)
def test_doubling_bounds_the_cover_at_every_breakpoint(space):
    # a breakpoint radius b opens the cell just below it; where the midpoint
    # of b and the breakpoint before it rounds down, that cell still counts
    upper = doubling_constant(space).upper
    breaks = np.unique(np.concatenate((space.dist.ravel(), 2.0 * space.dist.ravel())))
    for x in range(space.n):
        for r in breaks.tolist():
            assert cover_requirement(space, x, r).lower <= upper, (x, r)


# Scaling by a power of two is exact while every value stays a normal float:
# distances in [2^-10, 2^10] scaled by 2^±1000 keep above 2^-1022 and below
# 2^1024, with room for the halved radii and the sums of short chains.
DYADIC_RANGE = st.floats(min_value=2.0 ** -10, max_value=2.0 ** 10)
BINARY_SCALES = st.sampled_from([-1000, -500, 500, 1000])


@given(semimetric_spaces(max_n=8, values=DYADIC_RANGE), BINARY_SCALES)
@settings(max_examples=40, deadline=None)
def test_constants_and_doubling_reports_are_scale_equivariant(space, k):
    scaled = space.rescale(2.0 ** k)
    assert constants_report(scaled).to_dict() == constants_report(space).to_dict()
    assert weak_doubling_constant(scaled).to_dict() == weak_doubling_constant(space).to_dict()
    report, base = doubling_constant(scaled).to_dict(), doubling_constant(space).to_dict()
    assert report.pop("witness_radius") == base.pop("witness_radius") * 2.0 ** k
    assert report == base


@given(semimetric_spaces(max_n=8, values=DYADIC_RANGE), BINARY_SCALES)
@settings(max_examples=40, deadline=None)
def test_remetrize_exponent_is_scale_free(space, k):
    assert epsilon_remetrize(space.rescale(2.0 ** k), 0.5).p == epsilon_remetrize(space, 0.5).p


# every generator family at 2 to 12 points; Euclidean distances are powered
# so that p = 1 seldom suffices
FAMILY_SPACES = st.one_of(
    st.builds(example31, st.integers(1, 5)),
    st.integers(1, 10).flatmap(lambda n: st.builds(doubling_not_weak, st.just(n),
                                                  st.integers(2, 12 - n))),
    st.builds(random_bmetric, st.integers(2, 12), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
              st.integers(0, 2**32 - 1)),
    st.builds(snowflaked_grid, st.integers(2, 3), st.sampled_from([0.5, 1.0, 2.0, 3.0])),
    st.builds(snowflake, st.builds(euclidean_points, st.integers(2, 12), st.integers(1, 3),
                                   st.integers(0, 2**32 - 1)),
              st.sampled_from([1.0, 2.0, 3.0])),
)


@given(st.one_of(FAMILY_SPACES, semimetric_spaces(max_n=12),
                 semimetric_spaces(max_n=12, values=WIDE_FLOATS)),
       st.sampled_from([0.05, 0.1, 0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None)
def test_exponent_search_matches_bisection(space, eps):
    rem, old = epsilon_remetrize(space, eps), bisection_remetrize(space, eps)
    assert rem.p == old.p and rem.sandwich_hi == old.sandwich_hi
    assert rem.D.tobytes() == old.D.tobytes()
    assert len(rem.search_trace) <= len(old.search_trace) + 3
    rejected = [p for p, hi in rem.search_trace if hi > 1.0 + eps]
    assert rem.p == 1.0 or any(rem.p < p <= rem.p + P_RESOLUTION for p in rejected)


@given(st.one_of(FAMILY_SPACES, semimetric_spaces(max_n=12),
                 semimetric_spaces(max_n=12, values=WIDE_FLOATS)),
       st.sampled_from([0.05, 0.1, 0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chain_rejections_are_closure_rejections(closure_calls, space, eps):
    # a trace entry is a closure's own hi, or a chain's lower bound on it that
    # rejects p; either way the closure at p, computed here, rejects as it does
    closure_calls.clear()
    rem = epsilon_remetrize(space, eps)
    closures = len(closure_calls)
    for p, c in rem.search_trace:
        powered = space.dist ** p
        hi = ratio_range(powered, shortest_path_closure(powered))[1]
        assert within(c, hi) and (c > 1.0 + eps) == (hi > 1.0 + eps), p
    assert closures <= len(bisection_remetrize(space, eps).search_trace) + 3


@given(semimetric_spaces(max_n=8, values=DYADIC_RANGE),
       st.sampled_from([-1000, -900, -500, 500, 900, 1000]))
@settings(max_examples=40, deadline=None)
def test_embedding_and_pipeline_are_certified_at_every_scale(space, k):
    # N and C' are not scale-free: the scale radii are powers of 1/3.  Tied
    # distances can make two points collide at any scale, unscaled too (as
    # [[0, 2, 2], [2, 0, 3], [2, 3, 0]] does); that falsifies no bound, so
    # only the float range is on trial here.
    scaled = space.rescale(2.0 ** k)
    with contextlib.suppress(DegenerateEmbeddingError):
        result = bmetric_assouad_pipeline(scaled, 0.75)
        assert within(result.C_prime, result.stage_bound) and result.embedding.dimension >= 1
    with contextlib.suppress(DegenerateEmbeddingError):
        metric = scaled.with_dist(shortest_path_closure(scaled.dist))
        assert assouad_embed(metric, 0.75).dimension >= 1
