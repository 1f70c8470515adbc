import itertools
import sys

import numpy as np
import pytest

from bmetric import (
    SemimetricSpace,
    chain_metric,
    doubling_constant,
    doubling_not_weak,
    euclidean_points,
    example31,
    random_bmetric,
    sandwich_doubling_check,
    snowflake_doubling_check,
    snowflaked_grid,
    weak_doubling_constant,
)
from bmetric import doubling as doubling_mod
from bmetric import setcover as setcover_mod
from bmetric.doubling import (
    Bracket,
    CoverResult,
    DoublingReport,
    SandwichError,
    WeakDoublingReport,
    ball,
    cover_requirement,
)
from conftest import path_graph_metric
from oracles import (
    brute_min_cover,
    brute_weak_constant,
    cell_doubling_constant,
    loop_critical_radii,
    loop_doubling_constant,
    loop_weak_doubling_constant,
)


@pytest.mark.parametrize("make", [
    lambda lower, upper, exact: DoublingReport(lower, upper, exact, "a", 1.0, 3),
    lambda lower, upper, exact: WeakDoublingReport(lower, upper, exact, ("a", "b")),
    lambda lower, upper, exact: CoverResult(lower, upper, exact, 7),
], ids=["doubling", "weak", "cover"])
def test_value_is_the_upper_of_an_exact_bracket(make):
    assert make(4, 4, True).value == 4
    for lower, upper in ((3, 5), (4, 4)):  # a greedy cover can meet the counting bound
        with pytest.raises(ValueError, match="bracket"):
            make(lower, upper, False).value


class TestBall:
    def test_hub_ball_covers_everything(self):
        s = example31(5)
        hub = s.labels.index("0")
        assert len(ball(s, hub, 1.5)) == s.n

    def test_small_ball_is_singleton(self):
        s = example31(5)
        assert ball(s, s.labels.index("3"), 0.75) == [s.labels.index("3")]

    def test_zero_radius_open_ball_is_empty(self, triple_114):
        assert ball(triple_114, 0, 0.0) == []
        assert ball(triple_114, 0, 1.0) == [0]  # a point at distance exactly r is left out

    def test_negative_radius_rejected(self, triple_114):
        with pytest.raises(ValueError):
            ball(triple_114, 0, -1.0)


class TestDoublingConstant:
    def test_two_point_space(self):
        s = SemimetricSpace(("a", "b"), np.array([[0, 1], [1, 0]], dtype=float))
        rep = doubling_constant(s)
        assert rep.exact and rep.value == 2

    def test_example31_growth(self):
        values = []
        for n in (3, 5):
            rep = doubling_constant(example31(n), exact_limit=2 * n + 1)
            assert rep.exact
            values.append(rep.value)
            assert rep.value >= 2 * n + 1
        assert values[1] > values[0]

    def test_example31_witness_radius_between_one_and_two(self):
        rep = doubling_constant(example31(3), exact_limit=7)
        assert 1 < rep.witness_radius < 2
        assert rep.witness_center == "0"

    def test_uniform_space_needs_n_singletons(self, uniform6):
        # the critical radius lies in (1, 2): the ball is everything while
        # half-radius balls are singletons
        rep = doubling_constant(uniform6)
        assert rep.exact and rep.value == 6

    def test_exact_cover_matches_brute_force(self):
        s = euclidean_points(8, 2, seed=6)
        for center in range(s.n):
            for radius in (0.8, 1.5, 2.5):
                res = cover_requirement(s, center, radius, exact_limit=8)
                target = ball(s, center, radius)
                if not target:
                    continue
                sets = [ball(s, z, radius / 2) for z in range(s.n)]
                assert res.exact
                assert res.upper == brute_min_cover(target, sets)

    def test_critical_radius_completeness(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            s = random_bmetric(7, 2.0, seed=seed)
            rep = doubling_constant(s, exact_limit=7)
            top = rep.value
            for _ in range(100):
                r = float(rng.uniform(0.0, 2.2 * s.diameter()))
                if r <= 0:
                    continue
                res = cover_requirement(s, int(rng.integers(s.n)), r, exact_limit=7)
                assert res.upper <= top

    def test_bracket_mode_on_large_targets(self):
        s = snowflaked_grid(5, 1.0)
        rep = doubling_constant(s, exact_limit=4)
        assert rep.lower <= rep.upper
        exact = doubling_constant(s, exact_limit=25)
        assert exact.exact
        assert rep.lower <= exact.value <= rep.upper


def _triangle(a, b, c):
    """Three points with d(x, y) = a, d(x, z) = b and d(y, z) = c."""
    d = np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
    return SemimetricSpace(("x", "y", "z"), d)


class TestFloatEdges:
    def test_cell_between_adjacent_floats_is_examined(self):
        # breakpoints 1 and 2·d(y, z) = 1⁺ are adjacent floats, so their
        # midpoint rounds to 1; the cell (1, 1⁺] still needs all three points
        one_up = np.nextafter(1.0, 2.0)
        s = _triangle(1.0, 1.0, one_up / 2)
        assert cover_requirement(s, 0, one_up).value == 3
        rep = doubling_constant(s)
        assert (rep.value, rep.witness_center, rep.witness_radius) == (3, "x", one_up)

    def test_diameter_past_a_quarter_of_the_largest_float_is_an_error(self):
        # twice such a distance, a breakpoint, is past the largest float
        for t in (np.nextafter(sys.float_info.max / 4, np.inf), 6.02e307, 1.7e308):
            with pytest.raises(ValueError, match="diameter of at most"):
                doubling_constant(_triangle(t, t, t))

    def test_a_quarter_of_the_largest_float_is_in_range(self):
        t = sys.float_info.max / 4
        rep = doubling_constant(_triangle(t, t, t))
        assert rep.exact and rep.value == 3

    def test_subnormal_distances_give_the_scale_free_value(self):
        # at scale 5e-324, r / 2 rounds 2.5 units down to 2 and shrinks the
        # half-radius balls: the report was exactly 4, an unsound lower bound
        m = np.array([[0, 4, 2, 3, 1, 1], [4, 0, 6, 5, 7, 4], [2, 6, 0, 5, 4, 4],
                      [3, 5, 5, 0, 1, 3], [1, 7, 4, 1, 0, 6], [1, 4, 4, 3, 6, 0]], dtype=float)
        for scale in (1.0, 5e-324):
            rep = doubling_constant(SemimetricSpace(tuple("abcdef"), m * scale))
            assert (rep.lower, rep.upper, rep.exact, rep.witness_center) == (3, 3, True, "a")

    def test_half_radius_balls_of_the_smallest_float_are_not_empty(self):
        # 5e-324 / 2 rounds to 0, which left the target {x} uncoverable
        u = 5e-324
        assert cover_requirement(_triangle(u, u, u), 0, u).value == 1


class TestOneRadiusPerTargetInterval:
    """The first critical radius above each distinct center distance gives
    the same constant as every critical radius."""

    @pytest.mark.parametrize("exact_limit", [15, 4])
    @pytest.mark.parametrize("space", [
        snowflaked_grid(4, 0.5),
        example31(7),
        euclidean_points(16, 2, seed=5),
        euclidean_points(17, 2, seed=10),
        random_bmetric(16, 2.0, seed=7),
        random_bmetric(17, 2.0, seed=4),
    ], ids=["grid", "hub", "euclidean-16", "euclidean-17", "bmetric-16", "bmetric-17"])
    def test_matches_every_critical_radius(self, space, exact_limit):
        rep = doubling_constant(space, exact_limit)
        old = loop_doubling_constant(space, exact_limit)
        assert rep.lower == old.lower
        assert rep.lower <= rep.upper <= old.upper
        assert rep.exact >= old.exact
        cell = cover_requirement(
            space, space.labels.index(old.witness_center), old.witness_radius, exact_limit)
        if cell.exact:
            assert (rep.witness_center, rep.witness_radius) == (
                old.witness_center, old.witness_radius)
        assert rep.critical_radii_examined == sum(len(np.unique(row)) for row in space.dist)
        assert rep.critical_radii_examined <= space.n ** 2

    def test_bracket_witness_may_move(self):
        # The old witness cell (p2 @ 2.0758...) has a 16-point target, so its
        # upper is a greedy cover, 6; the first radius of its target interval
        # gets a greedy 5, and the first cell reaching 6 is now p6 @ 2.2308...
        s = euclidean_points(18, 2, seed=11)
        old = loop_doubling_constant(s, 15)
        rep = doubling_constant(s)
        assert (old.lower, old.upper, old.witness_center) == (6, 6, "p2")
        assert not cover_requirement(s, s.labels.index("p2"), old.witness_radius).exact
        assert (rep.lower, rep.upper, rep.witness_center) == (6, 6, "p6")
        assert rep.witness_radius in loop_critical_radii(s.dist, s.labels.index("p6"))
        assert rep.witness_radius == pytest.approx(2.230821506781237, rel=1e-12)

    @pytest.mark.parametrize("space,limit,old_bracket,new_bracket,value", [
        (euclidean_points(17, 2, seed=10), 15, (5, 6), (5, 5), 5),
        (random_bmetric(17, 2.0, seed=4), 6, (7, 9), (7, 8), 8),
    ], ids=["euclidean-17", "bmetric-17"])
    def test_upper_can_only_tighten(self, space, limit, old_bracket, new_bracket, value):
        # A greedy upper at an interval's first radius bounds the whole
        # interval, and can be lower than a greedy cover later in it.
        old = loop_doubling_constant(space, limit)
        rep = doubling_constant(space, limit)
        assert (old.lower, old.upper) == old_bracket
        assert (rep.lower, rep.upper) == new_bracket
        assert doubling_constant(space, exact_limit=space.n).value == value


def _count_calls(monkeypatch, name):
    """Counter of the calls doubling_constant makes to doubling.<name>."""
    calls = {"n": 0}
    fn = getattr(doubling_mod, name)

    def counted(*args):
        calls["n"] += 1
        return fn(*args)

    monkeypatch.setattr(doubling_mod, name, counted)
    return calls


def _tie_heavy(n):
    """n points at integer distances 1 to 4."""
    upper = np.triu(np.random.default_rng(n).integers(1, 5, (n, n)), 1).astype(float)
    return SemimetricSpace(tuple(f"p{i}" for i in range(n)), upper + upper.T)


class TestPackOnceAndSkip:
    """Every cell bounded by one batched greedy, and no cover solved for a
    cell that cannot raise the bracket, give the per-cell loop's report."""

    @pytest.mark.parametrize("exact_limit", [None, 15, 6, 4, 0])  # None: every cell small
    @pytest.mark.parametrize("space", [
        random_bmetric(18, 2.0, seed=2),
        euclidean_points(18, 2, seed=3),
        snowflaked_grid(4, 0.5),
        example31(7),
        # distances 1 to 4 tie often, so a batch holds many small cells where
        # greedy and counting disagree, each settled against the counting
        # bounds and the sizes solved before it
        *(_tie_heavy(n) for n in range(5, 15)),
    ], ids=["bmetric", "euclidean", "grid", "hub", *(f"ties-{n}" for n in range(5, 15))])
    def test_matches_per_cell_loop(self, space, exact_limit):
        exact_limit = space.n if exact_limit is None else exact_limit
        assert doubling_constant(space, exact_limit).to_dict() == \
            cell_doubling_constant(space, exact_limit).to_dict()

    # point counts on both sides of one and two 64-bit words
    @pytest.mark.parametrize("exact_limit", [15, 0])
    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("family", ["bmetric", "euclidean"])
    def test_matches_per_cell_loop_at_word_boundaries(self, family, n, exact_limit):
        space = random_bmetric(n, 2.0, seed=n) if family == "bmetric" else \
            euclidean_points(n, 2, seed=n)
        assert doubling_constant(space, exact_limit).to_dict() == \
            cell_doubling_constant(space, exact_limit).to_dict()

    @pytest.mark.parametrize("space, most", [
        (random_bmetric(30, 2.0, seed=0), 10), (snowflaked_grid(6, 0.5), 0), (example31(12), 0),
    ], ids=["bmetric", "grid", "hub"])
    def test_never_runs_greedy_and_solves_few_cells(self, space, most, monkeypatch):
        # the batched greedy stands in for every per-cell greedy_cover, and it
        # settles most small cells: the per-cell loop solves 450 exact covers
        # on the b-metric, and packing balls once per level still solved 185
        greedies = _count_calls(monkeypatch, "greedy_cover")
        covers = _count_calls(monkeypatch, "exact_min_cover")
        doubling_constant(space)
        assert greedies["n"] == 0
        assert covers["n"] <= most

    def test_cells_tying_the_lower_bound_are_not_solved(self, uniform6, monkeypatch):
        # singleton targets and every full ball after the first tie the best
        # lower bound (1, then 6), and the one cell left, the first full
        # ball, has counting bound 6 / 1 equal to its greedy 6: no search
        covers = _count_calls(monkeypatch, "exact_min_cover")
        rep = doubling_constant(uniform6)
        assert (rep.value, rep.critical_radii_examined) == (6, 12)
        assert covers["n"] == 0


class TestWeakDoubling:
    def test_two_point_space(self):
        s = SemimetricSpace(("a", "b"), np.array([[0, 5], [5, 0]], dtype=float))
        rep = weak_doubling_constant(s)
        assert rep.exact and rep.value == 2

    def test_example31_bound_three(self):
        rep = weak_doubling_constant(example31(4))
        assert rep.exact
        assert rep.value <= 3

    def test_uniform_space(self, uniform6):
        rep = weak_doubling_constant(uniform6)
        assert rep.exact and rep.value == 6

    def test_matches_brute_force_enumeration(self):
        for seed in (0, 1):
            s = random_bmetric(5, 2.5, seed=seed)
            rep = weak_doubling_constant(s)
            assert rep.exact
            assert rep.value == brute_weak_constant(s.dist)

    def test_witness_reproduces_value(self):
        s = random_bmetric(6, 2.0, seed=9)
        rep = weak_doubling_constant(s)
        idx = [s.labels.index(lab) for lab in rep.witness_set]
        sub = SemimetricSpace(rep.witness_set, s.dist[np.ix_(idx, idx)])
        again = weak_doubling_constant(sub)
        assert again.value == rep.value

    def test_subspace_heredity(self):
        s = random_bmetric(7, 2.4, seed=14)
        full = weak_doubling_constant(s).value
        for drop in range(s.n):
            keep = [i for i in range(s.n) if i != drop]
            sub = SemimetricSpace(s.labels[:drop] + s.labels[drop + 1:],
                                  s.dist[np.ix_(keep, keep)])
            assert weak_doubling_constant(sub).value <= full

    def test_metric_consistency_with_doubling(self):
        # for metric inputs both notions stay within a square of each other
        for s in (path_graph_metric(6), euclidean_points(7, 2, seed=3)):
            weak = weak_doubling_constant(s).value
            doub = doubling_constant(s).value
            assert weak <= doub ** 2

    def test_sampling_mode_brackets_exact_value(self, monkeypatch):
        for s, cap in (
            (euclidean_points(9, 2, seed=10), 6),
            (random_bmetric(10, 2.0, seed=0), 3),  # sampled subsets of 3 points: lower 3, exact 5
        ):
            exact = weak_doubling_constant(s).value
            with monkeypatch.context() as m:
                m.setattr(doubling_mod, "WEAK_EXACT_CAP", cap)
                bracket = weak_doubling_constant(s)
            assert not bracket.exact
            assert bracket.lower <= exact <= bracket.upper

    def test_sampled_subsets_keep_points_past_bit_63(self, monkeypatch):
        # the witness holds points 70, 72 and 77; values of the earlier
        # bracket, which packed each sampled subset with np.packbits
        monkeypatch.setattr(doubling_mod, "WEAK_EXACT_CAP", 8)
        rep = weak_doubling_constant(euclidean_points(80, 2, seed=3))
        assert (rep.lower, rep.upper, rep.exact) == (4, 80, False)
        assert rep.witness_set == ("p6", "p14", "p23", "p44", "p47", "p70", "p72", "p77")

    @pytest.mark.parametrize("n", [5, 8, 10, 11])
    @pytest.mark.parametrize("make", [
        lambda n, seed: random_bmetric(n, 2.0, seed=seed),
        lambda n, seed: random_bmetric(n, 3.0, seed=seed),
        lambda n, seed: euclidean_points(n, 2, seed=seed),
    ], ids=["bmetric-2", "bmetric-3", "euclidean"])
    def test_matches_subset_loop(self, make, n):
        # value and witness: the first subset in integer order to reach it
        for seed in range(4):
            s = make(n, seed)
            assert weak_doubling_constant(s).to_dict() == loop_weak_doubling_constant(s).to_dict()

    @pytest.mark.parametrize("space", [
        snowflaked_grid(3, 0.5), doubling_not_weak(3, 4), doubling_not_weak(4, 3), example31(5),
    ], ids=["grid", "not-weak-3-4", "not-weak-4-3", "example31"])
    def test_structured_families_match_subset_loop(self, space):
        assert weak_doubling_constant(space).to_dict() == \
            loop_weak_doubling_constant(space).to_dict()

    def test_clique_no_larger_than_best_can_hold_the_witness(self):
        # {d, e, f} reaches 3 at distance 1; the clique {a, b, c} of distance
        # 10 has only 3 points but reaches 3 too, and comes first in bit order
        d = np.full((6, 6), 20.0)
        d[:3, :3] = 10.0
        d[3:, 3:] = 1.0
        np.fill_diagonal(d, 0.0)
        rep = weak_doubling_constant(SemimetricSpace(tuple("abcdef"), d))
        assert rep.value == 3 and rep.witness_set == ("a", "b", "c")

    def test_exact_covers_are_few(self, monkeypatch):
        # one cover per clique at the distance it is born: the subset loop
        # makes 14,992 covers on this input, a cover of every maximal clique
        # at every threshold 513
        covers = _count_calls(monkeypatch, "exact_min_cover")
        assert weak_doubling_constant(euclidean_points(14, 2, seed=1)).exact
        assert covers["n"] <= 200

    def test_no_exact_cover_is_repeated(self, monkeypatch):
        # the value pass and the witness descent share one memo per call
        seen = []
        cover = doubling_mod.exact_min_cover
        monkeypatch.setattr(doubling_mod, "exact_min_cover",
                            lambda u, masks, *rest: seen.append((u, tuple(masks))) or
                            cover(u, masks, *rest))
        for s in (euclidean_points(14, 2, seed=1), doubling_not_weak(7, 7), example31(6),
                  random_bmetric(12, 2.0, seed=3)):
            seen.clear()
            assert weak_doubling_constant(s).exact
            assert len(seen) == len(set(seen)), s.n

    def test_graphs_grow_and_covers_below_the_value_start_no_search(self, monkeypatch):
        # each threshold graph is the one below it plus the pairs at its
        # distance, so none is built from the matrix; a clique whose greedy
        # cover is below the value so far starts no branch-and-bound search
        # (a descend call at depth 0): 514 did when every cover was exact
        built = _count_calls(monkeypatch, "_threshold_adjacency")
        searches = 0

        def hook(frame, event, arg):
            nonlocal searches
            code = frame.f_code
            if event == "call" and code.co_name == "descend" and \
                    code.co_filename == setcover_mod.__file__ and frame.f_locals["depth"] == 0:
                searches += 1

        spaces = [random_bmetric(14, 2.0, seed=0), random_bmetric(14, 2.0, seed=1),
                  euclidean_points(14, 2, seed=0), euclidean_points(14, 2, seed=1),
                  doubling_not_weak(7, 7), example31(6)]
        sys.setprofile(hook)
        try:
            for s in spaces:
                assert weak_doubling_constant(s).exact
        finally:
            sys.setprofile(None)
        assert built["n"] == 0
        assert searches <= 300

    def test_clique_lists_are_few_and_small(self, monkeypatch):
        # the exact path lists the cliques of each half graph once (32 whole
        # graph lists on the first input) and those born at each distance by
        # one seeded run per pair (91 here, with no ties); only sampled sets
        # list their own, never on more than WEAK_EXACT_CAP points
        whole, seeded = [], []
        cliques = doubling_mod._maximal_cliques

        def counted(adj, r, p):
            (seeded if r else whole).append(len(adj))
            return cliques(adj, r, p)

        monkeypatch.setattr(doubling_mod, "_maximal_cliques", counted)
        assert weak_doubling_constant(euclidean_points(14, 2, seed=1)).exact
        assert len(whole) <= 40 and len(seeded) <= 91 and set(whole + seeded) == {14}
        whole.clear()
        seeded.clear()
        monkeypatch.setattr(doubling_mod, "WEAK_EXACT_CAP", 8)
        assert not weak_doubling_constant(euclidean_points(80, 2, seed=3)).exact
        assert len(whole) == 200 and max(whole) <= 8 and not seeded

    def test_witness_is_decided_bit_by_bit(self, monkeypatch):
        # the walk over every mask made 75,004 exact covers here, a cover of
        # every maximal clique at every threshold 8,347
        covers = _count_calls(monkeypatch, "exact_min_cover")
        rep = weak_doubling_constant(random_bmetric(20, 2.0, seed=3))
        assert (rep.lower, rep.upper, rep.exact) == (6, 6, True)
        assert rep.witness_set == ("p1", "p4", "p5", "p12", "p13", "p18")
        assert covers["n"] <= 2_000

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_cliques_are_the_maximal_cliques_through_an_edge(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        upper = np.triu(rng.random((n, n)) < 0.6, 1)
        adj = doubling_mod._row_masks(upper | upper.T)
        whole = doubling_mod._maximal_cliques(adj, 0, (1 << n) - 1)
        for u, v in zip(*np.nonzero(upper)):
            edge = 1 << int(u) | 1 << int(v)
            seeded = doubling_mod._maximal_cliques(adj, edge, adj[u] & adj[v])
            assert sorted(seeded) == sorted(c for c in whole if c & edge == edge)

    def test_half_threshold_does_not_round_up(self):
        # at scale 5e-324 the distances are multiples of the smallest
        # subnormal, so s / 2 rounds to even and gave {d <= s/2} pairs longer
        # than half the diameter: the report was an unsound 3
        d = np.array([[0, 4, 2, 3, 1, 1], [4, 0, 6, 5, 7, 4], [2, 6, 0, 5, 4, 4],
                      [3, 5, 5, 0, 1, 3], [1, 7, 4, 1, 0, 6], [1, 4, 4, 3, 6, 0]], dtype=float)
        labels = tuple("abcdef")
        normal = weak_doubling_constant(SemimetricSpace(labels, d))
        tiny = weak_doubling_constant(SemimetricSpace(labels, d * 5e-324))
        assert normal.value == 4 and tiny == normal
        # the per-set cover of the sampled bracket: 10 of these 57 sets
        # (the whole set too) were covered by fewer sets at the small scale
        for k in range(2, 7):
            for bits in itertools.combinations(range(6), k):
                sub = d[np.ix_(bits, bits)]
                assert doubling_mod._half_diameter_cover(sub * 5e-324) == \
                    doubling_mod._half_diameter_cover(sub), bits

    @pytest.mark.parametrize("cap", [1, 2, 20])
    def test_one_point_is_exact_at_every_cap(self, monkeypatch, cap):
        monkeypatch.setattr(doubling_mod, "WEAK_EXACT_CAP", cap)
        rep = weak_doubling_constant(SemimetricSpace(("a",), np.zeros((1, 1))))
        assert (rep.lower, rep.upper, rep.exact, rep.witness_set) == (1, 1, True, ("a",))

    def test_point_count_alone_decides_exactness(self, monkeypatch):
        # 21 points: one above the cap, so sampled; with the cap at 21 the
        # same space is exactly 3
        sampled = weak_doubling_constant(example31(10))
        assert (sampled.upper, sampled.exact) == (21, False)
        monkeypatch.setattr(doubling_mod, "WEAK_EXACT_CAP", 21)
        exact = weak_doubling_constant(example31(10))
        assert (exact.value, exact.exact) == (3, True)
        assert sampled.lower <= exact.value

    def test_doubling_not_weak_family_grows(self):
        small = weak_doubling_constant(doubling_not_weak(2, 3)).value
        large = weak_doubling_constant(doubling_not_weak(2, 7)).value
        assert large > small


class TestSnowflakeDoublingCheck:
    def test_identity_power(self, uniform6):
        check = snowflake_doubling_check(uniform6, 1.0)
        assert check.holds and check.exponent == 1
        assert check.base[1] == check.transformed[1]

    def test_grid_square_root(self):
        check = snowflake_doubling_check(snowflaked_grid(4, 1.0), 0.5, exact_limit=16)
        assert check.exact and check.holds
        assert check.exponent == 2
        assert check.bound == check.base[0] ** 2

    @pytest.mark.parametrize("p", [0.7, 0.5, 0.34])
    def test_random_spaces(self, p):
        for seed in range(4):
            s = euclidean_points(7, 2, seed=seed)
            assert snowflake_doubling_check(s, p).holds

    def test_rejects_bad_power(self, uniform6):
        with pytest.raises(ValueError):
            snowflake_doubling_check(uniform6, 1.5)

    @pytest.mark.parametrize("p,message", [
        (1e-4, r"bound 6\^10000 is too large"),  # the base constant is exactly 6
        (1e-320, r"exponent ceil\(1/p\) is too large for a float at p = 1e-320"),
    ])
    def test_overflowing_bound_is_a_value_error(self, uniform6, p, message):
        with pytest.raises(ValueError, match=message):
            snowflake_doubling_check(uniform6, p)


class TestBoundOutcomes:
    """A check holds when the transformed upper bound is at most the base
    lower bound to the power, is violated only when the transformed lower
    bound exceeds the base upper bound to it, and is a ValueError when the
    brackets decide neither."""

    def test_undecided_brackets_are_a_value_error(self):
        space = random_bmetric(40, 2.0, seed=3)
        with pytest.raises(ValueError, match=r"transformed \[10, 11\] against base \[10, 11\] "
                                             r"to the power 1; a larger --exact-max"):
            snowflake_doubling_check(space, 1.0)
        check = snowflake_doubling_check(space, 1.0, exact_limit=40)
        assert check.exact and check.holds and check.base == check.transformed == (10, 10)

    @staticmethod
    def _check(monkeypatch, base, transformed, exponent):
        brackets = iter([Bracket(*base, False), Bracket(*transformed, False)])
        monkeypatch.setattr(doubling_mod, "doubling_constant", lambda space, limit: next(brackets))
        one = SemimetricSpace(("a",), np.zeros((1, 1)))
        return doubling_mod._bound_check(one, one, exponent, 15)

    @pytest.mark.parametrize("base,transformed,exponent,holds", [
        ((3, 4), (2, 9), 2, True),  # 9 <= 3^2
        ((3, 4), (17, 20), 2, False),  # 17 > 4^2
        ((3, 4), (16, 20), 2, None),  # 20 > 3^2, but 16 <= 4^2
        ((1, 2), (5, 5), 2000, None),  # 2^2000 overflows: no violation
    ])
    def test_outcome(self, monkeypatch, base, transformed, exponent, holds):
        if holds is None:
            with pytest.raises(ValueError, match="decide nothing"):
                self._check(monkeypatch, base, transformed, exponent)
        else:
            check = self._check(monkeypatch, base, transformed, exponent)
            assert check.holds is holds and check.bound == float(base[0]) ** exponent


class TestSandwichDoublingCheck:
    def test_same_space(self):
        s = euclidean_points(6, 2, seed=1)
        check = sandwich_doubling_check(s, s, alpha=1.0)
        assert check.holds and check.exponent == 2

    def test_uniform_rescale(self):
        base = snowflaked_grid(3, 1.0)
        stretched = base.rescale(1.5)
        check = sandwich_doubling_check(stretched, base, alpha=1.5, exact_limit=9)
        assert check.exact and check.holds
        assert check.exponent == 2

    def test_chain_metric_pair(self):
        s = random_bmetric(10, 2.0, seed=42)
        rem = chain_metric(s)
        alpha = max(1.0, rem.sandwich_hi)
        check = sandwich_doubling_check(s, s.with_dist(rem.D), alpha)
        assert check.holds

    def test_violated_sandwich_raises_with_witness(self):
        s = euclidean_points(5, 2, seed=2)
        inflated = s.rescale(3.0)
        with pytest.raises(SandwichError) as err:
            sandwich_doubling_check(s, inflated, alpha=2.0)
        assert err.value.pair == (0, 1)

    def test_violated_high_side_raises_with_witness(self):
        s = euclidean_points(5, 2, seed=2)
        D = s.dist.copy()
        D[1, 3] = D[3, 1] = s.dist[1, 3] / 3  # d = 3 D > 2 D at one pair only
        with pytest.raises(SandwichError, match=r"^d > alpha\*D at pair \(1, 3\)$") as err:
            sandwich_doubling_check(s, s.with_dist(D), alpha=2.0)
        assert err.value.pair == (1, 3)

    @pytest.mark.parametrize("alpha", [
        1.0, 1.5, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 4.0, 7.5, 1e10, 2.0 ** 1022,
    ])
    def test_exponent_is_the_smallest_n_with_alpha_below_two_to_n_minus_one(self, alpha):
        N = 1
        while 2.0 ** (N - 1) <= alpha:
            N += 1
        one = SemimetricSpace(("a",), np.zeros((1, 1)))  # constant 1: no bound overflows
        assert sandwich_doubling_check(one, one, float(alpha)).exponent == N

    def test_exponent_past_the_largest_power_of_two(self):
        # 2^1024 overflows a float; the exponent does not, and the bound only
        # does when the base constant exceeds 1
        one = SemimetricSpace(("a",), np.zeros((1, 1)))
        check = sandwich_doubling_check(one, one, 2.0 ** 1023)
        assert (check.exponent, check.bound, check.holds) == (1025, 1.0, True)
        s = euclidean_points(4, 2, seed=0)
        with pytest.raises(ValueError, match=r"\^1025 is too large for a float"):
            sandwich_doubling_check(s, s, 2.0 ** 1023)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_nonfinite_alpha(self, alpha):
        s = euclidean_points(4, 2, seed=0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            sandwich_doubling_check(s, s, alpha)
