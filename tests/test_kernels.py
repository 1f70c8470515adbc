"""Dense kernels: the closure, the min-plus square and triple scan, the
pairwise norms and the packed bitmasks of the doubling layer.

Each kernel is checked against a loop or broadcast oracle on the generator
families, including the tie-heavy grid and hub families, and against an
O(n²) memory ceiling.  A guard keeps the predecessor matrix off the chain
path: only `polygonal_constant` may run `floyd_warshall`.  Another keeps the
doubling covers off the list-valued `ball()`.
"""

import argparse
import functools
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmetric.constants
import bmetric.doubling
import bmetric.remetrize
import bmetric.shortest_path
from bmetric import (
    assouad_embed,
    bmetric_assouad_pipeline,
    chain_metric,
    cli,
    doubling_constant,
    epsilon_remetrize,
    euclidean_points,
    example31,
    polygonal_constant,
    random_bmetric,
    relaxation_constant,
    snowflake,
    snowflaked_grid,
    weak_doubling_constant,
)
from bmetric.doubling import (
    _cells,
    _distinct,
    _row_masks,
    _threshold_adjacency,
    ball,
    cover_requirement,
)
from bmetric.embed import _pairwise_norms
from bmetric.setcover import greedy_cover, greedy_cover_batch
from bmetric.shortest_path import (
    _pivot_sums,
    floyd_warshall,
    min_plus_square,
    shortest_path_closure,
)
from oracles import (
    bisection_remetrize,
    broadcast_closure,
    broadcast_pairwise_norms,
    brute_min_cover,
    loop_ball_mask,
    loop_cells,
    loop_floyd_warshall,
    loop_greedy_cover,
    loop_max_triple_ratio,
    loop_predecessors,
    loop_threshold_adjacency,
    slab_max_triple_ratio,
    triple_loop_relaxation,
)

FAMILIES = {
    "bmetric": lambda: random_bmetric(14, 2.0, seed=3),
    "euclidean": lambda: euclidean_points(14, 2, seed=3),
    "grid": lambda: snowflaked_grid(4, 1.0),
    "hub": lambda: example31(6),
}
TIE_FAMILIES = {
    "grid": lambda: snowflaked_grid(4, 1.0),
    "grid-squared": lambda: snowflaked_grid(4, 2.0),
    "hub": lambda: example31(6),
    "hub-squared": lambda: snowflake(example31(6), 2.0),
}
# point counts 9, 16, 81 and 7, 13, 65: with and without padding bits in the
# last packed byte, and wider than one 64-bit word
MASK_FAMILIES = {
    **{f"grid-{k * k}": (lambda k=k: snowflaked_grid(k, 1.0)) for k in (3, 4, 9)},
    **{f"hub-{2 * m + 1}": (lambda m=m: example31(m)) for m in (3, 6, 32)},
}
POWERS = (1.0, 0.5, 0.3)
# OpenBLAS takes other code paths at its block edges, so the sizes straddle them
BLAS_EDGE_SIZES = (1, 2, 3, 4, 5, 8, 9, 17, 33, 65, 129)
# smallest subnormal, subnormal, normal, and large enough that sums overflow
PIVOT_SCALES = (5e-324, 1e-310, 1e-8, 1.0, 1e300, 1.7e308)


def _space(family, p):
    s = FAMILIES[family]()
    return s if p == 1.0 else snowflake(s, p)


class TestClosure:
    @pytest.mark.parametrize("p", POWERS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_floyd_warshall_and_loop_oracle(self, family, p):
        d = _space(family, p).dist
        D = shortest_path_closure(d)
        D_fw, pred = floyd_warshall(d)
        assert D.tobytes() == D_fw.tobytes()
        assert D.tobytes() == loop_floyd_warshall(d).tobytes()
        assert np.array_equal(pred, loop_predecessors(d))

    @pytest.mark.parametrize("p", (1.0, 0.5))
    @pytest.mark.parametrize("n", BLAS_EDGE_SIZES)
    def test_blas_edge_sizes_match_broadcast_kernel(self, n, p):
        d = random_bmetric(n, 2.0, seed=n).dist ** p
        expected = broadcast_closure(d).tobytes()
        D_fw, pred = floyd_warshall(d)
        assert shortest_path_closure(d).tobytes() == expected
        assert D_fw.tobytes() == expected
        step = np.min(d[:, :, None] + d[None], axis=1)
        assert min_plus_square(d).tobytes() == step.tobytes()
        if n <= 65:
            assert np.array_equal(pred, loop_predecessors(d))

    @pytest.mark.parametrize("eps", (0.5, 1.0))
    def test_search_trace_matches_broadcast_kernel(self, eps):
        # bmetric-a of the chain-pipeline benchmark at seed 0; eps 0.5 is its
        # remetrize job and 1.0 the pipeline's
        seed = int(np.random.SeedSequence([0, 0]).generate_state(1)[0])
        s = random_bmetric(300, 2.0, seed)
        # the exponents both searches probe: bisection's 11, and the grid search's
        # 2 closures and the chain rejection between them
        probes = {p for rem in (epsilon_remetrize(s, eps), bisection_remetrize(s, eps))
                  for p, _hi in rem.search_trace}
        for p in sorted(probes):
            d = s.dist ** p
            expected = broadcast_closure(d).tobytes()
            assert shortest_path_closure(d).tobytes() == expected, p
            assert floyd_warshall(d)[0].tobytes() == expected, p

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=140),
        scale=st.sampled_from(PIVOT_SCALES),
        infs=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_pivot_sums_are_the_exact_broadcast_sums(self, n, scale, infs, seed):
        rng = np.random.default_rng(seed)
        M = scale * rng.uniform(0.0, 1.0, size=(n, n))
        M.flat[rng.integers(0, n * n, size=infs)] = np.inf
        M.flat[rng.integers(0, n * n, size=2)] = 5e-324
        with np.errstate(over="ignore"):
            for k, via in enumerate(_pivot_sums(M)):
                assert via.tobytes() == (M[:, k, None] + M[k, None, :]).tobytes(), k
                # the buffer is reused: the next product must not read it
                via[...] = np.nan
                via[::2] = np.inf

    @pytest.mark.parametrize("n", (4, 5, 8, 300))
    def test_inf_entry_raises_no_warning(self, n):
        d = np.array(random_bmetric(n, 2.0, seed=n).dist)
        d[0, 1:] = d[1:, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = shortest_path_closure(d)
            D_fw, _pred = floyd_warshall(d)
        assert D.tobytes() == D_fw.tobytes() == broadcast_closure(d).tobytes()
        assert np.isinf(D[0, 1:]).all()

    def test_input_is_not_modified(self):
        d = np.array(random_bmetric(9, 2.0, seed=1).dist)
        before = d.copy()
        shortest_path_closure(d)
        floyd_warshall(d)
        assert np.array_equal(d, before)

    @pytest.mark.parametrize("family", sorted(TIE_FAMILIES))
    def test_sandwich_lo_is_the_largest_closure_ratio(self, family):
        # many pairs tie the smallest distance; each keeps its direct edge
        s = TIE_FAMILIES[family]()
        mask = ~np.eye(s.n, dtype=bool)
        for rem in (chain_metric(s), epsilon_remetrize(s, 0.05)):
            powered = s.dist ** rem.p
            assert rem.to_dict()["sandwich_lo"] == (rem.D[mask] / powered[mask]).max()


def _slab_relaxation(dist):
    """(K, witness) of the earlier slab kernel, clamped to 1 as
    `relaxation_constant` clamps."""
    ratio, wit = slab_max_triple_ratio(dist)
    return (1.0, None) if ratio <= 1.0 else (ratio, wit)


def _scaled(dist, scale):
    """dist with its smallest off-diagonal entry moved to a scale below 1,
    or its largest to a scale above 1, so that neither underflows to 0 nor
    overflows to inf."""
    off = dist[~np.eye(dist.shape[0], dtype=bool)]
    return dist * (scale / np.max(off, initial=1.0) if scale > 1.0
                   else scale / np.min(off, initial=1.0))


@pytest.mark.filterwarnings("error")
class TestTripleScan:
    @pytest.mark.parametrize("family", sorted(TIE_FAMILIES))
    def test_value_and_witness_match_loop_oracle(self, family):
        s = TIE_FAMILIES[family]()
        assert slab_max_triple_ratio(s.dist) == loop_max_triple_ratio(s.dist)
        assert relaxation_constant(s) == triple_loop_relaxation(s.dist) == _slab_relaxation(s.dist)

    @pytest.mark.parametrize("n", BLAS_EDGE_SIZES)
    def test_blas_edge_sizes_match_slab_kernel(self, n):
        s = random_bmetric(n, 2.0, seed=n)
        for scale in PIVOT_SCALES:
            d = _scaled(s.dist, scale)
            assert np.isfinite(d).all() and (d + np.eye(n) > 0).all(), scale
            with np.errstate(over="ignore"):  # sums past the largest float
                expected = _slab_relaxation(d)
            assert relaxation_constant(s.with_dist(d)) == expected, scale


class TestPairwiseNorms:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (7, 3), (40, 9), (25, 60)])
    def test_random_coords_match_broadcast(self, shape):
        coords = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=shape)
        assert _pairwise_norms(coords).tobytes() == broadcast_pairwise_norms(coords).tobytes()

    def test_embedding_coords_match_broadcast(self):
        emb = assouad_embed(snowflaked_grid(5, 1.0), 0.5)
        res = bmetric_assouad_pipeline(random_bmetric(30, 2.0, seed=0), 0.5)
        for coords in (emb.coords, res.embedding.coords):
            assert _pairwise_norms(coords).tobytes() == broadcast_pairwise_norms(coords).tobytes()


def _peak_float64s(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()


class TestQuadraticMemory:
    N = 120

    # the min-plus square, reused for the ratios and the witness slab, and
    # its pivot-sum buffer
    def test_triple_scan(self):
        s = random_bmetric(self.N, 2.0, seed=0)
        assert _peak_float64s(relaxation_constant, s) <= 4 * self.N ** 2

    def test_pairwise_norms(self):
        coords = np.random.default_rng(0).normal(size=(self.N, self.N // 4))
        assert _peak_float64s(_pairwise_norms, coords) <= 8 * self.N ** 2

    # D and the pivot-sum buffer; floyd_warshall adds pred and its update mask
    @pytest.mark.parametrize("closure, ceiling", [(shortest_path_closure, 3), (floyd_warshall, 4)])
    def test_closure(self, closure, ceiling):
        d = random_bmetric(self.N, 2.0, seed=0).dist
        assert _peak_float64s(closure, d) <= ceiling * self.N ** 2

    # the cell list and one batch of traces, packed and as the comparison
    # they are packed from, under 128 n² bytes; a cache of the half-radius
    # balls of every level took 760-1,050 n²
    def test_doubling_constant(self):
        s = random_bmetric(self.N, 2.0, seed=0)
        assert _peak_float64s(doubling_constant, s) <= 16 * self.N ** 2

    # the report's D is encoded into the file chunk by chunk: 0.4 n²; one
    # whole-document string, with its list of pieces, took 14.3 n²
    def test_emit_remetrize_report(self, tmp_path):
        rem = epsilon_remetrize(random_bmetric(self.N, 2.0, seed=0), 0.5)
        args = argparse.Namespace(out=str(tmp_path / "report.json"), quiet=True)
        payload = {"manifest": {}, "report": rem.to_dict()}
        assert _peak_float64s(cli._emit, args, payload) <= 1 * self.N ** 2

    # the row strings and their join, 5.0 n²; the n² entries as one list
    # of Python floats took 17.1 n²
    def test_space_to_json(self):
        s = random_bmetric(self.N, 2.0, seed=0)
        assert _peak_float64s(s.to_json) <= 6 * self.N ** 2


class TestChainPathNeedsNoPredecessors:
    @pytest.fixture
    def no_floyd_warshall(self, monkeypatch):
        def trap(dist):
            raise AssertionError("floyd_warshall called")

        for module in (bmetric.shortest_path, bmetric.constants, bmetric.remetrize):
            monkeypatch.setattr(module, "floyd_warshall", trap, raising=False)

    def test_chain_path_runs_without_it(self, no_floyd_warshall):
        s = random_bmetric(20, 2.0, seed=5)
        chain_metric(s)
        epsilon_remetrize(s, 0.5)
        bmetric_assouad_pipeline(s, 0.5)

    def test_polygonal_constant_still_uses_it(self, no_floyd_warshall):
        with pytest.raises(AssertionError, match="floyd_warshall called"):
            polygonal_constant(random_bmetric(6, 2.0, seed=5))


def _mask_radii(dist):
    """Radius 0, every distance (open-ball boundary), the midpoints between
    them and one past the largest."""
    vals = np.unique(dist)
    return [0.0, *vals, *((vals[:-1] + vals[1:]) / 2), vals[-1] + 1.0]


class TestPackedMasks:
    @pytest.mark.parametrize("family", sorted(MASK_FAMILIES))
    def test_row_masks_match_loop_balls(self, family):
        d = MASK_FAMILIES[family]().dist
        for r in _mask_radii(d):
            expected = [loop_ball_mask(d, i, r) for i in range(d.shape[0])]
            assert _row_masks(d < r) == expected, r
            assert _row_masks(d[0, None] < r) == expected[:1], r

    @pytest.mark.parametrize("family", sorted(MASK_FAMILIES))
    def test_threshold_adjacency_matches_loop(self, family):
        d = MASK_FAMILIES[family]().dist
        for t in _mask_radii(d):
            assert _threshold_adjacency(d, t) == loop_threshold_adjacency(d, t), t

    @pytest.mark.parametrize("family", ["grid-9", "hub-7"])
    def test_cover_requirement_on_ball_boundaries(self, family):
        # radii equal to a distance or to twice one put points exactly on the
        # boundary of the target or of a half-radius ball
        s = MASK_FAMILIES[family]()
        vals = np.unique(s.dist)[1:]
        for r in (*vals, *(2 * vals)):
            for c in range(s.n):
                res = cover_requirement(s, c, r, exact_limit=s.n)
                target = ball(s, c, r)
                assert res.target_size == len(target)
                sets = [ball(s, z, r / 2) for z in range(s.n)]
                assert res.upper == brute_min_cover(target, sets), (c, r)

    @pytest.mark.parametrize("family", sorted({**FAMILIES, **TIE_FAMILIES}))
    def test_distinct_matches_unique(self, family):
        d = {**FAMILIES, **TIE_FAMILIES}[family]().dist
        for values in (d, 2.0 * d, d[np.triu_indices(len(d), 1)], d[:0]):
            assert _distinct(values).tobytes() == np.unique(values).tobytes()

    @pytest.mark.parametrize("family", sorted({**FAMILIES, **TIE_FAMILIES}))
    def test_critical_radii_match_set_formula(self, family):
        self._check_cells({**FAMILIES, **TIE_FAMILIES}[family]().dist)

    @pytest.mark.parametrize("scale", [5e-324, 1e300])
    @pytest.mark.parametrize("family", sorted(TIE_FAMILIES))
    def test_critical_radii_match_set_formula_at_extreme_scales(self, family, scale):
        # subnormal midpoints round to a breakpoint; near 1e300 they sum two large floats
        self._check_cells(TIE_FAMILIES[family]().dist * scale)

    @staticmethod
    def _check_cells(d):
        doubled = np.unique(2.0 * d)
        centers, vals, sizes, radii, levels = _cells(d, doubled)
        assert radii.dtype == np.float64
        expected = loop_cells(d)
        assert list(zip(centers.tolist(), radii.tolist())) == expected
        assert vals.tolist() == [d[x][d[x] < r].max() for x, r in expected]
        assert sizes.tolist() == [int((d[x] < r).sum()) for x, r in expected]
        assert levels.tolist() == [int((doubled < r).sum()) for _, r in expected]


# few bit positions, so sets repeat, tie on gains or are empty, on both
# sides of the first two 64-bit word boundaries
_MASK = st.frozensets(st.sampled_from([0, 1, 2, 63, 64, 65, 100, 127, 128, 150]), max_size=5).map(
    lambda bits: sum(1 << b for b in bits))


def _words(masks, words):
    return np.array([[m >> 64 * w & (1 << 64) - 1 for w in range(words)] for m in masks],
                    dtype=np.uint64)


class TestBatchedGreedy:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(_MASK, min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_matches_greedy_cover_per_cell(self, cells):
        # each cell's target is the union of its sets, as a ball's is the
        # union of the half-radius balls on it
        targets = [functools.reduce(operator.or_, masks) for masks in cells]
        cells = [masks for masks, t in zip(cells, targets) if t]
        targets = [t for t in targets if t]
        if not targets:
            return
        words = -(-max(t.bit_length() for t in targets) // 64)
        largest, picks = greedy_cover_batch(
            _words(targets, words), np.stack([_words(masks, words) for masks in cells]))
        for target, masks, big, k in zip(targets, cells, largest.tolist(), picks.tolist()):
            assert k == greedy_cover(target, masks) == len(loop_greedy_cover(target, masks))
            assert k == greedy_cover(target, [m for m in dict.fromkeys(masks) if m])
            assert big == max(m.bit_count() for m in masks)


class TestDoublingNeedsNoBallLists:
    def test_covers_run_without_ball(self, monkeypatch):
        def trap(*args, **kwargs):
            raise AssertionError("ball called")

        monkeypatch.setattr(bmetric.doubling, "ball", trap)
        s = random_bmetric(9, 2.0, seed=4)
        doubling_constant(s)
        cover_requirement(s, 0, s.diameter())
        assert weak_doubling_constant(s).exact
        monkeypatch.setattr(bmetric.doubling, "WEAK_EXACT_CAP", 4)
        assert not weak_doubling_constant(s).exact
