"""Dense kernels: the closure, the triple scan and the pairwise norms.

Each kernel is checked against a loop or broadcast oracle on the generator
families, including the tie-heavy grid and hub families, and against an
O(n²) memory ceiling.  A guard keeps the predecessor matrix off the chain
path: only `polygonal_constant` may run `floyd_warshall`.
"""

import tracemalloc

import numpy as np
import pytest

import bmetric.constants
import bmetric.remetrize
import bmetric.shortest_path
from bmetric import (
    EmbeddingConfig,
    assouad_embed,
    bmetric_assouad_pipeline,
    chain_metric,
    epsilon_remetrize,
    euclidean_points,
    example31,
    polygonal_constant,
    random_bmetric,
    relaxation_constant,
    snowflake,
    snowflaked_grid,
)
from bmetric.constants import max_triple_ratio
from bmetric.embed import _pairwise_norms
from bmetric.shortest_path import floyd_warshall, shortest_path_closure
from oracles import (
    broadcast_pairwise_norms,
    loop_floyd_warshall,
    loop_max_triple_ratio,
    loop_predecessors,
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
POWERS = (1.0, 0.5, 0.3)


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

    def test_input_is_not_modified(self):
        d = np.array(random_bmetric(9, 2.0, seed=1).dist)
        before = d.copy()
        shortest_path_closure(d)
        floyd_warshall(d)
        assert np.array_equal(d, before)


class TestTripleScan:
    @pytest.mark.parametrize("family", sorted(TIE_FAMILIES))
    def test_value_and_witness_match_loop_oracle(self, family):
        s = TIE_FAMILIES[family]()
        assert max_triple_ratio(s.dist) == loop_max_triple_ratio(s.dist)
        assert relaxation_constant(s) == triple_loop_relaxation(s.dist)


class TestPairwiseNorms:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (7, 3), (40, 9), (25, 60)])
    def test_random_coords_match_broadcast(self, shape):
        coords = np.random.default_rng(shape[0] * 100 + shape[1]).normal(size=shape)
        assert _pairwise_norms(coords).tobytes() == broadcast_pairwise_norms(coords).tobytes()

    def test_embedding_coords_match_broadcast(self):
        emb = assouad_embed(snowflaked_grid(5, 1.0), EmbeddingConfig(alpha=0.5))
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

    def test_triple_scan(self):
        d = random_bmetric(self.N, 2.0, seed=0).dist
        assert _peak_float64s(max_triple_ratio, d) <= 8 * self.N ** 2

    def test_pairwise_norms(self):
        coords = np.random.default_rng(0).normal(size=(self.N, self.N // 4))
        assert _peak_float64s(_pairwise_norms, coords) <= 8 * self.N ** 2


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
