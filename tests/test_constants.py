import numpy as np
import pytest

from bmetric import (
    SemimetricSpace,
    constants_report,
    polygonal_constant,
    relaxation_constant,
    random_bmetric,
    snowflake,
)
from conftest import path_graph_metric
from oracles import minplus_closure, polygonal_by_enumeration, triple_loop_relaxation


class TestRelaxationConstant:
    def test_single_ratio_triple(self, triple_114):
        K, witness = relaxation_constant(triple_114)
        assert K == 2.0
        assert witness == (0, 1, 2)

    def test_metric_space_gives_one(self):
        K, witness = relaxation_constant(path_graph_metric(6))
        assert K == 1.0
        assert witness is None

    def test_two_point_space(self):
        s = SemimetricSpace(("a", "b"), np.array([[0, 3], [3, 0]], dtype=float))
        assert relaxation_constant(s) == (1.0, None)

    def test_matches_triple_loop_oracle(self):
        s = random_bmetric(8, 2.5, seed=13)
        K, wit = relaxation_constant(s)
        K_oracle, wit_oracle = triple_loop_relaxation(s.dist)
        assert K == K_oracle
        assert wit == wit_oracle

    def test_witness_reproduces_constant(self):
        s = random_bmetric(9, 3.0, seed=21)
        K, (i, j, k) = relaxation_constant(s)
        assert s.dist[i, k] / (s.dist[i, j] + s.dist[j, k]) == K


class TestPolygonalConstant:
    def test_single_chain_triple(self, triple_114):
        c, chain = polygonal_constant(triple_114)
        assert c == 2.0
        assert chain == [0, 1, 2]

    def test_metric_space_gives_one(self):
        c, chain = polygonal_constant(path_graph_metric(5))
        assert c == 1.0
        assert len(chain) == 2

    def test_matches_chain_enumeration_oracle(self):
        s = random_bmetric(7, 2.2, seed=5)
        c, _ = polygonal_constant(s)
        assert c == pytest.approx(polygonal_by_enumeration(s.dist), rel=1e-12)

    def test_matches_minplus_oracle(self):
        for seed in range(5):
            s = random_bmetric(10, 2.0, seed=seed)
            c, _ = polygonal_constant(s)
            D = minplus_closure(s.dist)
            mask = ~np.eye(s.n, dtype=bool)
            assert c == max(1.0, float((s.dist[mask] / D[mask]).max()))

    def test_witness_chain_realizes_constant(self):
        s = random_bmetric(8, 2.5, seed=30)
        c, chain = polygonal_constant(s)
        cost = sum(s.dist[a, b] for a, b in zip(chain, chain[1:]))
        assert s.dist[chain[0], chain[-1]] / cost == pytest.approx(c, rel=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_relaxation_below_polygonal(self, seed):
        s = random_bmetric(9, 2.8, seed=seed)
        K, _ = relaxation_constant(s)
        c, _ = polygonal_constant(s)
        assert K <= c + 1e-12

    def test_relabeling_invariance(self):
        s = random_bmetric(8, 2.0, seed=17)
        perm = np.random.default_rng(0).permutation(8)
        shuffled = SemimetricSpace(
            tuple(s.labels[i] for i in perm), s.dist[np.ix_(perm, perm)]
        )
        assert relaxation_constant(shuffled)[0] == relaxation_constant(s)[0]
        assert polygonal_constant(shuffled)[0] == pytest.approx(
            polygonal_constant(s)[0], rel=1e-12
        )

    def test_scale_invariance(self):
        s = random_bmetric(8, 2.4, seed=2)
        scaled = s.rescale(17.3)
        assert relaxation_constant(scaled)[0] == pytest.approx(
            relaxation_constant(s)[0], rel=1e-12
        )
        assert polygonal_constant(scaled)[0] == pytest.approx(
            polygonal_constant(s)[0], rel=1e-12
        )

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_snowflake_contracts_relaxation(self, p):
        for seed in range(6):
            s = random_bmetric(8, 3.0, seed=seed)
            K, _ = relaxation_constant(s)
            K_p, _ = relaxation_constant(snowflake(s, p))
            assert K_p <= K ** p + 1e-9


class TestReport:
    def test_fields_and_serialization(self, triple_114):
        rep = constants_report(triple_114)
        assert rep.relaxation_K == 2.0
        assert rep.polygonal_c == 2.0
        assert not rep.is_metric
        assert rep.witness_triple == ("a", "b", "c")
        assert rep.witness_chain == ("a", "b", "c")
        assert set(rep.to_dict()) == {
            "relaxation_K", "polygonal_c", "is_metric", "witness_triple", "witness_chain",
        }

    def test_metric_flag_on_metric_input(self):
        rep = constants_report(path_graph_metric(4))
        assert rep.is_metric
        assert rep.witness_triple is None
