import dataclasses
import math

import numpy as np
import pytest

import bmetric.embed
from bmetric import (
    SemimetricSpace,
    assouad_embed,
    bmetric_assouad_pipeline,
    converse_bound,
    chain_metric,
    doubling_not_weak,
    euclidean_points,
    example31,
    random_bmetric,
    snowflaked_grid,
)
from bmetric.certify import RTOL, CertificateViolation
from bmetric.embed import (
    CONFLICT_FACTOR,
    TAU,
    DegenerateEmbeddingError,
    NonMetricError,
    _certify,
    _checked_norms,
    _coloring,
    _net,
)
from bmetric.spaces import FAMILIES
from conftest import path_graph_metric
from oracles import loop_coloring, loop_net


class TestGreedyNet:
    def test_radius_beyond_diameter_keeps_first_point(self):
        s = path_graph_metric(5)
        assert _net(s.dist, 100.0) == [0]

    def test_radius_below_min_distance_keeps_everything(self):
        s = path_graph_metric(5)
        assert _net(s.dist, 0.5) == [0, 1, 2, 3, 4]

    def test_hand_trace_on_line(self):
        s = path_graph_metric(5)
        assert _net(s.dist, 2.0) == [0, 2, 4]

    def test_net_properties(self):
        s = euclidean_points(12, 2, seed=4)
        for r in (0.5, 1.0, 2.0):
            net = _net(s.dist, r)
            for a in net:
                for b in net:
                    if a != b:
                        assert s.dist[a, b] >= r
            for x in range(s.n):
                assert min(s.dist[x, z] for z in net) < r


class TestConflictColoring:
    def test_spread_net_gets_one_color(self):
        s = path_graph_metric(9)
        net = [0, 4, 8]
        colors = _coloring(s.dist, net, radius=3.0)
        assert set(colors.values()) == {0}

    def test_mutually_conflicting_points_get_distinct_colors(self):
        s = path_graph_metric(3)
        colors = _coloring(s.dist, [0, 1, 2], radius=10.0)
        assert sorted(colors.values()) == [0, 1, 2]

    def test_same_color_points_are_separated(self):
        s = snowflaked_grid(6, 1.0)
        net = _net(s.dist, 1.0)
        radius = 3.0
        colors = _coloring(s.dist, net, radius)
        for a in net:
            for b in net:
                if a != b and colors[a] == colors[b]:
                    assert s.dist[a, b] >= radius


FAMILY_INPUTS = {
    "example31": lambda: example31(12),
    "doubling-not-weak": lambda: doubling_not_weak(8, 6),
    "random-bmetric": lambda: random_bmetric(40, 2.0, seed=3),
    "snowflaked-grid": lambda: snowflaked_grid(5, 2.0),
    "euclidean-points": lambda: euclidean_points(60, 2, seed=1),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_net_and_coloring_match_the_loops_at_every_scale(family):
    space = FAMILY_INPUTS[family]()
    d, lt = space.dist, math.log(TAU)
    scales = range(math.floor(math.log(space.diameter()) / lt),
                   math.ceil(math.log(space.min_distance()) / lt) + 1)
    assert len(scales) > 1
    for j in scales:
        r = TAU ** j
        net = _net(d, r)
        assert net == loop_net(d, r), j
        colors = _coloring(d, net, CONFLICT_FACTOR * r)
        assert list(colors.items()) == list(loop_coloring(d, net, CONFLICT_FACTOR * r).items())


class TestAssouadEmbed:
    def test_two_point_space_is_exact(self):
        s = SemimetricSpace(("a", "b"), np.array([[0, 2], [2, 0]], dtype=float))
        emb = assouad_embed(s, 0.6)
        assert emb.C == pytest.approx(1.0)
        norm = np.linalg.norm(emb.coords[0] - emb.coords[1])
        assert norm == pytest.approx(2.0 ** 0.6, rel=1e-9)

    def test_uniform_space_single_scale(self):
        s = SemimetricSpace(tuple("abcde"), np.ones((5, 5)) - np.eye(5))
        emb = assouad_embed(s, 0.75)
        assert len(emb.scales) == 1
        assert emb.C == pytest.approx(1.0)

    def test_certificate_holds_pointwise(self):
        s = euclidean_points(15, 2, seed=7)
        emb = assouad_embed(s, 0.75)
        norms = emb.pairwise_norms()
        powered = s.dist ** emb.alpha
        mask = ~np.eye(s.n, dtype=bool)
        assert (norms[mask] >= powered[mask] / emb.C * (1 - 1e-9)).all()
        assert (norms[mask] <= powered[mask] * emb.C * (1 + 1e-9)).all()

    def test_injectivity(self):
        s = snowflaked_grid(5, 1.0)
        emb = assouad_embed(s, 0.8)
        assert emb.to_dict()["injective"]
        coords = [tuple(row) for row in emb.coords]
        assert len(set(coords)) == s.n

    def test_dimension_stable_across_grid_sizes(self):
        dims = []
        Cs = []
        for k in (4, 8):
            emb = assouad_embed(snowflaked_grid(k, 1.0), 0.75)
            dims.append(emb.dimension)
            Cs.append(emb.C)
        assert dims[0] == dims[1]
        assert Cs[1] <= 1.5 * Cs[0]

    def test_rejects_nonmetric(self, triple_114):
        with pytest.raises(NonMetricError):
            assouad_embed(triple_114, 0.75)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, float("nan"), float("inf")])
    def test_alpha_validation(self, triple_114, alpha):
        # alpha is checked first, so a non-metric space still gets the alpha error
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            assouad_embed(triple_114, alpha)

    def test_coords_csv_header(self):
        s = path_graph_metric(3)
        emb = assouad_embed(s, 0.75)
        lines = emb.coords_csv().splitlines()
        assert lines[0].startswith("label,x1,")
        assert len(lines) == 4


class TestCertify:
    def test_constant_below_the_distortion_names_the_first_violating_pair(self):
        s = euclidean_points(15, 2, seed=7)
        emb = assouad_embed(s, 0.75)
        tight = dataclasses.replace(emb, C=0.99 * emb.C)
        norms = emb.pairwise_norms()
        powered = s.dist ** emb.alpha
        bad = [
            (i, j) for i in range(s.n) for j in range(s.n)
            if i != j and not (powered[i, j] / tight.C <= norms[i, j] * (1 + RTOL)
                               and norms[i, j] <= powered[i, j] * tight.C * (1 + RTOL))
        ]
        assert bad[0] == (3, 7)  # the upper side; the lower side first fails at (3, 9)
        with pytest.raises(CertificateViolation,
                           match=r"^bi-Lipschitz certificate failed at pair \(3, 7\)$"):
            _certify(tight, s.dist)


class TestPipeline:
    def test_metric_input_degenerates_to_plain_embed(self):
        s = euclidean_points(9, 2, seed=5)
        result = bmetric_assouad_pipeline(s, 0.75)
        assert result.p == 1.0
        assert result.alpha_prime == 0.75
        assert result.C_prime <= result.stage_bound * (1 + 1e-9)

    def test_random_bmetric_certified(self):
        for s in (random_bmetric(12, 2.0, seed=11), random_bmetric(10, 3.0, seed=2),
                  euclidean_points(9, 2, seed=5), snowflaked_grid(4, 2.0)):
            result = bmetric_assouad_pipeline(s, 0.75)
            norms = result.embedding.pairwise_norms()
            assert result.norms.tobytes() == norms.tobytes()  # the certified norms are carried
            target = s.dist ** result.alpha_prime
            mask = ~np.eye(s.n, dtype=bool)
            C = result.C_prime
            ratios = norms[mask] / target[mask]
            assert C == max(ratios.max(), 1.0 / ratios.min())  # the masked formula, bit for bit
            assert (norms[mask] >= target[mask] / C * (1 - 1e-9)).all()
            assert (norms[mask] <= target[mask] * C * (1 + 1e-9)).all()

    def test_squared_euclidean_grid(self):
        s = snowflaked_grid(6, 2.0)
        result = bmetric_assouad_pipeline(s, 0.75)
        assert result.p <= 0.75  # squared distances need a strong snowflake
        # independent recomputation of the stage-1 certificate
        powered = s.dist ** result.p
        rem = chain_metric(s.with_dist(powered))
        assert rem.sandwich_hi <= 2.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_is_checked_before_the_remetrization(self, closure_calls, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            bmetric_assouad_pipeline(random_bmetric(12, 2.0, seed=1), alpha)
        assert closure_calls == []

    def test_only_assouad_embed_checks_the_metric(self, monkeypatch):
        # the pipeline's stage 2 embeds a shortest-path closure, a metric by
        # construction; the closure's own check is a property test
        calls = []
        relaxation = bmetric.embed.relaxation_constant
        monkeypatch.setattr(bmetric.embed, "relaxation_constant",
                            lambda space: calls.append(space.n) or relaxation(space))
        bmetric_assouad_pipeline(random_bmetric(12, 2.0, seed=1), 0.75)
        assert calls == []
        assouad_embed(euclidean_points(9, 2, seed=5), 0.75)
        assert calls == [9]
        with pytest.raises(NonMetricError):
            assouad_embed(random_bmetric(12, 2.0, seed=1), 0.75)

    def test_stage_arithmetic(self):
        for seed in range(5):
            s = random_bmetric(10, 3.0, seed=seed)
            result = bmetric_assouad_pipeline(s, 0.6)
            assert result.alpha_prime == pytest.approx(result.p * 0.6)
            assert result.C_prime <= 2 ** 0.6 * result.embedding.C * (1 + 1e-9)


class TestConverseBound:
    def test_identity_embedding_of_a_metric(self):
        s = path_graph_metric(5)
        rep = converse_bound(s, s.dist, alpha=1.0)
        assert rep.C_emp == pytest.approx(1.0)
        assert rep.K_bound == pytest.approx(2.0)
        assert rep.holds

    def test_triple_against_chain_metric(self, triple_114):
        rem = chain_metric(triple_114)
        rep = converse_bound(triple_114, rem.D, alpha=1.0)
        assert rep.C_emp == pytest.approx(math.sqrt(2.0))
        assert rep.K_bound == pytest.approx(4.0)
        assert rep.relaxation_K == 2.0
        assert rep.holds

    def test_closure_over_produced_embeddings(self):
        for seed in range(5):
            s = random_bmetric(9, 2.5, seed=seed)
            result = bmetric_assouad_pipeline(s, 0.75)
            rep = converse_bound(s, result.embedding.pairwise_norms(), result.alpha_prime)
            assert rep.holds

    def test_shape_mismatch_rejected(self, triple_114):
        with pytest.raises(ValueError):
            converse_bound(triple_114, np.zeros((2, 2)), alpha=0.5)


class TestCheckedNorms:
    def test_equal_rows_collide(self):
        with pytest.raises(DegenerateEmbeddingError) as err:
            _checked_norms(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))
        assert err.value.pair == (0, 2)

    @pytest.mark.parametrize("gap", [1e-200, 1e200])
    def test_norm_whose_square_leaves_the_float_range_is_exact(self, gap):
        # the squared gap underflows to 0 or overflows to inf
        norms = _checked_norms(np.array([[0.0], [gap]]))
        assert norms[0, 1] == norms[1, 0] == gap
