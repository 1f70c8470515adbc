import math

import numpy as np
import pytest

import bmetric.remetrize
import oracles
from bmetric import (
    SemimetricSpace,
    chain_metric,
    doubling_not_weak,
    epsilon_remetrize,
    euclidean_points,
    example31,
    frink_verify,
    polygonal_constant,
    random_bmetric,
    snowflake,
    snowflaked_grid,
)
from bmetric.certify import CertificateViolation
from bmetric.remetrize import FrinkPreconditionError
from conftest import path_graph_metric
from oracles import bisection_remetrize, minplus_closure


def offdiag_mask(n):
    return ~np.eye(n, dtype=bool)


class TestChainMetric:
    def test_metric_input_is_fixed_point(self):
        s = path_graph_metric(6)
        rem = chain_metric(s)
        assert np.array_equal(rem.D, s.dist)
        assert rem.sandwich_hi == 1.0

    def test_single_chain_triple(self, triple_114):
        rem = chain_metric(triple_114)
        assert rem.D[0, 2] == 2.0
        assert rem.sandwich_hi == 2.0
        assert rem.p == 1.0 and rem.method == "chain"

    def test_closure_below_input_and_metric(self):
        s = random_bmetric(10, 2.0, seed=3)
        rem = chain_metric(s)
        mask = offdiag_mask(s.n)
        assert (rem.D[mask] <= s.dist[mask]).all()
        n = s.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert rem.D[i, k] <= rem.D[i, j] + rem.D[j, k] + 1e-9 * rem.D.max()

    def test_sandwich_hi_equals_polygonal_constant(self):
        s = random_bmetric(9, 2.3, seed=8)
        c, _ = polygonal_constant(s)
        assert chain_metric(s).sandwich_hi == c > 1.0

    def test_agrees_with_minplus_oracle(self):
        s = random_bmetric(11, 2.0, seed=12)
        assert np.allclose(chain_metric(s).D, minplus_closure(s.dist), rtol=1e-12)


class TestFrinkVerify:
    def test_metric_space(self):
        cert = frink_verify(path_graph_metric(5))
        assert cert.relaxation_K == 1.0
        assert cert.worst_ratio == 1.0
        assert cert.holds

    def test_relaxation_two_triple(self, triple_114):
        cert = frink_verify(triple_114)
        assert cert.worst_ratio == 2.0
        assert cert.bound == 4.0
        assert cert.holds

    def test_precondition_names_computed_constant(self):
        bad = random_bmetric(8, 3.0, seed=40)
        # seeds are screened so the measured constant genuinely exceeds 2
        from bmetric import relaxation_constant

        K, _ = relaxation_constant(bad)
        if K <= 2.0:
            pytest.skip("seed produced a tame space")
        with pytest.raises(FrinkPreconditionError) as err:
            frink_verify(bad)
        assert err.value.relaxation_K == K

    @pytest.mark.parametrize("seed", range(25))
    def test_squared_bound_on_random_instances(self, seed):
        s = random_bmetric(4 + seed % 12, 2.0, seed=seed)
        assert frink_verify(s).holds


class TestEpsilonRemetrize:
    def test_metric_input_returns_identity_exponent(self):
        s = path_graph_metric(5)
        rem = epsilon_remetrize(s, 0.25)
        assert rem.p == 1.0
        assert np.array_equal(rem.D, s.dist)

    def test_p_one_suffices_at_eps_one(self, triple_114):
        rem = epsilon_remetrize(triple_114, 1.0)
        assert rem.p == 1.0
        assert rem.sandwich_hi == 2.0

    def test_small_eps_forces_snowflake(self, triple_114):
        rem = epsilon_remetrize(triple_114, 0.1)
        assert 0 < rem.p < 1
        assert rem.sandwich_hi <= 1.1
        assert rem.method == "chain_after_snowflake"
        # independent recomputation of the polygonal constant of d^p
        powered = triple_114.dist ** rem.p
        D = minplus_closure(powered)
        mask = offdiag_mask(3)
        assert float((powered[mask] / D[mask]).max()) <= 1.1

    def test_output_sandwich_certificates(self):
        for seed in range(10):
            s = random_bmetric(8, 2.6, seed=seed)
            rem = epsilon_remetrize(s, 0.5)
            powered = s.dist ** rem.p
            mask = offdiag_mask(s.n)
            assert (rem.D[mask] <= powered[mask] * (1 + 1e-12)).all()
            assert rem.sandwich_hi <= 1.5
            assert rem.to_dict()["sandwich_lo"] <= 1.0 + 1e-12

    def test_search_trace_final_value_certified(self):
        s = random_bmetric(9, 3.0, seed=77)
        rem = epsilon_remetrize(s, 0.2)
        accepted = [c for p, c in rem.search_trace if p == rem.p]
        assert accepted and min(accepted) <= 1.2

    def test_eps_one_gives_factor_two_sandwich(self):
        for seed in range(10):
            s = random_bmetric(7, 3.0, seed=seed)
            rem = epsilon_remetrize(s, 1.0)
            powered = s.dist ** rem.p
            mask = offdiag_mask(s.n)
            assert (powered[mask] <= 2.0 * rem.D[mask] * (1 + 1e-12)).all()

    @pytest.mark.parametrize("eps,method", [(1.0, "chain"), (0.05, "chain_after_snowflake")])
    def test_sandwich_is_the_accepted_evaluation(self, eps, method):
        # the (lo, hi) pair kept from the search equals a fresh sandwich of d^p
        s = random_bmetric(10, 2.0, seed=3)
        rem = epsilon_remetrize(s, eps)
        assert rem.method == method
        powered, mask = s.dist ** rem.p, offdiag_mask(s.n)
        lo = (rem.D[mask] / powered[mask]).max()
        hi = (powered[mask] / rem.D[mask]).max()
        assert np.float64(rem.to_dict()["sandwich_lo"]).tobytes() == np.float64(lo).tobytes()
        assert np.float64(rem.sandwich_hi).tobytes() == np.float64(hi).tobytes()

    def test_rejects_nonpositive_eps(self, triple_114):
        with pytest.raises(ValueError):
            epsilon_remetrize(triple_114, 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_nonfinite_eps(self, triple_114, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            epsilon_remetrize(triple_114, eps)

    def test_resolution_of_returned_exponent(self, triple_114):
        rem = epsilon_remetrize(triple_114, 0.1)
        rejected = [p for p, c in rem.search_trace if c > 1.1]
        assert min(rejected) - rem.p <= 1e-3


def chain_pipeline_input(index):
    """The benchmark's chain-pipeline input `bmetric-a` (index 0) or
    `bmetric-b` (index 1) at seed 0."""
    return random_bmetric(300, 2.0, int(np.random.SeedSequence([0, index]).generate_state(1)[0]))


NAMED_INPUTS = {
    "rb300-K4": lambda: random_bmetric(300, 4.0, 1),
    "rb100": lambda: random_bmetric(100, 2.0, 5),
    "example31-50": lambda: example31(50),
    "grid12": lambda: snowflaked_grid(12, 2.0),
    "star": lambda: doubling_not_weak(40, 20),
    "eu200-cubed": lambda: snowflake(euclidean_points(200, 2, 1), 3.0),
    "eu100-squared": lambda: snowflake(euclidean_points(100, 2, 1), 2.0),
    **{f"rb40-{k}": (lambda k=k: random_bmetric(40, 2.0 + 0.4 * k, k)) for k in range(6)},
}


class TestGridSearch:
    """The interpolation search returns bisection's p, D and sandwich, in at
    most 3 closures beyond bisection's count."""

    @pytest.mark.parametrize("name", NAMED_INPUTS)
    def test_matches_bisection_on_named_inputs(self, name):
        s = NAMED_INPUTS[name]()
        for eps in (0.5, 1.0, 0.1, 0.05, 2.0):
            rem, old = epsilon_remetrize(s, eps), bisection_remetrize(s, eps)
            assert (rem.p, rem.sandwich_hi) == (old.p, old.sandwich_hi), eps
            assert rem.D.tobytes() == old.D.tobytes(), eps
            assert len(rem.search_trace) <= len(old.search_trace) + 3, eps

    @pytest.mark.parametrize("index", (0, 1))
    def test_chain_pipeline_inputs_take_two_closures(self, index, closure_calls):
        # p = 1 is rejected, its worst pair's chain rejects the grid from some
        # point c up, and the closure at c - 1 is accepted
        s = chain_pipeline_input(index)
        for eps in (0.5, 1.0):
            closure_calls.clear()
            rem, old = epsilon_remetrize(s, eps), bisection_remetrize(s, eps)
            assert len(closure_calls) == 2 and len(rem.search_trace) == 3, eps
            assert len(old.search_trace) == 11
            assert (rem.p, rem.D.tobytes(), rem.sandwich_hi) == \
                (old.p, old.D.tobytes(), old.sandwich_hi)

    @pytest.mark.parametrize("step", (513, 700, 1000, 1022))
    def test_a_step_in_hi_costs_at_most_three_closures_more(self, step, monkeypatch):
        # hi(p) jumps from 1 to 1e6 between grid points step and step + 1:
        # regula falsi creeps toward the accepted end, and only the clamp
        # holds it to bisection's 11 closures plus 3
        def stepped(powered, D):
            p = math.log2(powered[0, 1])  # the space has d(0, 1) = 2
            return 1.0, (1.0 if p < (step + 0.5) * bmetric.remetrize._GRID else 1e6)

        s = path_graph_metric(3).rescale(2.0)
        monkeypatch.setattr(bmetric.remetrize, "ratio_range", stepped)
        monkeypatch.setattr(oracles, "ratio_range", stepped)
        rem, old = epsilon_remetrize(s, 0.5), bisection_remetrize(s, 0.5)
        assert rem.p == old.p == step * bmetric.remetrize._GRID
        assert len(old.search_trace) == 11 and len(rem.search_trace) <= 14

    @pytest.mark.parametrize("name", NAMED_INPUTS)
    def test_final_bracket_is_one_grid_step(self, name):
        s = NAMED_INPUTS[name]()
        for eps in (0.05, 0.5, 2.0):
            rem = epsilon_remetrize(s, eps)
            if rem.p == 1.0:
                continue
            assert all((p / bmetric.remetrize._GRID).is_integer() for p, _ in rem.search_trace)
            accepted = max(p for p, hi in rem.search_trace if hi <= 1.0 + eps)
            rejected = min(p for p, hi in rem.search_trace if hi > 1.0 + eps)
            assert (accepted, rejected - accepted) == (rem.p, bmetric.remetrize._GRID), eps

    def test_below_the_grid_halves_as_bisection_does(self, closure_calls):
        # hi(p) is (3e308)^p / 2 while that is above 1: 1.00047 at p = 2^-10,
        # so the grid is all rejected at eps 1e-4, and p = 2^-11 meets it
        s = SemimetricSpace(("a", "b", "c"), np.array([[0, 1e-154, 3e154],
                                                       [1e-154, 0, 1e-154],
                                                       [3e154, 1e-154, 0]]))
        rem, old = epsilon_remetrize(s, 1e-4), bisection_remetrize(s, 1e-4)
        assert rem.p == old.p == bmetric.remetrize._GRID / 2
        assert (rem.D.tobytes(), rem.sandwich_hi) == (old.D.tobytes(), old.sandwich_hi)
        assert len(closure_calls) <= len(old.search_trace) + 3


class TestSandwichCertificate:
    """Each remetrization checks D <= d^p <= sandwich_hi * D before returning."""

    def test_chain_metric_rejects_closure_above_input(self, triple_114, inflated_closure):
        with pytest.raises(CertificateViolation, match=r"D > d\^p at pair \(0, 1\)"):
            chain_metric(triple_114)

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_epsilon_remetrize_rejects_closure_above_input(self, triple_114, inflated_closure,
                                                           eps):
        with pytest.raises(CertificateViolation, match=r"D > d\^p at pair \(0, 1\)"):
            epsilon_remetrize(triple_114, eps)

    def test_upper_side_names_its_pair(self, triple_114, monkeypatch):
        monkeypatch.setattr(bmetric.remetrize, "ratio_range", lambda powered, D: (1.0, 1.0))
        with pytest.raises(CertificateViolation, match=r"d\^p > 1.0 \* D at pair \(0, 2\)"):
            chain_metric(triple_114)

    def test_only_the_returned_exponent_is_certified(self, triple_114, monkeypatch):
        calls = []
        check = bmetric.remetrize.sandwich_violation
        monkeypatch.setattr(bmetric.remetrize, "sandwich_violation",
                            lambda lo, mid, hi: calls.append(1) or check(lo, mid, hi))
        rem = epsilon_remetrize(triple_114, 0.1)
        assert len(rem.search_trace) > 2 and len(calls) == 1
