import numpy as np
import pytest

import bmetric.remetrize
from bmetric import (
    chain_metric,
    epsilon_remetrize,
    frink_verify,
    polygonal_constant,
    random_bmetric,
)
from bmetric.certify import CertificateViolation
from bmetric.remetrize import FrinkPreconditionError
from conftest import path_graph_metric
from oracles import minplus_closure


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
