"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

import jsonschema
import numpy as np
import pytest

from bmetric import (
    EmbeddingConfig,
    assouad_embed,
    bmetric_assouad_pipeline,
    chain_metric,
    converse_bound,
    epsilon_remetrize,
    euclidean_points,
    example31,
    frink_verify,
    polygonal_constant,
    random_bmetric,
    relaxation_constant,
    sandwich_doubling_check,
    snowflake_doubling_check,
    snowflaked_grid,
    weak_doubling_constant,
)
from bmetric.doubling import cover_requirement
from bmetric.schema import load_schema
from cli_runner import EXIT_ONE_PREFIXES, run_cli
from oracles import loop_floyd_warshall, minplus_closure, polygonal_by_enumeration, triple_loop_relaxation

ULP = 4e-16  # one-ulp slack for oracles with different summation bracketing


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


def offdiag(n):
    return ~np.eye(n, dtype=bool)


def random_suite(count, max_n, max_K, base_seed=0):
    for seed in range(count):
        n = 3 + seed % (max_n - 2)
        K = 1.5 + (seed % 4) * (max_K - 1.5) / 3
        yield random_bmetric(n, K, seed=base_seed + seed)


def test_criterion_1_constants_oracle_equivalence():
    start = time.time()
    for i, s in enumerate(random_suite(500, max_n=12, max_K=3.0)):
        mask = offdiag(s.n)
        K, wit = relaxation_constant(s)
        K_oracle, wit_oracle = triple_loop_relaxation(s.dist)
        assert K == K_oracle and wit == wit_oracle
        c, _ = polygonal_constant(s)
        D_loop = loop_floyd_warshall(s.dist)
        assert c == max(1.0, float((s.dist[mask] / D_loop[mask]).max()))
        D_mp = minplus_closure(s.dist)
        c_mp = max(1.0, float((s.dist[mask] / D_mp[mask]).max()))
        assert abs(c - c_mp) <= ULP * c
        if s.n <= 7 and i % 10 == 0:
            assert c == pytest.approx(polygonal_by_enumeration(s.dist), rel=ULP)
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, f"(500 spaces, {elapsed:.1f}s)")


def test_criterion_2_chain_metric_sandwich():
    for s in random_suite(500, max_n=12, max_K=3.0, base_seed=1000):
        rem = chain_metric(s)
        c, _ = polygonal_constant(s)
        mask = offdiag(s.n)
        assert (rem.D[mask] <= s.dist[mask]).all()  # zero tolerance on the left
        assert (s.dist[mask] <= c * rem.D[mask] * (1 + 1e-12)).all()
    report(2, "(500 spaces)")


def test_criterion_3_squared_constant_bound():
    start = time.time()
    for seed in range(1000):
        n = 3 + seed % 13
        s = random_bmetric(n, 2.0, seed=seed)
        cert = frink_verify(s)
        assert cert.relaxation_K <= 2.0
        assert cert.holds, f"falsification finding at seed {seed}"
    elapsed = time.time() - start
    assert elapsed < 120
    report(3, f"(1000 spaces, {elapsed:.1f}s)")


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_criterion_4_epsilon_remetrize(eps):
    for s in random_suite(200, max_n=12, max_K=3.0, base_seed=2000):
        rem = epsilon_remetrize(s, eps)
        assert 0 < rem.p <= 1
        powered = s.dist ** rem.p
        mask = offdiag(s.n)
        assert (rem.D[mask] <= powered[mask] * (1 + 1e-12)).all()
        assert (powered[mask] <= (1 + eps) * rem.D[mask] * (1 + 1e-12)).all()
        # recompute the polygonal constant of d^p from scratch
        c_p, _ = polygonal_constant(s.with_dist(powered))
        assert c_p <= 1 + eps + 1e-12
    report(4, f"(eps={eps}, 200 spaces)")


def test_criterion_5_hub_family_replication():
    start = time.time()
    for n in (3, 5, 10):
        s = example31(n)
        hub = s.labels.index("0")
        res = cover_requirement(s, hub, 1.5, exact_limit=2 * n + 1)
        assert res.exact and res.upper == 2 * n + 1
    weak = weak_doubling_constant(example31(4))
    assert weak.exact and weak.value <= 3
    elapsed = time.time() - start
    assert elapsed < 60
    report(5, f"(exact covers 7/11/21; weak constant {weak.value}; {elapsed:.1f}s)")


def _exactly_computable_spaces():
    spaces = []
    for seed in range(25):
        spaces.append(euclidean_points(5 + seed % 3, 2, seed=seed))
    for seed in range(25):
        spaces.append(random_bmetric(6, 1.5 + (seed % 3) * 0.5, seed=3000 + seed))
    return spaces


def test_criterion_6_snowflake_doubling_bound():
    checked = 0
    for s in _exactly_computable_spaces():
        for p in (1.0, 0.7, 0.5):
            check = snowflake_doubling_check(s, p)
            assert check.exact and check.holds
            checked += 1
    report(6, f"({checked} checks over 50 spaces)")


def test_criterion_7_sandwich_doubling_bound():
    pairs = 0
    for seed in range(17):
        s = euclidean_points(6 + seed % 3, 2, seed=100 + seed)
        assert sandwich_doubling_check(s, s, alpha=1.0).holds
        pairs += 1
    for seed in range(17):
        base = euclidean_points(6 + seed % 3, 2, seed=200 + seed)
        assert sandwich_doubling_check(base.rescale(1.5), base, alpha=1.5).holds
        pairs += 1
    for seed in range(16):
        s = random_bmetric(7 + seed % 4, 2.0, seed=300 + seed)
        K, _ = relaxation_constant(s)
        rem = chain_metric(s)
        alpha = max(1.0, K * K)
        assert sandwich_doubling_check(s, s.with_dist(rem.D), alpha).holds
        pairs += 1
    assert pairs == 50
    report(7, "(50 sandwich pairs)")


@pytest.fixture(scope="module")
def grid_embeddings():
    return {
        k: (snowflaked_grid(k, 1.0), assouad_embed(snowflaked_grid(k, 1.0), EmbeddingConfig(alpha=0.75)))
        for k in (4, 8, 16)
    }


def test_criterion_8_embedding_certificates(grid_embeddings):
    start = time.time()
    dims = {}
    consts = {}
    for k, (space, emb) in grid_embeddings.items():
        norms = emb.pairwise_norms()
        powered = space.dist ** emb.alpha
        mask = offdiag(space.n)
        assert (norms[mask] >= powered[mask] / emb.C * (1 - 1e-9)).all()
        assert (norms[mask] <= powered[mask] * emb.C * (1 + 1e-9)).all()
        dims[k] = emb.dimension
        consts[k] = emb.C
    assert dims[4] == dims[8] == dims[16]
    assert consts[16] <= 1.5 * consts[4]
    elapsed = time.time() - start
    assert elapsed < 60
    report(8, f"(N={dims[4]} at all sizes; C ratio {consts[16] / consts[4]:.3f}; {elapsed:.1f}s)")


@pytest.fixture(scope="module")
def pipeline_results():
    results = []
    for seed in range(100):
        n = 4 + seed % 9
        K = 1.5 + (seed % 4) * 0.5
        s = random_bmetric(n, K, seed=4000 + seed)
        results.append((s, bmetric_assouad_pipeline(s, 0.75)))
    return results


def test_criterion_9_pipeline_certificates(pipeline_results):
    for s, result in pipeline_results:
        assert result.alpha_prime == pytest.approx(result.p * 0.75)
        norms = result.embedding.pairwise_norms()
        target = s.dist ** result.alpha_prime
        mask = offdiag(s.n)
        C = result.C_prime
        assert (norms[mask] >= target[mask] / C * (1 - 1e-9)).all()
        assert (norms[mask] <= target[mask] * C * (1 + 1e-9)).all()
        assert C <= 2 ** 0.75 * result.embedding.C * (1 + 1e-9)
    report(9, "(100 pipelines)")


def test_criterion_10_converse_closure(grid_embeddings, pipeline_results):
    checked = 0
    for k, (space, emb) in grid_embeddings.items():
        rep = converse_bound(space, emb.pairwise_norms(), emb.alpha)
        assert rep.holds
        checked += 1
    for s, result in pipeline_results:
        rep = converse_bound(s, result.embedding.pairwise_norms(), result.alpha_prime)
        assert rep.holds
        checked += 1
    report(10, f"({checked} embeddings closed)")


def test_criterion_11_cli_reproducibility(tmp_path):
    d = tmp_path
    assert run_cli("generate", "--family", "random-bmetric", "--n", "10", "--K", "2",
                   "--seed", "7", "--space-out", str(d / "rb.json"), "--quiet").returncode == 0
    assert run_cli("generate", "--family", "random-bmetric", "--n", "8", "--K", "3",
                   "--seed", "1", "--space-out", str(d / "rb3.json"), "--quiet").returncode == 0
    assert run_cli("generate", "--family", "example31", "--n", "4",
                   "--space-out", str(d / "ex31.json"), "--quiet").returncode == 0
    (d / "broken.json").write_text('{"labels": ["a", "b"], "matrix": [[0, 1], [2, 0]]}')

    # identical manifests produce byte-identical reports
    for args in (("constants", "rb.json"), ("remetrize", "rb.json", "--eps", "0.5"),
                 ("pipeline", "rb3.json", "--alpha", "0.75")):
        first = run_cli(*args, cwd=d)
        second = run_cli(*args, cwd=d)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout and first.stdout

    # every emitted report validates against its shipped schema
    schema_runs = [
        ("constants", ("constants", "rb.json")),
        ("remetrize", ("remetrize", "rb.json", "--eps", "1.0")),
        ("doubling", ("doubling", "ex31.json", "--exact-max", "9", "--weak")),
        ("pipeline", ("pipeline", "rb3.json", "--alpha", "0.75")),
        ("verify", ("verify", "rb.json", "--theorem", "2.1")),
        ("verify", ("verify", "rb.json", "--theorem", "4.3")),
    ]
    for name, args in schema_runs:
        r = run_cli(*args, cwd=d)
        assert r.returncode == 0, r.stderr
        jsonschema.validate(json.loads(r.stdout), load_schema(name))

    # exit-code contract across a 10-case matrix
    matrix = [
        (("constants", "rb.json"), 0),
        (("verify", "rb.json", "--theorem", "2.1"), 0),
        (("verify", "rb.json", "--theorem", "2.2"), 0),
        (("verify", "rb.json", "--theorem", "4.3"), 0),
        (("verify", "rb3.json", "--theorem", "3.5"), 0),
        (("verify", "rb3.json", "--theorem", "2.1"), 1),  # precondition K > 2
        (("embed", "rb.json", "--alpha", "0.75"), 1),  # non-metric input
        (("constants", "broken.json"), 1),  # axiom failure in input
        (("constants", "no-such-file.json"), 1),
        (("doubling",), 1),  # usage error
    ]
    for args, expected in matrix:
        r = run_cli(*args, "--quiet", cwd=d)
        assert r.returncode == expected, (args, r.returncode, r.stderr)
        if expected == 1:
            assert r.stderr.startswith(EXIT_ONE_PREFIXES), (args, r.stderr)
    report(11, "(byte-identical reports; schemas valid; 10-case exit matrix)")
