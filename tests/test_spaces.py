import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmetric import (
    SemimetricSpace,
    StructuralError,
    cli,
    doubling_not_weak,
    euclidean_points,
    example31,
    random_bmetric,
    snowflake,
    snowflaked_grid,
    validate,
)
from bmetric.spaces import FAMILIES
from oracles import (
    broadcast_pairwise_norms,
    loop_doubling_not_weak,
    loop_example31,
    loop_max_triple_ratio,
    loop_validate,
)


@st.composite
def labelled_matrices(draw):
    """Labels and a square matrix that need not be a semimetric: any floats,
    NaN and infinities too, and labels with characters JSON escapes."""
    n = draw(st.integers(min_value=1, max_value=8))
    awkward = st.sampled_from(['say "hi"', "back\\slash", "café", "two\nlines"])
    labels = draw(st.lists(st.text() | awkward, min_size=n, max_size=n, unique=True))
    edges = st.sampled_from([-0.0, 5e-324, 1.7e308])
    entries = draw(st.lists(st.floats() | edges, min_size=n * n, max_size=n * n))
    return labels, np.array(entries).reshape(n, n)


def space(matrix, labels=None):
    matrix = np.array(matrix, dtype=float)
    labels = labels or tuple(f"p{i}" for i in range(matrix.shape[0]))
    return SemimetricSpace(labels, matrix)


class TestValidate:
    def test_smallest_valid_space(self):
        assert validate(space([[0, 1], [1, 0]])).ok

    def test_asymmetry_fails_s2_with_witness(self):
        report = validate(space([[0, 1], [2, 0]]))
        assert not report.s2_ok
        assert report.s2_witness == (0, 1)
        assert report.s1_ok

    def test_zero_offdiagonal_fails_s1_with_witness(self):
        report = validate(space([[0, 0], [0, 0]]))
        assert not report.s1_ok
        assert report.s1_witness == (0, 1)

    def test_nonzero_diagonal_fails_s1(self):
        report = validate(space([[0.5, 1], [1, 0]]))
        assert not report.s1_ok

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            SemimetricSpace(("a", "b"), np.zeros((3, 3)))

    def test_nonsquare_is_structural(self):
        with pytest.raises(StructuralError):
            SemimetricSpace(("a", "b"), np.zeros((2, 3)))

    def test_duplicate_labels_are_structural(self):
        with pytest.raises(StructuralError):
            SemimetricSpace(("a", "a"), np.array([[0, 1], [1, 0]], dtype=float))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_distance_fails_s1_with_witness(self, bad):
        report = validate(space([[0, 1, bad], [1, 0, 1], [bad, 1, 0]]))
        assert not report.s1_ok and report.s1_witness == (0, 2)
        assert report.s2_ok

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        values = np.array([0.0, 1e-12, 0.5, 1.0, 2.0, -1.0, np.nan, np.inf])
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            d = rng.choice(values, size=(n, n), p=[0.2, 0.05, 0.25, 0.25, 0.15, 0.04, 0.03, 0.03])
            report = validate(space(d))
            assert (report.s1_witness, report.s2_witness) == loop_validate(d), d
            assert report.s1_ok == (report.s1_witness is None)
            assert report.s2_ok == (report.s2_witness is None)


class TestGenerators:
    def test_example31_small(self):
        s = example31(1)
        assert s.n == 3
        assert s.dist[s.labels.index("-1"), s.labels.index("1")] == 2.0
        assert s.dist[s.labels.index("0"), s.labels.index("1")] == 1.0
        assert s.dist[s.labels.index("0"), s.labels.index("-1")] == 1.0

    def test_example31_hub_distance_is_one(self):
        s = example31(6)
        hub = s.labels.index("0")
        others = [i for i in range(s.n) if i != hub]
        assert all(s.dist[hub, i] == 1.0 for i in others)

    def test_snowflaked_grid_identity_power(self):
        s = snowflaked_grid(2, 1.0)
        assert s.n == 4
        vals = sorted(s.offdiag())
        assert vals[0] == pytest.approx(1.0)
        assert vals[-1] == pytest.approx(np.sqrt(2))

    def test_random_bmetric_meets_relaxation_target(self):
        s = random_bmetric(10, 2.0, seed=7)
        ratio, _ = loop_max_triple_ratio(s.dist)
        assert ratio <= 2.0

    def test_random_bmetric_is_seed_deterministic(self):
        a = random_bmetric(8, 1.5, seed=3)
        b = random_bmetric(8, 1.5, seed=3)
        assert np.array_equal(a.dist, b.dist)

    def test_doubling_not_weak_structure(self):
        s = doubling_not_weak(3, 4)
        i2, i3 = s.labels.index("2"), s.labels.index("3")
        assert s.dist[i2, i3] == 0.5
        assert s.dist[s.labels.index("s0"), s.labels.index("s1")] == 1.0
        assert s.dist[s.labels.index("s1"), s.labels.index("s2")] == 2.0
        assert s.dist[i3, s.labels.index("s2")] == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "spec",
        [
            ("example31", {"n": 4}),
            ("doubling-not-weak", {"n": 3, "m": 5}),
            ("random-bmetric", {"n": 9, "K": 2.5, "seed": 11}),
            ("snowflaked-grid", {"k": 3, "p": 0.5}),
            ("euclidean-points", {"n": 7, "dim": 3, "seed": 2}),
        ],
    )
    def test_generator_soundness(self, spec):
        family, params = spec
        assert validate(FAMILIES[family](**params)).ok

    def test_unknown_family_rejected(self, tmp_path):
        out = tmp_path / "bad.json"
        assert "no-such-family" not in FAMILIES
        assert cli.main(["generate", "--family", "no-such-family", "--space-out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_array_generators_match_loops(self, n):
        s = example31(n)
        labels, d = loop_example31(n)
        assert s.labels == labels and np.array_equal(s.dist, d)
        for m in range(2, 21):
            s = doubling_not_weak(n, m)
            labels, d = loop_doubling_not_weak(n, m)
            assert s.labels == labels and np.array_equal(s.dist, d), (n, m)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_norm_generators_match_broadcast(self, dim):
        for n, seed in ((1, 0), (2, 1), (30, 2), (300, 3)):
            pts = np.random.default_rng(seed).standard_normal((n, dim))
            d = euclidean_points(n, dim, seed).dist
            assert d.tobytes() == broadcast_pairwise_norms(pts).tobytes(), (n, seed)
        for k, p in ((1, 1.0), (4, 1.0), (10, 0.5), (7, 0.34)):
            pts = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
            d = snowflaked_grid(k, p).dist
            assert d.tobytes() == (broadcast_pairwise_norms(pts) ** p).tobytes(), (k, p)

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            example31(0)
        with pytest.raises(ValueError):
            snowflaked_grid(3, -1.0)
        with pytest.raises(ValueError):
            random_bmetric(5, 0.5, seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="power must be finite"):
            snowflaked_grid(3, bad)
        with pytest.raises(ValueError, match="K must be finite"):
            random_bmetric(5, bad, seed=0)


class TestSnowflake:
    def test_exact_square_roots(self):
        s = space([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        out = snowflake(s, 0.5)
        assert sorted(out.offdiag()) == [1, 1, 1, 1, 2, 2]

    def test_identity_power(self, triple_114):
        assert np.array_equal(snowflake(triple_114, 1.0).dist, triple_114.dist)

    def test_relaxation_drops_to_metric(self, triple_114):
        ratio_before, _ = loop_max_triple_ratio(triple_114.dist)
        ratio_after, _ = loop_max_triple_ratio(snowflake(triple_114, 0.5).dist)
        assert ratio_before == 2.0
        assert ratio_after <= 1.0

    def test_round_trip(self):
        s = euclidean_points(8, 2, seed=5)
        back = snowflake(snowflake(s, 0.37), 1 / 0.37)
        assert np.allclose(back.dist, s.dist, rtol=1e-9)

    def test_preserves_distance_order(self):
        s = random_bmetric(7, 2.0, seed=9)
        flat = s.offdiag()
        powered = snowflake(s, 0.42).offdiag()
        assert np.array_equal(np.argsort(flat, kind="stable"), np.argsort(powered, kind="stable"))

    def test_rejects_nonpositive_power(self, triple_114):
        with pytest.raises(ValueError):
            snowflake(triple_114, 0.0)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_rejects_nonfinite_power(self, triple_114, p):
        with pytest.raises(ValueError, match="exponent must be finite"):
            snowflake(triple_114, p)


class TestIO:
    def test_json_round_trip(self):
        s = random_bmetric(6, 1.7, seed=1)
        again = SemimetricSpace.from_json(s.to_json())
        assert again.labels == s.labels
        assert np.array_equal(again.dist, s.dist)

    def test_csv_round_trip(self):
        s = euclidean_points(5, 3, seed=8)
        again = SemimetricSpace.from_csv(s.to_csv())
        assert again.labels == s.labels
        assert np.array_equal(again.dist, s.dist)

    @given(labelled_matrices())
    @settings(max_examples=100, deadline=None)
    def test_json_is_the_whole_document_dumps(self, labelled):
        labels, dist = labelled
        assert SemimetricSpace(tuple(labels), dist).to_json() == \
            json.dumps({"labels": labels, "matrix": dist.tolist()})

    def test_json_shape(self):
        obj = json.loads(example31(1).to_json())
        assert set(obj) == {"labels", "matrix"}
        assert len(obj["matrix"]) == 3

    def test_bad_json_is_structural(self):
        with pytest.raises(StructuralError):
            SemimetricSpace.from_json("not json")
        with pytest.raises(StructuralError):
            SemimetricSpace.from_json('{"labels": ["a"]}')

    def test_bad_csv_is_structural(self):
        with pytest.raises(StructuralError):
            SemimetricSpace.from_csv("")
        with pytest.raises(StructuralError):
            SemimetricSpace.from_csv("a,b\n0,x\ny,0\n")

    @pytest.mark.parametrize("labels,matrix,message", [
        ('"ab"', "[[0, 1], [1, 0]]", '"labels" must be an array'),
        ('{"a": 0, "b": 1}', "[[0, 1], [1, 0]]", '"labels" must be an array'),
        ("null", "[[0, 1], [1, 0]]", '"labels" must be an array'),
        ('["a", "b"]', "[0, 1]", '"matrix" must be an array of arrays'),
        ('["a", "b"]', '"01"', '"matrix" must be an array of arrays'),
        ('["a", "b"]', "[[0, 1], 1]", '"matrix" must be an array of arrays'),
        ('["a", "b"]', "[[0, 1], [1]]", "ragged matrix: rows of 1 to 2 entries"),
        ('["a", "b"]', '[[0, "x"], [1, 0]]', "non-numeric matrix entry"),
        ("[1, 2]", "[[0, 1], [1, 0]]", "non-string label at index 0: 1"),
        ('["a", null]', "[[0, 1], [1, 0]]", "non-string label at index 1: null"),
        ('["a", "b"]', '[[0, "1.5"], [1.5, 0]]', r'non-numeric matrix entry at \(0, 1\): "1.5"'),
        ('["a", "b"]', "[[0, 1], [true, 0]]", r"non-numeric matrix entry at \(1, 0\): true"),
        ('["a", "b"]', "[[false, 1], [1, 0]]", r"non-numeric matrix entry at \(0, 0\): false"),
        ('["a", "b"]', "[[0, null], [null, 0]]", r"non-numeric matrix entry at \(0, 1\): null"),
        ('["a", "b"]', f"[[0, 1], [{'9' * 401}, 0]]", r"integer too large for a float at \(1, 0\)"),
        # Python 3.11 on refuses to decode integers of over 4300 digits
        ('["a", "b"]', f"[[0, {'9' * 5000}], [1, 0]]",
         r"invalid JSON: Exceeds the limit|integer too large for a float at \(0, 1\)"),
    ])
    def test_malformed_json_says_what_is_wrong(self, labels, matrix, message):
        with pytest.raises(StructuralError, match=message):
            SemimetricSpace.from_json(f'{{"labels": {labels}, "matrix": {matrix}}}')

    def test_ragged_csv_matrix(self):
        with pytest.raises(StructuralError, match="ragged matrix: rows of 1 to 2 entries"):
            SemimetricSpace.from_csv("a,b\n0,1\n1\n")
