import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bmetric
from bmetric import SemimetricSpace, converse_bound
from bmetric.certify import (
    RTOL,
    first_pair,
    ratio_range,
    sandwich_violation,
    within,
)
from oracles import loop_first_pair, loop_ratio_range, loop_sandwich_violation

# ties, values just inside and just outside the slack, and NaN
EDGE_VALUES = st.sampled_from([0.5, 1.0, 1.0 + RTOL / 2, 1.0 + 2 * RTOL, 2.0, np.nan])


@st.composite
def matrices(draw, count, values, max_n=6):
    """count n×n matrices of one size, n from 1 to max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
            for _ in range(count)]


def test_within_allows_only_the_relative_slack():
    assert within(1.0 + RTOL / 2, 1.0)
    assert not within(1.0 + 2 * RTOL, 1.0)
    assert not within(np.nan, 1.0)
    assert within(np.array([1.0, 2.0]), np.array([1.0, 2.0])).all()


@given(matrices(1, st.booleans()))
@settings(max_examples=100, deadline=None)
def test_first_pair_matches_loop_oracle(mats):
    (mask,) = mats
    assert first_pair(mask.copy()) == loop_first_pair(mask)


@given(matrices(3, EDGE_VALUES))
@settings(max_examples=200, deadline=None)
def test_sandwich_violation_matches_loop_oracle(mats):
    assert sandwich_violation(*mats) == loop_sandwich_violation(*mats, RTOL)


@given(matrices(2, st.floats(min_value=1e-100, max_value=1e100)))
@settings(max_examples=100, deadline=None)
def test_ratio_range_matches_loop_oracle(mats):
    assert ratio_range(*mats) == loop_ratio_range(*mats)


def test_sandwich_names_the_low_side_when_both_fail_at_one_pair():
    lo, mid, hi = np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))
    mid[0, 1] = np.nan  # fails both sides
    assert sandwich_violation(lo, mid, hi) == ((0, 1), True)
    mid[0, 1], mid[1, 0] = 0.5, 3.0  # low side at (0, 1) only, high side at (1, 0) only
    assert sandwich_violation(lo, mid, hi) == ((0, 1), True)
    mid[0, 1] = 1.0
    assert sandwich_violation(lo, mid, hi) == ((1, 0), False)
    assert sandwich_violation(lo, lo, hi) is None


def test_ratio_range_below_two_points_is_one():
    assert ratio_range(np.zeros((1, 1)), np.zeros((1, 1))) == (1.0, 1.0)


def test_converse_bound_on_one_point():
    one = SemimetricSpace(("a",), np.zeros((1, 1)))
    report = converse_bound(one, np.zeros((1, 1)), 0.5)
    assert report.C_emp == 1.0 and report.holds
    assert report.K_bound == 4.0 and report.relaxation_K == 1.0


def test_one_tolerance_constant():
    # The certification tolerance lives in certify.py alone.
    offenders = []
    for path in sorted(Path(bmetric.__file__).parent.glob("*.py")):
        if path.name == "certify.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            offenders += [f"{path.name}:{t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith("TOL")]
    assert not offenders, offenders


def test_no_runtime_jsonschema_import():
    # jsonschema validates reports in the tests only; it is a test extra.
    offenders = []
    for path in sorted(Path(bmetric.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{name}" for name in names
                          if name.split(".")[0] == "jsonschema"]
    assert not offenders, offenders
