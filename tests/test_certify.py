import ast
from pathlib import Path

import numpy as np

import bmetric
from bmetric.certify import RTOL, first_violation, within


def test_within_allows_only_the_relative_slack():
    assert within(1.0 + RTOL / 2, 1.0)
    assert not within(1.0 + 2 * RTOL, 1.0)
    assert not within(np.nan, 1.0)
    assert within(np.array([1.0, 2.0]), np.array([1.0, 2.0])).all()


def test_first_violation_is_row_major_and_skips_diagonal():
    b = np.ones((3, 3))
    a = np.eye(3) * 5.0  # diagonal violations are ignored
    assert first_violation(a, b) is None
    a[2, 0] = a[1, 2] = 1.5
    assert first_violation(a, b) == (1, 2)
    a[1, 2] = np.nan
    assert first_violation(a, b) == (1, 2)


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
