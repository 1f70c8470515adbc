import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bmetric import SemimetricSpace


@pytest.fixture
def triple_114():
    """Three points with distances 1, 1, 4: relaxation and polygonal 2."""
    return SemimetricSpace(
        ("a", "b", "c"), np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=float)
    )


@pytest.fixture
def inflated_closure(monkeypatch):
    """A broken chain-metric closure: D exceeds its input three times over at
    the pair (0, 1), so every remetrization sandwich must fail there."""
    import bmetric.remetrize

    closure = bmetric.remetrize.shortest_path_closure

    def inflated(d):
        D = closure(d).copy()
        D[0, 1] = D[1, 0] = 3.0 * d[0, 1]
        return D

    monkeypatch.setattr(bmetric.remetrize, "shortest_path_closure", inflated)


@pytest.fixture
def closure_calls(monkeypatch):
    """A list that gains one entry per shortest_path_closure call made
    through bmetric.remetrize; clear it to restart the count."""
    import bmetric.remetrize

    calls = []
    closure = bmetric.remetrize.shortest_path_closure
    monkeypatch.setattr(bmetric.remetrize, "shortest_path_closure",
                        lambda d: calls.append(1) or closure(d))
    return calls


@pytest.fixture
def uniform6():
    return SemimetricSpace(tuple("abcdef"), np.ones((6, 6)) - np.eye(6))


def path_graph_metric(n):
    """Shortest-path metric of the n-vertex path graph."""
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    return SemimetricSpace(tuple(str(i) for i in range(n)), d)
