"""All-pairs shortest-path closure of a distance matrix.

`shortest_path_closure` is the kernel: an in-place Floyd–Warshall over one
n×n array, O(n²) memory.  `floyd_warshall` also records predecessors, for
`polygonal_constant` alone, which reports a witness chain.
"""

from __future__ import annotations

import numpy as np


def shortest_path_closure(dist: np.ndarray) -> np.ndarray:
    """Min-over-chains closure of dist, as a new float array."""
    D = np.array(dist, dtype=float)
    for k in range(D.shape[0]):
        np.minimum(D, D[:, k, None] + D[k, None, :], out=D)
    return D


def floyd_warshall(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (D, pred): the closure of `shortest_path_closure` together
    with predecessors, for callers that need a witness chain.

    pred[i, j] is the vertex preceding j on a shortest i->j chain.  Updates
    use strict improvement with ascending pivot order, so ties resolve to
    the chain found first and the output is deterministic.
    """
    D = np.array(dist, dtype=float)
    n = D.shape[0]
    pred = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
    for k in range(n):
        via = D[:, k, None] + D[k, None, :]
        better = via < D
        if better.any():
            np.copyto(D, via, where=better)
            np.copyto(pred, pred[k, None, :], where=better)
    return D, pred


def reconstruct_chain(pred: np.ndarray, i: int, j: int) -> list[int]:
    """Vertex sequence of the shortest i->j chain recorded in pred."""
    if i == j:
        return [i]
    chain = [j]
    guard = pred.shape[0] + 1
    while j != i:
        j = int(pred[i, j])
        chain.append(j)
        guard -= 1
        if guard < 0:
            raise RuntimeError("predecessor matrix contains a cycle")
    chain.reverse()
    return chain
