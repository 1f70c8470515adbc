"""Dense min-plus kernels on a distance matrix, in O(n²) memory.

Each runs on `_pivot_sums`: one reused n×n buffer of each pivot's sums
D[i, k] + D[k, j], from one BLAS product [D[:, k], 1] @ [1; D[k, :]] (a
broadcast outer sum pays numpy's per-row overhead, which costs more than
the n² additions).  `shortest_path_closure` is an in-place Floyd–Warshall;
`floyd_warshall` adds predecessors, for `polygonal_constant`'s witness
chain; `min_plus_square` is one step without the in-place update, for the
relaxation constant.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def _pivot_sums(D: np.ndarray) -> Iterator[np.ndarray]:
    """Yield, for each pivot k in ascending order, the n×n sums
    D[i, k] + D[k, j], read from D as the caller has left it.

    Each yield reuses one buffer.  The sums are exact: every entry is
    c·1 + 1·r, and c·1 and 1·r are exact, so BLAS rounds the one sum c + r
    as broadcasting does, in either order, with or without FMA.  At some
    sizes BLAS raises the `invalid` flag when an entry is inf although the
    sums it returns are exact, so that flag is ignored around the product,
    as is `overflow`: a sum past the largest float is inf, which no minimum
    keeps.
    """
    n = D.shape[0]
    lhs = np.ones((n, 2))
    rhs = np.ones((2, n))
    via = np.empty((n, n))
    for k in range(n):
        lhs[:, 0] = D[:, k]
        rhs[1] = D[k]
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(lhs, rhs, out=via)
        yield via


def shortest_path_closure(dist: np.ndarray) -> np.ndarray:
    """Min-over-chains closure of dist, as a new float array."""
    D = np.array(dist, dtype=float)
    for via in _pivot_sums(D):
        np.minimum(D, via, out=D)
    return D


def min_plus_square(dist: np.ndarray) -> np.ndarray:
    """min(dist[i, k], min over j of dist[i, j] + dist[j, k]) for each pair,
    as a new float array; with a zero diagonal, the pivots j = i and j = k
    already give dist[i, k], so this is the min-plus square of dist."""
    S = np.array(dist, dtype=float)
    for via in _pivot_sums(dist):
        np.minimum(S, via, out=S)
    return S


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
    for k, via in enumerate(_pivot_sums(D)):
        better = via < D
        if better.any():
            np.copyto(D, via, where=better)
            # a view of row k overlaps pred, so numpy would copy all of pred
            np.copyto(pred, pred[k].copy(), where=better)
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
