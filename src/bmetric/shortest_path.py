"""All-pairs shortest-path closure of a distance matrix.

`shortest_path_closure` is the kernel: an in-place Floyd–Warshall over one
n×n array, plus one reused n×n buffer of pivot sums, O(n²) memory.  Each
pivot's sums D[i, k] + D[k, j] come from one BLAS product
[D[:, k], 1] @ [1; D[k, :]]: a broadcast outer sum pays numpy's per-row
overhead, which costs more than the n² additions.  `floyd_warshall` also
records predecessors, for `polygonal_constant` alone, which reports a
witness chain.
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
    sums it returns are exact, so that flag is ignored around the product.
    """
    n = D.shape[0]
    lhs = np.ones((n, 2))
    rhs = np.ones((2, n))
    via = np.empty((n, n))
    for k in range(n):
        lhs[:, 0] = D[:, k]
        rhs[1] = D[k]
        with np.errstate(invalid="ignore"):
            np.matmul(lhs, rhs, out=via)
        yield via


def shortest_path_closure(dist: np.ndarray) -> np.ndarray:
    """Min-over-chains closure of dist, as a new float array."""
    D = np.array(dist, dtype=float)
    for via in _pivot_sums(D):
        np.minimum(D, via, out=D)
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
    for k, via in enumerate(_pivot_sums(D)):
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
