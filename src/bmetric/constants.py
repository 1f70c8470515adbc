"""Structural constants classifying a finite semimetric space.

The relaxation constant is the worst ratio d(x,z) / (d(x,y) + d(y,z)) over
ordered triples of distinct points; the relaxed-polygonal constant is the
worst ratio of a distance to its shortest-chain replacement.  Both are 1
exactly when the space is a metric space.  The first divides d by its
min-plus square, the second by its closure, both from `shortest_path`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import within
from .schema import Report
from .shortest_path import floyd_warshall, min_plus_square, reconstruct_chain
from .spaces import SemimetricSpace


@dataclass(frozen=True)
class ConstantsReport(Report):
    relaxation_K: float
    polygonal_c: float
    is_metric: bool
    witness_triple: tuple[str, ...] | None
    witness_chain: tuple[str, ...]


def relaxation_constant(space: SemimetricSpace) -> tuple[float, tuple[int, int, int] | None]:
    """Smallest K >= 1 such that d(x,z) <= K (d(x,y) + d(y,z)) for all
    triples, with the lexicographically smallest witness triple when K > 1
    (None when clamped to 1)."""
    d, n = space.dist, space.n
    # Correctly rounded division by a positive number is monotone, so
    # d[i,k] / min_j (d[i,j] + d[j,k]) is max_j d[i,k] / (d[i,j] + d[j,k])
    # exactly; j = i and j = k give the ratio 1, which is the clamp.
    ratio = min_plus_square(d)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
        np.divide(d, ratio, out=ratio)
    np.fill_diagonal(ratio, -np.inf)
    flat = int(np.argmax(ratio))
    K = float(ratio.flat[flat])
    if K <= 1.0:
        return 1.0, None
    # The witness's i is the first row holding K, and (j, k) the first K in
    # C order of its slab d[i,k] / (d[i,j] + d[j,k]).  Entries with j or k
    # equal to i, or j = k, are at most 1 < K, except 0/0 at j = k = i.
    i = flat // n
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(d, d[i, :, None], out=ratio)
        np.divide(d[i], ratio, out=ratio)
    ratio[i, i] = -np.inf
    j, k = divmod(int(np.argmax(ratio)), n)
    return K, (i, j, k)


def polygonal_constant(space: SemimetricSpace) -> tuple[float, list[int]]:
    """Smallest c such that every distance is at most c times the cheapest
    chain between its endpoints; returns c and the minimizing chain of the
    maximizing pair."""
    d = space.dist
    n = space.n
    if n < 2:
        return 1.0, [0]
    D, pred = floyd_warshall(d)
    mask = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, d / D, -np.inf)
    flat = int(np.argmax(ratio))
    i, j = np.unravel_index(flat, ratio.shape)
    return float(ratio[i, j]), reconstruct_chain(pred, int(i), int(j))


def constants_report(space: SemimetricSpace) -> ConstantsReport:
    K, triple = relaxation_constant(space)
    c, chain = polygonal_constant(space)
    return ConstantsReport(
        relaxation_K=K,
        polygonal_c=c,
        is_metric=within(K, 1.0),
        witness_triple=tuple(space.labels[i] for i in triple) if triple else None,
        witness_chain=tuple(space.labels[i] for i in chain),
    )
