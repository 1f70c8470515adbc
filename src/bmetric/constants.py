"""Structural constants classifying a finite semimetric space.

The relaxation constant is the worst ratio d(x,z) / (d(x,y) + d(y,z)) over
ordered triples of distinct points; the relaxed-polygonal constant is the
worst ratio of a distance to its shortest-chain replacement.  Both are 1
exactly when the space is a metric space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import within
from .schema import Report
from .shortest_path import floyd_warshall, reconstruct_chain
from .spaces import SemimetricSpace


@dataclass(frozen=True)
class ConstantsReport(Report):
    relaxation_K: float
    polygonal_c: float
    is_metric: bool
    witness_triple: tuple[str, ...] | None
    witness_chain: tuple[str, ...]


def max_triple_ratio(dist: np.ndarray) -> tuple[float, tuple[int, int, int] | None]:
    """Largest d[i,k] / (d[i,j] + d[j,k]) over ordered triples of distinct
    indices, with the lexicographically smallest attaining triple."""
    n = dist.shape[0]
    if n <= 2:
        return 0.0, None
    # One n×n slab ratio[j, k] per first index i: O(n²) memory.  argmax over
    # the slab maxima, then within the slab, finds the first maximum in C
    # order of the n×n×n array, i.e. the lexicographically smallest triple.
    maxima = np.empty(n)
    where = np.empty(n, dtype=np.intp)
    for i in range(n):
        ratio = dist + dist[i, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dist[i], ratio, out=ratio)
        ratio[i, :] = -np.inf
        ratio[:, i] = -np.inf
        np.fill_diagonal(ratio, -np.inf)
        where[i] = np.argmax(ratio)
        maxima[i] = ratio.flat[where[i]]
    i = int(np.argmax(maxima))
    j, k = divmod(int(where[i]), n)
    return float(maxima[i]), (i, j, k)


def relaxation_constant(space: SemimetricSpace) -> tuple[float, tuple[int, int, int] | None]:
    """Smallest K >= 1 such that d(x,z) <= K (d(x,y) + d(y,z)) for all
    triples, with the witness triple when K > 1 (None when clamped to 1)."""
    ratio, wit = max_triple_ratio(space.dist)
    if ratio <= 1.0:
        return 1.0, None
    return ratio, wit


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
