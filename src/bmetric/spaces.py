"""Finite semimetric spaces: data model, axiom validation, generators and I/O.

A semimetric space is a finite point set with a symmetric, zero-diagonal,
positive off-diagonal distance matrix.  No triangle-type inequality is
assumed anywhere in this module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .certify import first_pair
from .shortest_path import shortest_path_closure


class StructuralError(ValueError):
    """Malformed input (shape/label problems), distinct from an axiom failure."""


@dataclass(frozen=True)
class SemimetricSpace:
    """Finite point set with a distance matrix.

    The constructor checks structure only (square matrix, unique labels,
    matching sizes).  The distance axioms are checked by :func:`validate`.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        dist = np.array(self.dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise StructuralError(f"distance matrix must be square, got shape {dist.shape}")
        if len(labels) != dist.shape[0]:
            raise StructuralError(
                f"{len(labels)} labels but matrix of order {dist.shape[0]}"
            )
        if len(labels) == 0:
            raise StructuralError("space must contain at least one point")
        if len(set(labels)) != len(labels):
            raise StructuralError("labels must be unique")
        dist.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)

    @property
    def n(self) -> int:
        return len(self.labels)

    def offdiag(self) -> np.ndarray:
        """All off-diagonal entries as a flat array (empty for n = 1)."""
        mask = ~np.eye(self.n, dtype=bool)
        return self.dist[mask]

    def diameter(self) -> float:
        return float(self.dist.max())

    def min_distance(self) -> float:
        if self.n < 2:
            return 0.0
        return float(self.offdiag().min())

    def rescale(self, factor: float) -> "SemimetricSpace":
        return SemimetricSpace(self.labels, self.dist * factor)

    def with_dist(self, dist: np.ndarray) -> "SemimetricSpace":
        return SemimetricSpace(self.labels, dist)

    # ---- file formats ----------------------------------------------------

    def to_json(self) -> str:
        """`json.dumps({"labels": ..., "matrix": ...})`."""
        return "".join(self._json_chunks())

    def _json_chunks(self) -> Iterator[str]:
        """The text of to_json() one encoded row at a time: the n² entries
        never exist as Python floats all at once, and a writer that takes
        the chunks as they come never holds the whole text."""
        yield f'{{"labels": {json.dumps(self.labels)}, "matrix": ['
        for i, row in enumerate(self.dist):
            yield (", " if i else "") + json.dumps(row.tolist())
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "SemimetricSpace":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a decode error, or an integer of over 4300 digits
            raise StructuralError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "labels" not in obj or "matrix" not in obj:
            raise StructuralError('expected object with "labels" and "matrix"')
        labels, rows = obj["labels"], obj["matrix"]
        if not isinstance(labels, list):
            raise StructuralError('"labels" must be an array')
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise StructuralError('"matrix" must be an array of arrays')
        bad = next((i for i, x in enumerate(labels) if type(x) is not str), None)
        if bad is not None:
            raise StructuralError(f"non-string label at index {bad}: {json.dumps(labels[bad])}")
        # JSON numbers only: no strings, booleans or nulls (NaN and Infinity load as floats)
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
            i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                        if type(x) not in (int, float))
            raise StructuralError(
                f"non-numeric matrix entry at ({i}, {j}): {json.dumps(rows[i][j])}")
        try:
            dist = _float_matrix(rows)
        except OverflowError:  # the first integer past the largest float is to blame
            i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                        if abs(x) > sys.float_info.max)
            raise StructuralError(f"integer too large for a float at ({i}, {j})") from None
        return cls(tuple(labels), dist)

    def to_csv(self) -> str:
        return _csv_table(self.labels, ([f"{x:.17g}" for x in row] for row in self.dist))

    @classmethod
    def from_csv(cls, text: str) -> "SemimetricSpace":
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r]
        if not rows:
            raise StructuralError("empty CSV input")
        return cls(tuple(rows[0]), _float_matrix(rows[1:]))


def _csv_table(header, rows) -> str:
    """A header row and data rows as CSV text, quoted where csv.writer quotes."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _float_matrix(rows: list[list]) -> np.ndarray:
    """Equal-length rows of numbers (or numeric strings) as a float matrix."""
    lengths = sorted({len(r) for r in rows})
    if len(lengths) > 1:
        raise StructuralError(f"ragged matrix: rows of {lengths[0]} to {lengths[-1]} entries")
    try:
        return np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"non-numeric matrix entry: {exc}") from exc


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom pass/fail with a witness index pair for each failure."""

    s1_ok: bool
    s2_ok: bool
    s1_witness: tuple[int, int] | None = None
    s2_witness: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.s1_ok and self.s2_ok


def validate(space: SemimetricSpace) -> ValidationReport:
    """Check the two semimetric axioms exactly: zero-diagonal/positive
    off-diagonal and symmetry.  A NaN or infinite distance fails the first
    axiom.  Each witness is the first failing pair in row-major order,
    diagonal entries before off-diagonal ones.
    """
    d = space.dist
    bad_diag = np.flatnonzero(~(np.abs(np.diagonal(d)) <= 0))
    if bad_diag.size:
        s1_wit = (int(bad_diag[0]),) * 2
    else:
        s1_wit = first_pair(~((d > 0) & np.isfinite(d)))
    with np.errstate(invalid="ignore"):  # inf - inf; such a space already fails S1
        s2_wit = first_pair(np.triu(np.abs(d - d.T) > 0, 1))
    return ValidationReport(s1_wit is None, s2_wit is None, s1_wit, s2_wit)


def snowflake(space: SemimetricSpace, p: float) -> SemimetricSpace:
    """Raise every distance to the power p (p > 0); axioms are preserved."""
    if p <= 0:
        raise ValueError(f"snowflake exponent must be positive, got {p}")
    if not math.isfinite(p):
        raise ValueError(f"snowflake exponent must be finite, got {p}")
    return space.with_dist(space.dist ** p)


# ---- generators ---------------------------------------------------------


def _pairwise_norms(coords: np.ndarray) -> np.ndarray:
    """n×n Euclidean distances between rows, one row at a time: O(n·N) scratch.

    A sum of squares can overflow, or lose its bits to underflow.  So a norm
    that is inf or below 2^-500 is summed again from its difference scaled
    by a power of two to a largest entry in [1/2, 1), then scaled back: the
    other norms keep their bits, and a nonzero difference gets a nonzero
    norm."""
    norms = np.empty((coords.shape[0], coords.shape[0]))
    for i, row in enumerate(coords):
        diff = row - coords
        norms[i] = np.linalg.norm(diff, axis=-1)
        redo = ~((norms[i] >= 2.0 ** -500) & (norms[i] < np.inf))
        redo[i] = False
        if redo.any():
            exp = np.frexp(np.abs(diff[redo]).max(axis=-1))[1]
            scaled = np.ldexp(diff[redo], -exp[:, None])
            norms[i, redo] = np.ldexp(np.linalg.norm(scaled, axis=-1), exp)
    return norms


def example31(n: int) -> SemimetricSpace:
    """Finite truncation {-n, ..., n} of the hub semimetric on the integers.

    The point 0 sits at distance 1 from every other integer while the
    nonzero integers keep their usual line distances.  The family's
    doubling constant grows without bound in n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    points = np.arange(-n, n + 1)
    d = np.abs(points[:, None] - points[None, :]).astype(float)
    d[n, :] = d[:, n] = 1.0
    d[n, n] = 0.0
    return SemimetricSpace(tuple(str(p) for p in points), d)


def doubling_not_weak(n: int, m: int) -> SemimetricSpace:
    """Star metric on m points joined with the naturals {1, ..., n}.

    The star (one hub at distance 1 from m-1 leaves, leaves pairwise at
    distance 2) has doubling constant growing with m.  Naturals i != j are
    at distance max(1/i, 1/j) from each other and each natural i is at
    distance 1/i from every star point.
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 naturals and a star on m >= 2 points")
    inv = 1.0 / np.arange(1, n + 1)
    d = np.empty((m + n, m + n))
    d[:m, :m] = 2.0
    d[0, :m] = d[:m, 0] = 1.0
    d[m:, m:] = np.maximum.outer(inv, inv)
    d[m:, :m] = inv[:, None]
    d[:m, m:] = inv[None, :]
    np.fill_diagonal(d, 0.0)
    labels = [f"s{i}" for i in range(m)] + [str(i) for i in range(1, n + 1)]
    return SemimetricSpace(tuple(labels), d)


def random_bmetric(n: int, K: float, seed: int = 0) -> SemimetricSpace:
    """Random space whose relaxation constant is guaranteed to be <= K.

    A random metric (shortest-path closure of random positive weights) is
    raised to a power q >= 1.  For a metric, powering by q inflates the
    relaxation constant to at most 2^(q-1), so q = 1 + log2(K) is an
    analytic ceiling; the generator searches down from it in the (never
    yet observed) event the measured constant overshoots.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 1:
        raise ValueError("relaxation target K must be >= 1")
    if not math.isfinite(K):
        raise ValueError(f"relaxation target K must be finite, got {K}")
    from .constants import relaxation_constant  # late import: constants depends on spaces

    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    base = shortest_path_closure(w)
    q = 1.0 + math.log2(K)
    for _ in range(64):
        space = SemimetricSpace(tuple(f"p{i}" for i in range(n)), base ** q)
        if relaxation_constant(space)[0] <= K:
            return space
        q = 1.0 + (q - 1.0) * 0.9
    raise RuntimeError("could not reach the requested relaxation target")


def snowflaked_grid(k: int, p: float = 1.0) -> SemimetricSpace:
    """k x k integer grid with Euclidean distances raised to the power p."""
    if k < 1:
        raise ValueError("grid side must be >= 1")
    if p <= 0:
        raise ValueError("power must be positive")
    if not math.isfinite(p):
        raise ValueError(f"power must be finite, got {p}")
    pts = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    labels = tuple(f"{i},{j}" for i in range(k) for j in range(k))
    return SemimetricSpace(labels, _pairwise_norms(pts) ** p)


def euclidean_points(n: int, dim: int = 2, seed: int = 0) -> SemimetricSpace:
    """n random Gaussian points in R^dim with Euclidean distances."""
    if n < 1 or dim < 1:
        raise ValueError("need n >= 1 points in dimension >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    return SemimetricSpace(tuple(f"p{i}" for i in range(n)), _pairwise_norms(pts))


# Family name -> generator.  The parameters of each generator, with their
# defaults, are the only `generate` flags that family reads.
FAMILIES = {
    "example31": example31,
    "doubling-not-weak": doubling_not_weak,
    "random-bmetric": random_bmetric,
    "snowflaked-grid": snowflaked_grid,
    "euclidean-points": euclidean_points,
}
