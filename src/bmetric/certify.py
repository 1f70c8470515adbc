"""The one certification layer: which pairs a certificate covers, how a
failure is named, and the tolerance policy for the inequalities it certifies.

Every certified comparison (sandwiches, distortion bounds, relaxation
bounds) allows the same relative slack RTOL for floating-point rounding, so
"holds" means the same thing in every module.  A pairwise certificate covers
the pairs of distinct points and names the first failure in row-major order.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


class CertificateViolation(Exception):
    """A certified inequality failed on this instance: a falsification finding."""


def within(a, b):
    """a <= b up to the relative slack RTOL, for scalars or arrays (NaN fails)."""
    return a <= b * (1.0 + RTOL)


def first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """The first True entry off the diagonal of a square mask, in row-major
    order, or None.  Clears the mask's diagonal in place."""
    np.fill_diagonal(mask, False)
    flat = int(np.argmax(mask))
    return divmod(flat, mask.shape[1]) if mask.flat[flat] else None


def sandwich_violation(lo, mid, hi) -> tuple[tuple[int, int], bool] | None:
    """The first off-diagonal pair where lo <= mid <= hi fails under :func:`within`,
    and whether its low side failed there (named first when both do), or None."""
    low = ~within(lo, mid)
    pair = first_pair(low | ~within(mid, hi))
    return None if pair is None else (pair, bool(low[pair]))


def ratio_range(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Min and max of a / b over off-diagonal pairs; (1.0, 1.0) below two points."""
    n = len(a)
    if n < 2:
        return 1.0, 1.0
    # The flat entries after the first, in rows of n + 1, each end with the next
    # diagonal entry: without that column they are the off-diagonal ones, as views.
    a, b = (m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1] for m in (a, b))
    ratios = a / b
    return float(ratios.min()), float(ratios.max())
