"""The one tolerance policy for the inequalities the toolkit certifies.

Every certified comparison (sandwiches, distortion bounds, relaxation
bounds) allows the same relative slack RTOL for floating-point rounding, so
"holds" means the same thing in every module.
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
    """The first True entry of a 2-D mask in row-major order, or None."""
    flat = int(np.argmax(mask))
    return divmod(flat, mask.shape[1]) if mask.flat[flat] else None


def first_violation(a: np.ndarray, b: np.ndarray) -> tuple[int, int] | None:
    """The first off-diagonal pair (i, j), in row-major order, where a <= b
    fails under :func:`within`, or None when it holds on every pair."""
    bad = ~within(a, b)
    np.fill_diagonal(bad, False)
    return first_pair(bad)
