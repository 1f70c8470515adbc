"""Remetrization of b-metric spaces via the chain (shortest-path) metric.

Three entry points: the plain chain metric (which sandwiches the original
distance within its polygonal constant), a verifier for the squared-constant
bound available when the relaxation constant is at most 2, and a search for
a snowflake exponent p whose chain metric sandwiches d^p within 1 + epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import CertificateViolation, ratio_range, sandwich_violation, within
from .constants import relaxation_constant
from .schema import Report
from .shortest_path import shortest_path_closure
from .spaces import SemimetricSpace

P_RESOLUTION = 1e-3


class FrinkPreconditionError(ValueError):
    """Raised when the squared-constant bound is requested for K > 2."""

    def __init__(self, K: float):
        self.relaxation_K = K
        super().__init__(f"relaxation constant <= 2 required, found {K}")


@dataclass(frozen=True)
class Remetrization:
    """A certified metric D with D <= d^p <= sandwich_hi * D pointwise."""

    p: float
    epsilon_target: float | None
    D: np.ndarray
    sandwich_hi: float
    search_trace: tuple[tuple[float, float], ...] = ()

    @property
    def method(self) -> str:
        return "chain" if self.p == 1.0 else "chain_after_snowflake"

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "epsilon": self.epsilon_target,
            # max D/d^p is 1 for n >= 2: the closure never exceeds d^p, and keeps
            # the direct edge of the closest pair, since any longer chain sums to
            # at least twice the smallest distance
            "sandwich_lo": 1.0,
            "sandwich_hi": self.sandwich_hi,
            "D": self.D.tolist(),
            "method": self.method,
            "search_trace": [{"p": p, "c": c} for p, c in self.search_trace],
        }


@dataclass(frozen=True)
class FrinkCertificate(Report):
    relaxation_K: float
    worst_ratio: float
    bound: float
    holds: bool


def _certified(p, epsilon, powered, D, hi, trace) -> Remetrization:
    """The Remetrization, once D <= d^p <= hi * D holds on every pair of
    distinct points; raise CertificateViolation naming the first pair where
    either side fails."""
    bad = sandwich_violation(D, powered, hi * D)
    if bad:
        pair, low = bad
        claim = "D > d^p" if low else f"d^p > {hi} * D"
        raise CertificateViolation(f"remetrization sandwich violated: {claim} at pair {pair}")
    return Remetrization(p, epsilon, D, hi, tuple(trace))


def chain_metric(space: SemimetricSpace) -> Remetrization:
    """Shortest-path closure of d: always a metric, always below d, and
    above d / c where c is the polygonal constant."""
    D = shortest_path_closure(space.dist)
    hi = ratio_range(space.dist, D)[1]
    return _certified(1.0, None, space.dist, D, hi, [(1.0, hi)])


def frink_verify(space: SemimetricSpace) -> FrinkCertificate:
    """Certify d <= K^2 * D pointwise for the chain metric D (needs K <= 2).

    A violation would falsify the squared-constant bound for the chain
    construction and is reported rather than hidden.
    """
    K, _ = relaxation_constant(space)
    if not within(K, 2.0):
        raise FrinkPreconditionError(K)
    rem = chain_metric(space)
    bound = K * K
    holds = within(rem.sandwich_hi, bound)
    return FrinkCertificate(relaxation_K=K, worst_ratio=rem.sandwich_hi, bound=bound, holds=holds)


def epsilon_remetrize(space: SemimetricSpace, epsilon: float) -> Remetrization:
    """Find p in (0, 1] whose chain metric sandwiches d^p within 1 + epsilon.

    Strategy: halve p from 1 until the certificate holds, then bisect toward
    the largest certified p, stopping once it is within P_RESOLUTION of the
    smallest rejected p.  Termination is guaranteed on finite spaces: as
    p -> 0 all powered distances tend to 1 while every proper chain sums to
    at least twice the minimum, so the direct edge eventually wins every
    comparison.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    target = 1.0 + epsilon
    trace: list[tuple[float, float]] = []

    def evaluate(p: float) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(d^p, D, hi) when hi meets the target; None drops a rejected p's arrays."""
        powered = space.dist ** p
        D = shortest_path_closure(powered)
        hi = ratio_range(powered, D)[1]
        trace.append((p, hi))
        return (powered, D, hi) if hi <= target else None

    p_bad = best_p = 1.0
    while True:
        best = evaluate(best_p)
        if best:
            break
        p_bad = best_p
        best_p /= 2.0
        if best_p < 1e-12:
            raise RuntimeError("snowflake exponent search failed to certify")
    while p_bad - best_p > P_RESOLUTION:
        mid = (best_p + p_bad) / 2.0
        res = evaluate(mid)
        if res:
            best_p, best = mid, res
        else:
            p_bad = mid
    return _certified(best_p, epsilon, *best, trace)
