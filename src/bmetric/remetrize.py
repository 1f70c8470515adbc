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

from .certify import RTOL, CertificateViolation, ratio_range, sandwich_violation, within
from .constants import relaxation_constant
from .schema import Report
from .shortest_path import shortest_path_closure
from .spaces import SemimetricSpace

P_RESOLUTION = 1e-3
# the step bisection from a power-of-two bracket ends on
_GRID = 2.0 ** math.floor(math.log2(P_RESOLUTION))


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


def _chain_crossing(dist, powered, D, a, b, target) -> tuple[int, float] | None:
    """The first grid point c in (a, b) where one chain proves hi(c) > target,
    with the chain's ratio there; or None.  The chain is for the pair (i, j)
    with the largest d^p / D, walked back from j: each step takes the k != v
    that minimizes D[i, k] + d^p[k, v].  Any vertex sequence from i to j is
    a chain, so the walk stops after n steps and closes with i.  D_q(i, j)
    is at most any chain's cost: d_ij^q / sum_e d_e^q is a lower bound on
    hi(q) at every q."""
    with np.errstate(invalid="ignore"):  # the diagonal's 0 / 0
        ratios = powered / D
    np.fill_diagonal(ratios, 0.0)
    i, v = divmod(int(np.argmax(ratios)), len(D))
    walk = [v]
    while v != i and len(walk) <= len(D):
        via = D[i] + powered[v]
        via[v] = np.inf
        v = int(np.argmin(via))
        walk.append(v)
    if v != i:
        walk.append(i)
    q = np.arange(a + 1, b) * _GRID
    edges = dist[walk[:-1], walk[1:]]
    bound = dist[i, walk[0]] ** q / (edges[:, None] ** q).sum(axis=0)
    above = np.flatnonzero(bound > target * (1.0 + RTOL))
    return (a + 1 + int(above[0]), float(bound[above[0]])) if above.size else None


def epsilon_remetrize(space: SemimetricSpace, epsilon: float) -> Remetrization:
    """Find p in (0, 1] whose chain metric sandwiches d^p within 1 + epsilon.

    The search keeps a bracket [a, b] on the grid of multiples of _GRID
    that bisection from p = 1 ends on: a accepted (0 before any is), b
    rejected.  A closure decides each probe, and a rejected one gives a
    chain for its worst pair (_chain_crossing).  Where that chain's ratio
    exceeds (1 + epsilon)(1 + RTOL) inside the bracket, b moves there
    without a closure and the next probe is b - 1.  Otherwise the probe
    halves b until a point is accepted, then comes from Illinois regula
    falsi on log hi(p) - log(1 + epsilon).  Each probe is clamped so that
    bisection could still finish in the probes left, plus 3: no search
    makes more than 3 closures beyond bisection's.  The accepted end of the
    final one-step bracket is returned; if grid point 1 is rejected, the
    search halves below the grid as bisection does.  search_trace lists
    every probe in order: (p, hi), or (p, chain ratio) for a chain rejection.

    A chain rejection is sound: the closure's D_ij is at most its own float
    evaluation of the chain (rounded addition and minimum are monotone);
    that and the sum here are each within (L - 1) ulps of the L powered
    edges' sum, and each power is within a few ulps.  So a chain ratio
    above (1 + epsilon)(1 + 1e-9) means the closure rejects too.  Inside
    that margin, the closure decides.

    The result is bisection's, bit for bit: hi(p) never decreases as p grows
    (a chain whose edges are all shorter than d_ij has ratio
    1 / sum (d_e / d_ij)^p, which rises with p; a chain with a longer edge
    stays below the direct edge's ratio of 1), so the accepted grid points
    are a prefix, and both searches return its last point.  Termination is
    guaranteed on finite spaces: as p -> 0 all powered distances tend to 1
    while every proper chain sums to at least twice the minimum, so the
    direct edge eventually wins every comparison.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    target = 1.0 + epsilon
    trace: list[tuple[float, float]] = []

    def evaluate(p: float) -> tuple[np.ndarray, np.ndarray, float]:
        powered = space.dist ** p
        D = shortest_path_closure(powered)
        hi = ratio_range(powered, D)[1]
        trace.append((p, hi))
        return powered, D, hi

    def excess(hi: float) -> float:
        return math.log(hi) - math.log(target)

    a, b, fa, fb = 0, round(1.0 / _GRID), 0.0, 0.0  # grid units; the first probe is p = 1
    budget = b.bit_length() + 2  # bisection's 10 probes after p = 1, plus 3
    m, falsi, moved = b, 0, 0  # moved: +1 when the last falsi probe moved a, -1 when b
    while True:
        res, crossing = evaluate(m * _GRID), None
        if res[2] <= target:
            a, fa, best = m, excess(res[2]), res
            fb /= 2.0 if moved > 0 else 1.0  # Illinois: an end kept twice has its value halved
            moved = falsi
        else:
            b, fb = m, excess(res[2])
            fa /= 2.0 if moved < 0 else 1.0
            moved = -falsi
            powered, D, _ = res
            del res
            crossing = _chain_crossing(space.dist, powered, D, a, b, target)
            del powered, D  # a rejected probe's arrays go before the next closure
            if crossing:
                b, fb = crossing[0], excess(crossing[1])
                trace.append((b * _GRID, crossing[1]))
        if b - a <= 1:
            break
        budget -= 1
        falsi = int(bool(a) and not crossing)
        if falsi:  # fa < fb fails only on a NaN hi, or where log rounds both ends alike
            x = a + (b - a) * fa / (fa - fb) if fa < fb else (a + b) / 2
        else:  # below a chain's crossing, or halving while no point is accepted
            x = b - 1 if crossing else b / 2
        # whichever way the probe goes, b - a <= 2^budget after it
        m = min(max(math.floor(x + 0.5), a + 1, b - (1 << budget)), b - 1, a + (1 << budget))
    if a:
        return _certified(a * _GRID, epsilon, *best, trace)
    p = _GRID
    while True:  # grid point 1 is rejected: halve below the grid
        p /= 2.0
        if p < 1e-12:
            raise RuntimeError("snowflake exponent search failed to certify")
        best = evaluate(p)
        if best[2] <= target:
            return _certified(p, epsilon, *best, trace)
