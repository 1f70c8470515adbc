"""Constructive snowflake embeddings of finite metric spaces into R^N.

The construction follows the classical multi-scale recipe: a greedy net at
every dyadic-type scale, a greedy conflict coloring of each net, and signed
tent-function coordinates per (phase block, color).  All bi-Lipschitz bounds
are measured and certified pointwise rather than taken from theory, so the
construction parameters only influence the constant, never correctness.

The construction constants (scale ratio 1/3, conflict factor 3, 3 phase
blocks) were picked empirically so the embedding dimension stabilizes across
grid sizes of a fixed doubling structure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .certify import CertificateViolation, first_pair, ratio_range, sandwich_violation, within
from .constants import relaxation_constant
from .remetrize import epsilon_remetrize
from .schema import Report
from .spaces import SemimetricSpace, _csv_table, _pairwise_norms


class NonMetricError(ValueError):
    def __init__(self, K: float):
        self.relaxation_K = K
        super().__init__(f"metric input required, found relaxation constant {K}")


class DegenerateEmbeddingError(ValueError):
    """Two points got equal coordinate rows: the construction failed to
    separate them, which falsifies no bound."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"embedding degenerate: points {pair} collide")


TAU = 1.0 / 3.0  # ratio of consecutive scale radii
# Same-color net points are at least CONFLICT_FACTOR * r apart; above 2 the
# tents of radius 2r around them never overlap.
CONFLICT_FACTOR = 3.0
PHASE_BLOCKS = 3


@dataclass(frozen=True)
class ScaleInfo:
    level: int
    radius: float
    net: int  # number of net points
    colors: int


@dataclass(frozen=True)
class Embedding:
    labels: tuple[str, ...]
    coords: np.ndarray  # normalized so the distortion is symmetric around 1
    dimension: int
    alpha: float
    L_lo: float
    L_up: float
    C: float
    scales: tuple[ScaleInfo, ...] = ()

    def pairwise_norms(self) -> np.ndarray:
        return _checked_norms(self.coords)

    def to_dict(self) -> dict:
        return {
            "N": self.dimension,
            "alpha": self.alpha,
            "C": self.C,
            "L_lo": self.L_lo,
            "L_up": self.L_up,
            "injective": True,  # equal rows raise DegenerateEmbeddingError
            "config": {"alpha": self.alpha, "tau": TAU, "conflict_factor": CONFLICT_FACTOR,
                       "phase_blocks": PHASE_BLOCKS},
            "scales": [asdict(s) for s in self.scales],
        }

    def coords_csv(self) -> str:
        return _csv_table(["label"] + [f"x{i + 1}" for i in range(self.dimension)],
                          ([lab] + [f"{v:.17g}" for v in row]
                           for lab, row in zip(self.labels, self.coords)))


@dataclass(frozen=True)
class PipelineResult:
    p: float
    embedding: Embedding
    norms: np.ndarray  # pairwise distances of the embedded points, as certified
    alpha_prime: float
    C_prime: float
    stage_bound: float  # 2^alpha * C from the two-stage constant arithmetic

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "alpha_prime": self.alpha_prime,
            "C_prime": self.C_prime,
            "stage_bound": self.stage_bound,
            "embedding": self.embedding.to_dict(),
        }


@dataclass(frozen=True)
class ConverseReport(Report):
    alpha: float
    C_emp: float
    K_bound: float
    relaxation_K: float
    holds: bool


def _require_metric(space: SemimetricSpace) -> None:
    K, _ = relaxation_constant(space)
    if not within(K, 1.0):
        raise NonMetricError(K)


def _checked_norms(coords: np.ndarray) -> np.ndarray:
    """Pairwise norms of the coordinate rows.  A norm past the largest float
    is a ValueError, as it certifies nothing about the construction; the
    first zero norm, which only equal rows give, is a
    DegenerateEmbeddingError."""
    with np.errstate(over="ignore"):
        norms = _pairwise_norms(coords)
    if not np.isfinite(norms).all():
        raise ValueError("a distance between embedded points is too large for a float")
    pair = first_pair(norms == 0.0)
    if pair:
        raise DegenerateEmbeddingError(pair)
    return norms


def _net(d: np.ndarray, r: float) -> list[int]:
    """Maximal r-separated subset, scanning points in index order: a point
    joins while d[i, z] >= r for every net point z before it."""
    net: list[int] = []
    free, far = np.ones(d.shape[0], dtype=bool), np.empty(d.shape[0], dtype=bool)
    for i in range(d.shape[0]):
        if free[i]:
            net.append(i)
            free &= np.greater_equal(d[:, i], r, out=far)
    return net


def _coloring(d: np.ndarray, net: list[int], radius: float) -> dict[int, int]:
    """Greedy coloring of net points in order, each taking the least color
    that no earlier net point closer than the given radius has."""
    points = np.array(net, dtype=np.intp)
    colors = np.zeros(len(net), dtype=np.intp)
    for t, u in enumerate(net):
        used = np.zeros(t + 1, dtype=bool)
        used[colors[:t][d[u, points[:t]] < radius]] = True
        colors[t] = np.argmin(used)
    return dict(zip(net, colors.tolist()))


def bilipschitz_ratios(norms: np.ndarray, dist: np.ndarray, alpha: float) -> tuple[float, float]:
    """Min and max of ||F(x)-F(y)|| / d(x,y)^alpha over off-diagonal pairs."""
    return ratio_range(norms, dist ** alpha)


def assouad_embed(space: SemimetricSpace, alpha: float) -> Embedding:
    """Multi-scale tent-function embedding of a finite metric space, certified
    for d^alpha with alpha in (0, 1).

    Per scale r_j = TAU^j (covering the range from the diameter down to the
    smallest distance): build a greedy r_j-net, color it so same-color net
    points are at least CONFLICT_FACTOR * r_j apart, and add a signed tent
    contribution r_j^(alpha-1) * max(0, 2 r_j - d(x, z)) to the coordinate
    indexed by (j mod PHASE_BLOCKS, color).  Bounds are then measured over
    all pairs and the coordinates rescaled so the certificate is symmetric.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _require_metric(space)
    return _embed(space, alpha)[0]


def _embed(space: SemimetricSpace, alpha: float) -> tuple[Embedding, np.ndarray]:
    """assouad_embed, also returning the pairwise norms it certified, on a
    space the caller knows to be a metric."""
    n = space.n
    if n < 2:
        raise ValueError("need at least two points to embed")
    d = space.dist
    diam, dmin = space.diameter(), space.min_distance()
    lt = math.log(TAU)
    j_lo = math.floor(math.log(diam) / lt)
    j_hi = math.ceil(math.log(dmin) / lt)
    per_scale = []
    q = 1
    for j in range(j_lo, j_hi + 1):
        try:
            r = TAU ** j
        except OverflowError:
            raise ValueError(f"scale radius {TAU}^{j} is too large for a float") from None
        net = _net(d, r)
        colors = _coloring(d, net, CONFLICT_FACTOR * r)
        per_scale.append((j, r, net, colors))
        q = max(q, 1 + max(colors.values()))
    N = PHASE_BLOCKS * q
    coords = np.zeros((n, N))
    for j, r, net, colors in per_scale:
        sign = float((-1) ** (j // PHASE_BLOCKS))
        scale_factor = sign * r ** (alpha - 1.0)
        block = (j % PHASE_BLOCKS) * q
        for z in net:
            coords[:, block + colors[z]] += scale_factor * np.maximum(0.0, 2.0 * r - d[:, z])
    L_lo, L_up = bilipschitz_ratios(_checked_norms(coords), d, alpha)
    coords /= math.sqrt(L_lo * L_up)
    C = math.sqrt(L_up / L_lo)
    emb = Embedding(
        labels=space.labels,
        coords=coords,
        dimension=N,
        alpha=alpha,
        L_lo=L_lo,
        L_up=L_up,
        C=C,
        scales=tuple(
            ScaleInfo(j, r, len(net), 1 + max(colors.values())) for j, r, net, colors in per_scale
        ),
    )
    return emb, _certify(emb, d)


def _certify(emb: Embedding, dist: np.ndarray) -> np.ndarray:
    """Check d^alpha / C <= ||F(x)-F(y)|| <= C d^alpha on every pair of
    distinct points; returns the pairwise norms it checked."""
    norms = emb.pairwise_norms()
    powered = dist ** emb.alpha
    bad = sandwich_violation(powered / emb.C, norms, powered * emb.C)
    if bad:
        raise CertificateViolation(f"bi-Lipschitz certificate failed at pair {bad[0]}")
    return norms


def bmetric_assouad_pipeline(space: SemimetricSpace, alpha: float) -> PipelineResult:
    """Two-stage embedding of an arbitrary finite semimetric space.

    Stage 1 finds p in (0, 1] whose chain metric D sandwiches d^p within a
    factor 2; stage 2 embeds (X, D) with the requested exponent.  The result
    is certified pointwise for d^(p*alpha), and the measured constant is
    cross-checked against the 2^alpha * C arithmetic of the two stages.
    """
    if not 0 < alpha < 1:  # before the remetrization search, which is the slow part
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    rem = epsilon_remetrize(space, 1.0)  # certifies D <= d^p <= 2D
    # D is a shortest-path closure, so a metric up to rounding; the result is
    # certified against d^(p*alpha) below, so stage 2 does not re-check it
    emb, norms = _embed(space.with_dist(rem.D), alpha)
    alpha_prime = rem.p * alpha
    L_lo, L_up = bilipschitz_ratios(norms, space.dist, alpha_prime)
    C_prime = max(L_up, 1.0 / L_lo)
    stage_bound = 2.0 ** alpha * emb.C
    if not within(C_prime, stage_bound):
        raise CertificateViolation(
            f"measured pipeline constant {C_prime} exceeds stage arithmetic {stage_bound}"
        )
    return PipelineResult(
        p=rem.p,
        embedding=emb,
        norms=norms,
        alpha_prime=alpha_prime,
        C_prime=C_prime,
        stage_bound=stage_bound,
    )


def converse_bound(
    space: SemimetricSpace, target_dist: np.ndarray, alpha: float
) -> ConverseReport:
    """Bound the relaxation constant from a bi-Lipschitz embedding of d^alpha.

    Any space admitting such an embedding into a metric space satisfies the
    relaxed triangle inequality with constant 2^(1/alpha) * C^(2/alpha); this
    reports the measured C of the identity correspondence into target_dist and
    checks the implied bound against the actual relaxation constant.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    target = np.asarray(target_dist, dtype=float)
    if target.shape != space.dist.shape:
        raise ValueError("target matrix must match the space")
    L_lo, L_up = bilipschitz_ratios(target, space.dist, alpha)
    if L_lo <= 0:
        raise ValueError("target distance collapses a pair of distinct points")
    C_emp = math.sqrt(L_up / L_lo)
    try:
        K_bound = 2.0 ** (1.0 / alpha) * C_emp ** (2.0 / alpha)
    except OverflowError:
        K_bound = math.inf
    if not math.isfinite(K_bound):
        raise ValueError(f"bound 2^(1/{alpha}) * {C_emp}^(2/{alpha}) is too large for a float")
    K, _ = relaxation_constant(space)
    return ConverseReport(
        alpha=alpha,
        C_emp=C_emp,
        K_bound=K_bound,
        relaxation_K=K,
        holds=within(K, K_bound),
    )
