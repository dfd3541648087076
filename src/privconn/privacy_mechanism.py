"""Truncated (bounded) Laplace release of algebraic connectivity.

The second-smallest Laplacian eigenvalue of an n-node graph lives in
[0, n], and changing at most A edges moves it by at most 2A. Releasing it
under (epsilon, delta) edge differential privacy therefore uses a Laplace
density re-normalized to the support [0, n]:

    f(x) = exp(-|x - lambda2| / b) / (2 b C)          for x in [0, n]

with C the truncation normalizer. Because C itself depends on where the
density is centered, the privacy requirement couples the scale b to the
worst-case normalizer ratio over adjacent inputs, and the minimal scale
solves a one-dimensional fixed-point inequality (see solve_scale_b).

All sampling is inverse-transform from the closed-form cdf, so a seeded
generator reproduces releases bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParamsError
# spectrum is unused here; bench/tracer.py rebinds privacy_mechanism.spectrum
from .graph_core import Graph, algebraic_connectivity, spectrum  # noqa: F401

__all__ = [
    "PrivacyParams",
    "BoundedLaplaceDist",
    "PrivateRelease",
    "sensitivity_bound",
    "normalizer_C",
    "delta_C",
    "solve_scale_b",
    "privatize",
]

# Bisection bracket for the scale solve: (0, 1e4 * (2A / epsilon)].
_B_HI_FACTOR = 1e4


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) edge-privacy budget with adjacency radius A.

    Two graphs are adjacent when their edge sets differ in at most A
    pairs. delta must be strictly positive: the truncated mechanism has
    no finite scale under pure epsilon privacy.
    """

    epsilon: float
    delta: float
    A: int = 1

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise InfeasibleParamsError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InfeasibleParamsError(f"delta must lie strictly in (0, 1), got {self.delta}")
        if not isinstance(self.A, int) or self.A < 1:
            raise InfeasibleParamsError(f"adjacency radius A must be an integer >= 1, got {self.A!r}")


def sensitivity_bound(A: int) -> float:
    """Worst-case shift of lambda2 across graphs differing in <= A edges.

    Each edge edit perturbs the Laplacian by a matrix of spectral norm 2,
    so the eigenvalue moves by at most 2 per edit and 2A overall. The
    bound is tight: complete versus complete-minus-one-edge achieves a
    shift of exactly 2.
    """
    if not isinstance(A, int) or A < 1:
        raise ValueError(f"adjacency radius A must be an integer >= 1, got {A!r}")
    return 2.0 * A


def _check_scale(b: float) -> None:
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError(f"scale must be positive and finite, got {b}")


def normalizer_C(center: float, b: float, n: float) -> float:
    """Mass the unit Laplace(center, b) density keeps on [0, n].

    C = 1 - (exp(-center/b) + exp(-(n - center)/b)) / 2, computed through
    expm1 so that wide scales (b >> n, where C is tiny) keep full relative
    precision. Always in (0, 1) for center inside the domain: an infinite
    scale, which would make it 0, is rejected with the other invalid ones.

    Raises:
        ValueError: if b is not positive and finite, or center lies
            outside [0, n].
    """
    _check_scale(b)
    if not (0.0 <= center <= n):
        raise ValueError(f"center {center} outside the support [0, {n}]")
    return -0.5 * (math.expm1(-center / b) + math.expm1(-(n - center) / b))


def delta_C(b: float, A: int, n: float) -> float:
    """Worst-case normalizer ratio over adjacent releases.

    The ratio C_q'(b) / C_q(b) across centers with |q - q'| <= 2A is
    largest when q sits on the domain boundary, giving

        delta_C(b) = normalizer_C(2A, b, n) / normalizer_C(0, b, n).

    It is >= 1 whenever 2A <= n/2, tends to 2 as b -> 0 and to 1 as
    b -> infinity.

    Raises:
        InfeasibleParamsError: if the sensitivity 2A exceeds the support
            width n, in which case no truncated mechanism exists.
    """
    sens = 2.0 * A
    if sens > n:
        raise InfeasibleParamsError(
            f"sensitivity 2A = {sens} exceeds the support width n = {n}"
        )
    return normalizer_C(sens, b, n) / normalizer_C(0.0, b, n)


def _scale_is_feasible(b: float, params: PrivacyParams, n: float) -> bool:
    """Whether the scale inequality holds at b.

    The requirement is  b >= 2A / (epsilon - log delta_C(b) - log(1 - delta))
    with a positive denominator; rearranged, b * denom >= 2A. A negative
    denominator means b is too small for the budget, never that the
    inequality holds vacuously.
    """
    denom = params.epsilon - math.log(delta_C(b, params.A, n)) - math.log1p(-params.delta)
    return denom > 0.0 and b * denom >= 2.0 * params.A


def solve_scale_b(params: PrivacyParams, n: float, tol: float = 1e-6) -> float:
    """Smallest scale b meeting the (epsilon, delta) requirement on [0, n].

    The requirement is b >= g(b) for
    g(b) = 2A / (epsilon - log delta_C(b) - log(1-delta)); b times that
    denominator increases in b, so the feasible set is an upper ray.
    Bisection over (0, 1e4 * (2A / epsilon)] brackets its boundary and
    returns the upper end of the final interval: the result always
    satisfies the inequality when substituted back, with absolute
    accuracy tol.

    Raises:
        InfeasibleParamsError: if the top of the bracket is infeasible
            (reported with the bracket), or if 2A > n.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    lower, upper = 0.0, _B_HI_FACTOR * (2.0 * params.A / params.epsilon)
    if not _scale_is_feasible(upper, params, n):
        raise InfeasibleParamsError(
            f"no feasible scale in (0, {upper:g}] for {params} on [0, {n}]"
        )
    while upper - lower > tol:
        mid = 0.5 * (upper + lower)
        if _scale_is_feasible(mid, params, n):
            upper = mid
        else:
            lower = mid
    return upper


@dataclass(frozen=True)
class BoundedLaplaceDist:
    """Laplace(center, scale_b) truncated and re-normalized to [0, n].

    Provides the closed-form density, distribution function, and its
    inverse; sampling is inverse-transform and fully determined by the
    supplied generator.
    """

    center: float
    scale_b: float
    domain_upper_n: float

    def __post_init__(self):
        _check_scale(self.scale_b)
        if self.domain_upper_n <= 0.0:
            raise ValueError(f"domain width must be positive, got {self.domain_upper_n}")
        if not (0.0 <= self.center <= self.domain_upper_n):
            raise ValueError(
                f"center {self.center} outside the support [0, {self.domain_upper_n}]"
            )

    @property
    def normalizer(self) -> float:
        return normalizer_C(self.center, self.scale_b, self.domain_upper_n)

    def pdf(self, x):
        """Density at x; zero outside [0, n]. Accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        c, b, n = self.center, self.scale_b, self.domain_upper_n
        inside = (x >= 0.0) & (x <= n)
        core = np.exp(-np.abs(x - c) / b) / (2.0 * b * self.normalizer)
        out = np.where(inside, core, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Distribution function; 0 below the support and 1 above it."""
        x = np.asarray(x, dtype=float)
        c, b, n = self.center, self.scale_b, self.domain_upper_n
        C = self.normalizer
        xc = np.clip(x, 0.0, n)
        left = np.exp(-c / b) * np.expm1(xc / b) / (2.0 * C)
        right = -(np.expm1(-c / b) + np.expm1(-(xc - c) / b)) / (2.0 * C)
        out = np.where(xc < c, left, right)
        out = np.where(x < 0.0, 0.0, np.where(x > n, 1.0, out))
        return out if out.ndim else float(out)

    def inverse_cdf(self, u):
        """Quantile function on the open interval (0, 1).

        Raises:
            ValueError: if any u lies outside (0, 1).
        """
        u = np.asarray(u, dtype=float)
        if ((u <= 0.0) | (u >= 1.0)).any():
            raise ValueError("inverse_cdf requires u strictly inside (0, 1)")
        c, b, n = self.center, self.scale_b, self.domain_upper_n
        C = self.normalizer
        u_center = -math.expm1(-c / b) / (2.0 * C)
        lower = c + b * np.log(2.0 * C * u + math.exp(-c / b))
        upper = c - b * np.log(2.0 - math.exp(-c / b) - 2.0 * C * u)
        out = np.where(u <= u_center, lower, upper)
        out = np.clip(out, 0.0, n)  # guard roundoff at the support ends
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw by inverse transform; same seed, same draws."""
        u = rng.random(size=() if size is None else size)
        # rng.random covers [0, 1); redraw the (measure-zero) exact zeros
        # so the quantile function stays inside its open domain.
        mask = u == 0.0
        while mask.any():
            u[mask] = rng.random(size=int(mask.sum()))
            mask = u == 0.0
        return self.inverse_cdf(u)


@dataclass(frozen=True)
class PrivateRelease:
    """A single private observation of lambda2 plus its public mechanism stats.

    Carries everything safe to publish: the draw, the scale, the domain,
    and the budget. Never the true lambda2 nor anything computed from it,
    such as the truncation normalizer C, which is invertible in lambda2.
    """

    lambda2_tilde: float
    scale_b: float
    n: int
    params: PrivacyParams

    def as_dict(self) -> dict:
        return {
            "lambda2_tilde": self.lambda2_tilde,
            "b": self.scale_b,
            "n": self.n,
            "epsilon": self.params.epsilon,
            "delta": self.params.delta,
            "A": self.params.A,
        }


def privatize(graph: Graph, params: PrivacyParams, rng: np.random.Generator) -> PrivateRelease:
    """Release the graph's algebraic connectivity under the given budget.

    Computes lambda2 certified to 1e-9 (see algebraic_connectivity): on
    the dense route up to Cholesky backward error, about
    n eps (lambda_n + 1); on the sparse route, taken by graphs above 1024
    nodes with mean degree at most 8, from above by a Rayleigh quotient
    and from below by a pivot count whose unpivoted LU has no a-priori
    error bound. It then solves the minimal feasible scale for the
    graph's node count and draws once from the truncated Laplace
    centered at that value. Only the sparse route imports scipy.
    """
    return _release(algebraic_connectivity(graph), graph.n, params, rng)


def _release(lambda2: float, n: int, params: PrivacyParams, rng: np.random.Generator) -> PrivateRelease:
    """One draw from the truncated Laplace centered at lambda2 on [0, n],
    at the minimal feasible scale for n."""
    b = solve_scale_b(params, float(n))
    dist = BoundedLaplaceDist(center=lambda2, scale_b=b, domain_upper_n=float(n))
    return PrivateRelease(lambda2_tilde=float(dist.sample(rng)), scale_b=b, n=n, params=params)
