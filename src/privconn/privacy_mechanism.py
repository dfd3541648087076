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

# The scale solve brackets its root in (0, 1e4 * (2A / epsilon)], checking
# the top first, and aims 1e-12 relative above 2A (see solve_scale_b).
_B_HI_FACTOR = 1e4
_SCALE_MARGIN = 1e-12


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
        ValueError: if A is not an integer >= 1.
        InfeasibleParamsError: if the sensitivity 2A exceeds the support
            width n, in which case no truncated mechanism exists.
    """
    sens = sensitivity_bound(A)
    if sens > n:
        raise InfeasibleParamsError(
            f"sensitivity 2A = {sens} exceeds the support width n = {n}"
        )
    return normalizer_C(sens, b, n) / normalizer_C(0.0, b, n)


def _bracket_root(h, lo: float, hi: float, h_lo: float, h_hi: float, tol: float):
    """(lo, hi), at most tol apart, around the one sign change of h.

    h goes from h(lo) = h_lo < 0 to h(hi) = h_hi >= 0; the end values are
    passed in, so either may be a limit that is never evaluated. Each
    step is Illinois regula falsi: the secant through the ends, with the
    value at an end kept twice in a row halved. The secant point stays at
    least 2^-20 of the bracket inside it, since an end sitting on the root
    to rounding would otherwise pin every later point to itself; a point
    that still lands on an end becomes the midpoint. No step depends on
    tol, so a tighter tol runs the same iterates further.
    """
    moved = 0  # +1 after the low end moved, -1 after the high end moved
    while hi - lo > tol:
        x = hi - h_hi * (hi - lo) / (h_hi - h_lo)
        inset = (hi - lo) * 2.0**-20
        x = min(max(x, lo + inset), hi - inset)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # lo and hi are adjacent floats
                break
        hx = h(x)
        if hx >= 0.0:
            hi, h_hi = x, hx
            if moved < 0:
                h_lo *= 0.5
            moved = -1
        else:
            lo, h_lo = x, hx
            if moved > 0:
                h_hi *= 0.5
            moved = 1
    return lo, hi


def solve_scale_b(params: PrivacyParams, n: float, tol: float = 1e-6) -> float:
    """Smallest scale b meeting the (epsilon, delta) requirement on [0, n].

    The requirement is b >= 2A / (epsilon - log delta_C(b) - log(1 - delta))
    with a positive denominator, that is h(b) >= 0 for
    h(b) = b (epsilon - log delta_C(b) - log(1 - delta)) - 2A; a negative
    denominator means b is too small, never that the inequality holds
    vacuously. h tends to -2A as b -> 0 and changes sign once, so the
    feasible set is an upper ray. _bracket_root narrows its boundary to a
    bracket in (0, 1e4 * (2A / epsilon)] at most tol wide, in at most
    about ten delta_C calls, and the bracket's feasible upper end is
    returned: within tol of the smallest feasible scale.

    h is taken against 2A (1 + 1e-12). That margin is far above the
    rounding error of h, so the returned scale meets the inequality in
    exact arithmetic, not just as rounded, and b moves by about 1e-12
    relative.

    Raises:
        ValueError: if tol is not positive and finite.
        InfeasibleParamsError: if the top of the bracket is infeasible
            (reported with the bracket), or if 2A > n.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    sens = sensitivity_bound(params.A)
    target = sens * (1.0 + _SCALE_MARGIN)

    def h(b: float) -> float:
        denom = params.epsilon - math.log(delta_C(b, params.A, n)) - math.log1p(-params.delta)
        return b * denom - target

    upper = _B_HI_FACTOR * (sens / params.epsilon)
    h_upper = h(upper)
    if not h_upper >= 0.0:
        raise InfeasibleParamsError(
            f"no feasible scale in (0, {upper:g}] for {params} on [0, {n}]"
        )
    # h(0) = -target is a limit: delta_C is never evaluated at b = 0
    return _bracket_root(h, 0.0, upper, -target, h_upper, tol)[1]


@dataclass(frozen=True)
class BoundedLaplaceDist:
    """Laplace(center, scale_b) truncated and re-normalized to [0, n].

    Provides the closed-form distribution function and its inverse;
    sampling is inverse-transform and fully determined by the supplied
    generator.
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

    def cdf(self, x):
        """Distribution function; 0 below the support and 1 above it.

        Each branch is evaluated on its own side of the centre, where its
        exponents are <= 0, so a steep law (x/b past exp's range) neither
        overflows nor warns.
        """
        x = np.asarray(x, dtype=float)
        c, b, n = self.center, self.scale_b, self.domain_upper_n
        C = self.normalizer
        xc = np.clip(x, 0.0, n)
        xl, xr = np.minimum(xc, c), np.maximum(xc, c)
        left = -np.exp((xl - c) / b) * np.expm1(-xl / b) / (2.0 * C)
        right = -(np.expm1(-c / b) + np.expm1(-(xr - c) / b)) / (2.0 * C)
        out = np.where(xc < c, left, right)
        out = np.where(x < 0.0, 0.0, np.where(x > n, 1.0, out))
        return out if out.ndim else float(out)

    def inverse_cdf(self, u):
        """Quantile function on the open interval (0, 1).

        Raises:
            ValueError: if any u lies outside (0, 1), NaN included.
        """
        u = np.asarray(u, dtype=float)
        if not ((u > 0.0) & (u < 1.0)).all():
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
        # rng.random covers [0, 1); redraw the (measure-zero) exact zeros,
        # in order, from the same stream, so the quantile function stays
        # inside its open domain.
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


def privatize(graph: Graph, params: PrivacyParams, rng: np.random.Generator) -> PrivateRelease:
    """Release the graph's algebraic connectivity under the given budget.

    Computes lambda2 certified to 1e-9 by algebraic_connectivity, whose
    docstring says which route a graph takes and what each check proves,
    then solves the minimal feasible scale for n and draws once from the
    truncated Laplace centered at that value.
    """
    return _release(algebraic_connectivity(graph), graph.n, params, rng)


def _release(lambda2: float, n: int, params: PrivacyParams, rng: np.random.Generator) -> PrivateRelease:
    """One draw from the truncated Laplace centered at lambda2 on [0, n],
    at the minimal feasible scale for n."""
    b = solve_scale_b(params, float(n))
    dist = BoundedLaplaceDist(center=lambda2, scale_b=b, domain_upper_n=float(n))
    return PrivateRelease(lambda2_tilde=float(dist.sample(rng)), scale_b=b, n=n, params=params)
