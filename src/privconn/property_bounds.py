"""Graph-property bounds computed from a connectivity value.

Given any value of the algebraic connectivity (the exact one, a private
draw, or its expectation under the release mechanism) together with the
largest Laplacian eigenvalue, these functions sandwich the diameter and
the mean pairwise distance, and lower-bound the minimum degree. The
sandwich is guaranteed only when the exact connectivity goes in; fed a
released value it is a plug-in estimate, not a certificate.

The upper bounds carry a free log base alpha > 1 from the underlying
eigenvalue argument. The diameter's best base is one universal constant;
the mean distance's is searched per call, as the sign change of the
bound's derivative (see _best_base). Expected-value variants average the
relevant functionals of the private draw in closed form, so utility can
be judged before anything is released.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .privacy_mechanism import _bracket_root, normalizer_C

__all__ = [
    "PropertyBoundReport",
    "exact_bounds",
    "expected_lambda2",
    "expected_inv_sqrt_lambda2",
    "expected_bounds",
    "min_degree_inference",
]

_ALPHA_LO = 1.0 + 1e-6
_ALPHA_HI = 1e3


def _check_alpha(alpha: float) -> None:
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise ValueError(f"log base alpha must be a finite number > 1, got {alpha}")


def _check_pair(lambda2: float, lambda_n: float, n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if not (lambda2 > 0.0 and math.isfinite(lambda2)):
        raise ValueError(f"connectivity value must be positive and finite, got {lambda2}")
    if not math.isfinite(lambda_n):
        raise ValueError(f"largest eigenvalue must be finite, got {lambda_n}")
    if lambda_n < lambda2:
        raise ValueError(
            f"largest eigenvalue {lambda_n} below connectivity {lambda2}; "
            "arguments are probably swapped"
        )


def _spread_factor(alpha: float) -> float:
    # sqrt((alpha^2 - 1) / (4 alpha)), the per-level expansion cost
    return math.sqrt((alpha * alpha - 1.0) / (4.0 * alpha))


def _log_levels(n: int, alpha: float) -> float:
    return math.log(n / 2.0) / math.log(alpha)


def _mean_distance_upper(S: float, n: int, alpha: float) -> float:
    levels = _log_levels(n, alpha)
    return (S * _spread_factor(alpha) + 1.0) * (n / (n - 1.0)) * (0.5 + levels)


def _log_slope(alpha: float, K: float) -> float:
    # alpha K'(alpha) ln(alpha) for K = _spread_factor(alpha), using
    # K'(alpha) = (alpha^2 + 1) / (8 alpha^2 K)
    return (alpha * alpha + 1.0) / (8.0 * alpha * K) * math.log(alpha)


def _rho_slope(alpha: float, S: float, ell: float) -> float:
    """d/dalpha of _mean_distance_upper(S, n, alpha), with ell = ln(n/2),
    times the positive alpha ln^2(alpha) (n - 1) / n:

        S K'(alpha) alpha ln(alpha) (ln(alpha)/2 + ell) - (S K(alpha) + 1) ell

    with K the spread factor. The factor keeps it finite as alpha -> 1,
    where it tends to -ell, and leaves its sign unchanged.
    """
    K = _spread_factor(alpha)
    return S * _log_slope(alpha, K) * (0.5 * math.log(alpha) + ell) - (S * K + 1.0) * ell


def _best_base(slope, objective) -> float:
    """Base minimizing an upper-bound objective over [1 + 1e-6, 1e3].

    slope has the sign of the objective's derivative, which changes at
    most once, from - to +, on that interval (tested over a grid of S and
    n, not proved). Its sign change is bracketed to 1e-6 and the middle of
    the bracket taken; where it keeps one sign, the end it points to. The
    conventional choices 2 and e stay as fallback candidates.
    """
    lo, hi = _ALPHA_LO, _ALPHA_HI
    g_lo, g_hi = slope(lo), slope(hi)
    if g_lo >= 0.0:
        found = lo
    elif g_hi < 0.0:
        found = hi
    else:
        lo, hi = _bracket_root(slope, lo, hi, g_lo, g_hi, 1e-6)
        found = 0.5 * (lo + hi)
    return min([found, 2.0, math.e], key=objective)


# The diameter upper bound 2 + 2 S log(n/2) K(alpha)/log(alpha) scales one
# function of alpha for every (S, n); at n = 2 it is 2 for any base. Its
# derivative times alpha ln^2(alpha) is K'(alpha) alpha ln(alpha) - K(alpha).
_ALPHA_D = _best_base(
    lambda alpha: _log_slope(alpha, _spread_factor(alpha)) - _spread_factor(alpha),
    lambda alpha: _spread_factor(alpha) / math.log(alpha),
)


def _alpha_rho(S: float, n: int) -> float:
    ell = math.log(n / 2.0)
    return _best_base(
        lambda alpha: _rho_slope(alpha, S, ell),
        lambda alpha: _mean_distance_upper(S, n, alpha),
    )


@dataclass(frozen=True)
class PropertyBoundReport:
    """Sandwich on diameter (d) and mean distance (rho).

    mode records whether the bounds plug in a known connectivity value
    ("exact") or average over the release mechanism ("expected"). The
    bounds hold for the graph only when that value is its exact lambda2;
    plugged with a released draw they are estimates. b is
    the mechanism scale in the latter case, None otherwise. alpha_d and
    alpha_rho are the log bases used by the two upper bounds, optimized
    separately unless the caller pinned one base for both.
    """

    d_lower: float
    d_upper: float
    rho_lower: float
    rho_upper: float
    alpha_d: float
    alpha_rho: float
    mode: str
    lambda2: float
    lambda_n: float
    n: int
    b: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _sandwich(
    S: float, inv_lambda2: float, n: int, alpha: float | None, **meta
) -> PropertyBoundReport:
    """The report for spread S = sqrt(lambda_n / lambda2) and 1/lambda2
    (or their expectations); alpha, when given, is both bounds' base, and
    when None each base is optimized for its own bound. meta carries the
    remaining report fields."""
    if alpha is None:
        alpha_d, alpha_rho = _ALPHA_D, _alpha_rho(S, n)
    else:
        alpha_d = alpha_rho = alpha
    return PropertyBoundReport(
        d_lower=4.0 * inv_lambda2 / n,
        d_upper=2.0 * S * _spread_factor(alpha_d) * _log_levels(n, alpha_d) + 2.0,
        rho_lower=2.0 * inv_lambda2 / (n - 1.0) + (n - 2.0) / (2.0 * (n - 1.0)),
        rho_upper=_mean_distance_upper(S, n, alpha_rho),
        alpha_d=alpha_d,
        alpha_rho=alpha_rho,
        n=n,
        **meta,
    )


def exact_bounds(
    lambda2: float, lambda_n: float, n: int, alpha: float | None = None
) -> PropertyBoundReport:
    """Plug-in sandwich for a known connectivity value (exact or a draw).

    With alpha None each upper bound's log base is optimized for that
    bound: the diameter's is one universal base (about 6.787), the mean
    distance's is searched per call in about ten evaluations, and neither
    is worse than the conventional choices 2 and e. A given alpha is
    both bounds' base.
    """
    _check_pair(lambda2, lambda_n, n)
    if alpha is not None:
        _check_alpha(alpha)
    S = math.sqrt(lambda_n / lambda2)
    return _sandwich(S, 1.0 / lambda2, n, alpha, mode="exact", lambda2=lambda2, lambda_n=lambda_n)


# The release's moments need P(2, z), erfcx and Dawson's integral. They
# are written out with math alone because importing them from scipy would
# cost every bounds and validate command about 0.2 s and 24 MB; scipy
# stays for the sparse lambda2 route only. TestScaledSpecialFunctions
# checks each branch against mpmath over z in [1e-12, 800] and x in
# [1e-8, 1e4], the floats next to each switch included.
_ERFCX_TERMS = 18
_SQRT_PI = math.sqrt(math.pi)
# Rybicki's sampling sum for Dawson's integral: a step of h = 1/4 leaves a
# relative error of e^{-(pi/2h)^2} = 7e-18, and the weights of the first
# pair left out are below 1e-21
_DAWSON_H = 0.25
_DAWSON_WEIGHTS = tuple(math.exp(-(((2 * i + 1) * _DAWSON_H) ** 2)) for i in range(14))


def _gamma2(z: float) -> float:
    """P(2, z) = 1 - (1 + z) e^{-z}, the regularized incomplete gamma
    function of order 2, for z >= 0."""
    if z >= 1.0:
        return -math.expm1(math.log1p(z) - z) if z < math.inf else 1.0
    # sum over k >= 2 of (k - 1) (-z)^k / k!, alternating and shrinking
    term, total, k = 0.5 * z * z, 0.0, 2
    while True:
        part = (k - 1) * term
        total += part
        if abs(part) <= 1e-17 * total:
            return total
        k += 1
        term *= -z / k


def _erfcx(x: float) -> float:
    """e^{x^2} erfc(x) for x >= 0."""
    if x < 5.0:
        return math.exp(x * x) * math.erfc(x)
    # Laplace's continued fraction 1/(x + (1/2)/(x + (2/2)/(x + ...))),
    # from the bottom up; 18 terms leave 2e-18 at x = 5 and less beyond
    f = x
    for k in range(_ERFCX_TERMS, 0, -1):
        f = x + 0.5 * k / f
    return 1.0 / (_SQRT_PI * f)


def _dawson(x: float) -> float:
    """Dawson's integral e^{-x^2} times the integral of e^{t^2} over
    [0, x], for x >= 0."""
    if x < 1.0:
        # e^{-x^2} sum over k of x^(2k+1) / (k! (2k+1)), every term positive
        x2 = x * x
        term = total = x
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= x2 / k
            total += term / (2 * k + 1)
        return math.exp(-x2) * total
    if x == math.inf:
        return 0.0
    # pi^{-1/2} sum over odd m of e^{-(x - m h)^2} / m, taken over the 14
    # odd m on each side of the even n0 nearest x/h; |x - n0 h| <= h keeps
    # every factor e^{2 (x - n0 h) h m} within e^{+-3.4}
    n0 = 2 * round(0.5 * x / _DAWSON_H)
    xp = x - n0 * _DAWSON_H
    e1 = math.exp(2.0 * xp * _DAWSON_H)
    e2 = e1 * e1
    d1, d2, total = n0 + 1, n0 - 1, 0.0
    for w in _DAWSON_WEIGHTS:
        total += w * (e1 / d1 + 1.0 / (d2 * e1))
        d1, d2, e1 = d1 + 2, d2 - 2, e1 * e2
    return total * math.exp(-xp * xp) / _SQRT_PI


def expected_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of the private draw: pulled toward n/2 by the truncation.

    lambda2 + b (P(2, (n - lambda2)/b) - P(2, lambda2/b)) / (2 C), with
    P(2, z) = 1 - (1 + z) e^{-z} the regularized incomplete gamma
    function (_gamma2: a series below z = 1, -expm1(log1p(z) - z) above,
    within 6.4e-16 of mpmath). It keeps full precision at every b/n, where
    the expanded form's terms of size b cancel to order n once b >> n (1%
    wrong at b/n = 1e7). Equals lambda2 exactly when lambda2 = n/2; the
    bias vanishes as b -> 0 and saturates to n/2 as b -> infinity.
    """
    C = normalizer_C(lambda2, b, n)
    above, below = _gamma2((n - lambda2) / b), _gamma2(lambda2 / b)
    return lambda2 + b * (above - below) / (2.0 * C)


def expected_inv_sqrt_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of 1/sqrt(private draw), in closed form.

    The integral splits at the center into a Dawson-function piece (below)
    and a difference of upper incomplete gamma functions (above). While
    b < n the latter is evaluated in exponentially scaled form, e^x
    Gamma(1/2, x) being sqrt(pi) erfcx(sqrt(x)), so no intermediate
    overflows. For b >= n both arguments are at most 1 and that difference
    of two near-equal erfcx values cancels (1e-11 relative at b/n = 1e9),
    so it is taken as e^{lambda2/b} (erf(sqrt(n/b)) - erf(sqrt(lambda2/b)))
    instead. _dawson sums its positive Taylor series below x = 1 and
    Rybicki's sampling sum above (within 8.8e-16 of mpmath); _erfcx is
    e^{x^2} erfc(x) below x = 5 and Laplace's continued fraction above
    (within 2.1e-15). Finite even though the draw can touch 0, because the
    density is bounded there.
    """
    C = normalizer_C(lambda2, b, n)
    if lambda2 > 0.0 and math.isinf(lambda2 / b):
        return 1.0 / math.sqrt(lambda2)  # the limit as b -> 0; both pieces underflow
    a, c = math.sqrt(lambda2 / b), math.sqrt(n / b)
    below = 2.0 * _dawson(a)
    if b >= n:
        above = _SQRT_PI * math.exp(lambda2 / b) * (math.erf(c) - math.erf(a))
    else:
        above = _SQRT_PI * (_erfcx(a) - math.exp(-(n - lambda2) / b) * _erfcx(c))
    return (below + above) / (2.0 * math.sqrt(b) * C)


def expected_bounds(lambda2: float, b: float, lambda_n: float, n: int) -> PropertyBoundReport:
    """Distance sandwich averaged over the release mechanism.

    Upper bounds replace sqrt(lambda_n/lambda2) by
    sqrt(lambda_n) * E[1/sqrt(draw)], lower bounds replace 1/lambda2 by
    1/E[draw]; both are what an analyst expects to obtain before seeing
    the draw. Each log base is optimized for its own expected upper
    bound. Requires the true lambda2 and the mechanism scale, so this is
    a pre-release planning quantity, not a public one.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    inv_sqrt = expected_inv_sqrt_lambda2(lambda2, b, float(n))  # checks the law first
    if not (lambda_n >= lambda2 and lambda_n > 0.0 and math.isfinite(lambda_n)):
        raise ValueError(
            f"largest eigenvalue {lambda_n} must be positive, finite and at least lambda2"
        )
    S = math.sqrt(lambda_n) * inv_sqrt
    mean_draw = expected_lambda2(lambda2, b, float(n))
    return _sandwich(
        S, 1.0 / mean_draw, n, None, mode="expected", lambda2=lambda2, lambda_n=lambda_n, b=b
    )


def min_degree_inference(lambda2: float, n: int) -> int:
    """Smallest minimum degree consistent with the connectivity value.

    Uses min_degree >= lambda2 (n-1)/n, rounded up with a small fuzz so
    graphs that meet the bound with equality (complete graphs) are not
    pushed one past it by roundoff.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if not (lambda2 >= 0.0 and math.isfinite(lambda2)):
        raise ValueError(f"connectivity value must be nonnegative and finite, got {lambda2}")
    return max(0, math.ceil(lambda2 * (n - 1.0) / n - 1e-9))
