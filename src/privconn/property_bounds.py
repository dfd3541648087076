"""Graph-property bounds computed from a connectivity value.

Given any value of the algebraic connectivity (the exact one, a private
draw, or its expectation under the release mechanism) together with the
largest Laplacian eigenvalue, these functions sandwich the diameter and
the mean pairwise distance, and lower-bound the minimum degree. The
sandwich is guaranteed only when the exact connectivity goes in; fed a
released value it is a plug-in estimate, not a certificate.

The upper bounds carry a free log base alpha > 1 from the underlying
eigenvalue argument. The diameter's best base is one universal constant;
the mean distance's is optimized per call by optimize_alpha. Expected-value
variants average the relevant functionals of the private draw in closed
form, so utility can be judged before anything is released.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .privacy_mechanism import normalizer_C

__all__ = [
    "PropertyBoundReport",
    "diameter_bounds_exact",
    "mean_distance_bounds_exact",
    "optimize_alpha",
    "exact_bounds",
    "expected_lambda2",
    "expected_inv_sqrt_lambda2",
    "expected_bounds",
    "min_degree_inference",
]

_ALPHA_LO = 1.0 + 1e-6
_ALPHA_HI = 1e3
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BOUND_KINDS = ("diameter", "mean_distance")


def _check_alpha(alpha: float) -> None:
    if not (alpha > 1.0 and math.isfinite(alpha)):
        raise ValueError(f"log base alpha must be a finite number > 1, got {alpha}")


def _check_pair(lambda2: float, lambda_n: float, n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if lambda2 <= 0.0:
        raise ValueError(f"connectivity value must be positive, got {lambda2}")
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


def diameter_bounds_exact(
    lambda2: float, lambda_n: float, n: int, alpha: float
) -> tuple[float, float]:
    """(lower, upper) sandwich on the diameter from the eigenvalue pair.

    Lower bound 4/(n lambda2) needs only the connectivity; the upper
    bound also uses the ratio lambda_n/lambda2 and the log base alpha.
    Bounds are reported as computed, never clamped to the trivial range.
    """
    report = exact_bounds(lambda2, lambda_n, n, alpha, alpha)
    return report.d_lower, report.d_upper


def mean_distance_bounds_exact(
    lambda2: float, lambda_n: float, n: int, alpha: float
) -> tuple[float, float]:
    """(lower, upper) sandwich on the mean pairwise distance."""
    report = exact_bounds(lambda2, lambda_n, n, alpha, alpha)
    return report.rho_lower, report.rho_upper


def _golden_min(objective) -> float:
    """Base minimizing an upper-bound objective, by golden section.

    The objectives are smooth on (1, inf) and fall then rise where checked,
    so a golden section over [1 + 1e-6, 1e3] homes in on the interior
    minimum. No proof of unimodality covers every (S, n), so the
    conventional choices 2 and e stay as fallback candidates.
    """
    lo, hi = _ALPHA_LO, _ALPHA_HI
    a = hi - _INV_GOLDEN * (hi - lo)
    c = lo + _INV_GOLDEN * (hi - lo)
    fa, fc = objective(a), objective(c)
    while hi - lo > 1e-6:
        if fa <= fc:
            hi, c, fc = c, a, fa
            a = hi - _INV_GOLDEN * (hi - lo)
            fa = objective(a)
        else:
            lo, a, fa = a, c, fc
            c = lo + _INV_GOLDEN * (hi - lo)
            fc = objective(c)
    found = 0.5 * (lo + hi)
    return min([found, 2.0, math.e], key=objective)


# The diameter upper bound 2 + 2 S log(n/2) K(alpha)/log(alpha) scales one
# function of alpha for every (S, n); at n = 2 it is 2 for any base.
_ALPHA_D = _golden_min(lambda alpha: _spread_factor(alpha) / math.log(alpha))


def _alpha_rho(S: float, n: int) -> float:
    return _golden_min(lambda alpha: _mean_distance_upper(S, n, alpha))


def optimize_alpha(bound_kind: str, lambda2: float, lambda_n: float, n: int) -> float:
    """Log base minimizing the named upper bound for these eigenvalues.

    bound_kind is "diameter" or "mean_distance". The diameter objective
    factors as S * K(alpha)/ln(alpha) * const, so its minimizer is one
    universal base (about 6.787), computed once at import; the
    mean-distance minimizer genuinely moves with the eigenvalue ratio and
    n and is searched per call. The returned base is never worse than the
    conventional choices 2 and e.
    """
    _check_pair(lambda2, lambda_n, n)
    if bound_kind == "diameter":
        return _ALPHA_D
    if bound_kind == "mean_distance":
        return _alpha_rho(math.sqrt(lambda_n / lambda2), n)
    raise ValueError(f"bound_kind must be one of {_BOUND_KINDS}, got {bound_kind!r}")


@dataclass(frozen=True)
class PropertyBoundReport:
    """Sandwich on diameter (d) and mean distance (rho).

    mode records whether the bounds plug in a known connectivity value
    ("exact") or average over the release mechanism ("expected"). The
    bounds hold for the graph only when that value is its exact lambda2;
    plugged with a released draw they are estimates. b is
    the mechanism scale in the latter case, None otherwise. alpha_d and
    alpha_rho are the log bases used by the two upper bounds, optimized
    separately unless the caller pinned them.
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
    S: float,
    inv_lambda2: float,
    n: int,
    alpha_d: float | None,
    alpha_rho: float | None,
    **meta,
) -> PropertyBoundReport:
    """The report for spread S = sqrt(lambda_n / lambda2) and 1/lambda2
    (or their expectations); a base left as None is optimized for its own
    bound, and meta carries the remaining report fields."""
    if alpha_d is None:
        alpha_d = _ALPHA_D
    if alpha_rho is None:
        alpha_rho = _alpha_rho(S, n)
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
    lambda2: float,
    lambda_n: float,
    n: int,
    alpha_d: float | None = None,
    alpha_rho: float | None = None,
) -> PropertyBoundReport:
    """Plug-in sandwich for a known connectivity value (exact or a draw).

    With a base left as None it is optimized for its own bound; passing
    one pins it for that bound only.
    """
    _check_pair(lambda2, lambda_n, n)
    for alpha in (alpha_d, alpha_rho):
        if alpha is not None:
            _check_alpha(alpha)
    S = math.sqrt(lambda_n / lambda2)
    return _sandwich(
        S, 1.0 / lambda2, n, alpha_d, alpha_rho, mode="exact", lambda2=lambda2, lambda_n=lambda_n
    )


def expected_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of the private draw: pulled toward n/2 by the truncation.

    (2 lambda2 + b e^{-lambda2/b} - (b + n) e^{-(n - lambda2)/b}) / (2 C).
    Equals lambda2 exactly when lambda2 = n/2; the bias vanishes as
    b -> 0 and saturates to n/2 as b -> infinity. For b >= n those terms
    of size b cancel to order n (1% wrong at b/n = 1e7), so the mean is
    taken as lambda2 + b (P(2, (n - lambda2)/b) - P(2, lambda2/b)) / (2 C)
    instead, with P(2, z) = 1 - (1 + z) e^{-z} the regularized incomplete
    gamma function, which stays accurate for small z.
    """
    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")
    C = normalizer_C(lambda2, b, n)
    if b >= n:
        from scipy.special import gammainc

        above, below = gammainc(2.0, (n - lambda2) / b), gammainc(2.0, lambda2 / b)
        return lambda2 + b * float(above - below) / (2.0 * C)
    num = 2.0 * lambda2 + b * math.exp(-lambda2 / b) - (b + n) * math.exp(-(n - lambda2) / b)
    return num / (2.0 * C)


def expected_inv_sqrt_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of 1/sqrt(private draw), in closed form.

    The integral splits at the center into a Dawson-function piece (below)
    and a difference of upper incomplete gamma functions (above). While
    b < n the latter is evaluated in exponentially scaled form, e^x
    Gamma(1/2, x) being sqrt(pi) erfcx(sqrt(x)), so no intermediate
    overflows. For b >= n both arguments are at most 1 and that difference
    of two near-equal erfcx values cancels (1e-11 relative at b/n = 1e9),
    so it is taken as e^{lambda2/b} (erf(sqrt(n/b)) - erf(sqrt(lambda2/b)))
    instead. Finite even though the draw can touch 0, because the density
    is bounded there.
    """
    # the package imports scipy only inside these two moment functions,
    # so the CLI's release path never loads it
    from scipy.special import dawsn, erfcx

    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")
    C = normalizer_C(lambda2, b, n)
    a, c = math.sqrt(lambda2 / b), math.sqrt(n / b)
    below = 2.0 * float(dawsn(a))
    if b >= n:
        above = math.sqrt(math.pi) * math.exp(lambda2 / b) * (math.erf(c) - math.erf(a))
    else:
        above = math.sqrt(math.pi) * (
            float(erfcx(a)) - math.exp(-(n - lambda2) / b) * float(erfcx(c))
        )
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
    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")
    if lambda_n < lambda2 or lambda_n <= 0.0:
        raise ValueError(
            f"largest eigenvalue {lambda_n} must be positive and at least lambda2"
        )
    S = math.sqrt(lambda_n) * expected_inv_sqrt_lambda2(lambda2, b, float(n))
    mean_draw = expected_lambda2(lambda2, b, float(n))
    return _sandwich(
        S, 1.0 / mean_draw, n, None, None, mode="expected", lambda2=lambda2, lambda_n=lambda_n, b=b
    )


def min_degree_inference(lambda2: float, n: int) -> int:
    """Smallest minimum degree consistent with the connectivity value.

    Uses min_degree >= lambda2 (n-1)/n, rounded up with a small fuzz so
    graphs that meet the bound with equality (complete graphs) are not
    pushed one past it by roundoff.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if lambda2 < 0.0:
        raise ValueError(f"connectivity value must be nonnegative, got {lambda2}")
    return max(0, math.ceil(lambda2 * (n - 1.0) / n - 1e-9))
