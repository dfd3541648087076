"""Graph-property bounds certified from a connectivity value.

Given any value of the algebraic connectivity (the exact one, a private
draw, or its expectation under the release mechanism) together with the
largest Laplacian eigenvalue, these functions sandwich the diameter and
the mean pairwise distance, and lower-bound the minimum degree.

The upper bounds carry a free log base alpha > 1 from the underlying
eigenvalue argument; optimize_alpha picks the base that makes a chosen
bound tightest. Expected-value variants average the relevant functionals
of the private draw in closed form, so utility can be judged before
anything is released.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _diameter_upper(S: float, n: int, alpha: float) -> float:
    return 2.0 * S * _spread_factor(alpha) * _log_levels(n, alpha) + 2.0


def _mean_distance_upper(S: float, n: int, alpha: float) -> float:
    levels = _log_levels(n, alpha)
    return (S * _spread_factor(alpha) + 1.0) * (n / (n - 1.0)) * (0.5 + levels)


def _diameter_lower(inv_lambda2: float, n: int) -> float:
    return 4.0 * inv_lambda2 / n


def _mean_distance_lower(inv_lambda2: float, n: int) -> float:
    return 2.0 * inv_lambda2 / (n - 1.0) + (n - 2.0) / (2.0 * (n - 1.0))


def diameter_bounds_exact(
    lambda2: float, lambda_n: float, n: int, alpha: float
) -> tuple[float, float]:
    """(lower, upper) sandwich on the diameter from the eigenvalue pair.

    Lower bound 4/(n lambda2) needs only the connectivity; the upper
    bound also uses the ratio lambda_n/lambda2 and the log base alpha.
    Bounds are reported as computed, never clamped to the trivial range.
    """
    _check_pair(lambda2, lambda_n, n)
    _check_alpha(alpha)
    S = math.sqrt(lambda_n / lambda2)
    return _diameter_lower(1.0 / lambda2, n), _diameter_upper(S, n, alpha)


def mean_distance_bounds_exact(
    lambda2: float, lambda_n: float, n: int, alpha: float
) -> tuple[float, float]:
    """(lower, upper) sandwich on the mean pairwise distance."""
    _check_pair(lambda2, lambda_n, n)
    _check_alpha(alpha)
    S = math.sqrt(lambda_n / lambda2)
    return _mean_distance_lower(1.0 / lambda2, n), _mean_distance_upper(S, n, alpha)


def _golden_min(objective, n: int) -> float:
    """Base minimizing an upper-bound objective, by golden section.

    The objectives are smooth on (1, inf), fall then rise, so a golden
    section over [1 + 1e-6, 1e3] homes in on the interior minimum; the
    conventional choices 2 and e are kept as fallback candidates in case
    the landscape is flat (n = 2 makes the diameter bound base-free).
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


def _best_alpha(bound_kind: str, S: float, n: int) -> float:
    if bound_kind == "diameter":
        return _golden_min(lambda alpha: _diameter_upper(S, n, alpha), n)
    if bound_kind == "mean_distance":
        return _golden_min(lambda alpha: _mean_distance_upper(S, n, alpha), n)
    raise ValueError(f"bound_kind must be one of {_BOUND_KINDS}, got {bound_kind!r}")


def optimize_alpha(bound_kind: str, lambda2: float, lambda_n: float, n: int) -> float:
    """Log base minimizing the named upper bound for these eigenvalues.

    bound_kind is "diameter" or "mean_distance". The diameter objective
    factors as S * K(alpha)/ln(alpha) * const, so its minimizer is one
    universal base (about 6.79); the mean-distance minimizer genuinely
    moves with the eigenvalue ratio and n. The returned base is never
    worse than the conventional choices 2 and e.
    """
    _check_pair(lambda2, lambda_n, n)
    return _best_alpha(bound_kind, math.sqrt(lambda_n / lambda2), n)


@dataclass(frozen=True)
class PropertyBoundReport:
    """Certified sandwich on diameter (d) and mean distance (rho).

    mode records whether the bounds plug in a known connectivity value
    ("exact") or average over the release mechanism ("expected"); b is
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
        return {
            "d_lower": self.d_lower,
            "d_upper": self.d_upper,
            "rho_lower": self.rho_lower,
            "rho_upper": self.rho_upper,
            "alpha_d": self.alpha_d,
            "alpha_rho": self.alpha_rho,
            "mode": self.mode,
            "lambda2": self.lambda2,
            "lambda_n": self.lambda_n,
            "n": self.n,
            "b": self.b,
        }


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
    S = math.sqrt(lambda_n / lambda2)
    if alpha_d is None:
        alpha_d = _best_alpha("diameter", S, n)
    else:
        _check_alpha(alpha_d)
    if alpha_rho is None:
        alpha_rho = _best_alpha("mean_distance", S, n)
    else:
        _check_alpha(alpha_rho)
    return PropertyBoundReport(
        d_lower=_diameter_lower(1.0 / lambda2, n),
        d_upper=_diameter_upper(S, n, alpha_d),
        rho_lower=_mean_distance_lower(1.0 / lambda2, n),
        rho_upper=_mean_distance_upper(S, n, alpha_rho),
        alpha_d=alpha_d,
        alpha_rho=alpha_rho,
        mode="exact",
        lambda2=lambda2,
        lambda_n=lambda_n,
        n=n,
        b=None,
    )


def expected_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of the private draw: pulled toward n/2 by the truncation.

    (2 lambda2 + b e^{-lambda2/b} - (b + n) e^{-(n - lambda2)/b}) / (2 C).
    Equals lambda2 exactly when lambda2 = n/2; the bias vanishes as
    b -> 0 and saturates to n/2 as b -> infinity.
    """
    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")
    C = normalizer_C(lambda2, b, n)
    num = 2.0 * lambda2 + b * math.exp(-lambda2 / b) - (b + n) * math.exp(-(n - lambda2) / b)
    return num / (2.0 * C)


def expected_inv_sqrt_lambda2(lambda2: float, b: float, n: float) -> float:
    """Mean of 1/sqrt(private draw), in closed form.

    The integral splits at the center into a Dawson-function piece (below)
    and a difference of upper incomplete gamma functions (above); both are
    evaluated in exponentially scaled form, e^x Gamma(1/2, x) being
    sqrt(pi) erfcx(sqrt(x)), so no intermediate overflows. Finite even
    though the draw can touch 0, because the density is bounded there.
    """
    # the only scipy use in the package; imported here so the CLI's
    # release path never loads it
    from scipy.special import dawsn, erfcx

    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")
    C = normalizer_C(lambda2, b, n)
    below = 2.0 * float(dawsn(math.sqrt(lambda2 / b)))
    above = math.sqrt(math.pi) * (
        float(erfcx(math.sqrt(lambda2 / b)))
        - math.exp(-(n - lambda2) / b) * float(erfcx(math.sqrt(n / b)))
    )
    return (below + above) / (2.0 * math.sqrt(b) * C)


def expected_bounds(lambda2: float, b: float, lambda_n: float, n: int) -> PropertyBoundReport:
    """Distance sandwich averaged over the release mechanism.

    Upper bounds replace sqrt(lambda_n/lambda2) by
    sqrt(lambda_n) * E[1/sqrt(draw)], lower bounds replace 1/lambda2 by
    1/E[draw]; both are what an analyst expects to certify before seeing
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
    alpha_d = _best_alpha("diameter", S, n)
    alpha_rho = _best_alpha("mean_distance", S, n)
    return PropertyBoundReport(
        d_lower=_diameter_lower(1.0 / mean_draw, n),
        d_upper=_diameter_upper(S, n, alpha_d),
        rho_lower=_mean_distance_lower(1.0 / mean_draw, n),
        rho_upper=_mean_distance_upper(S, n, alpha_rho),
        alpha_d=alpha_d,
        alpha_rho=alpha_rho,
        mode="expected",
        lambda2=lambda2,
        lambda_n=lambda_n,
        n=n,
        b=b,
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
