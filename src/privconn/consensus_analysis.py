"""Error bounds for consensus rates estimated from a private release.

Linear consensus on a connected graph contracts disagreement like
exp(-lambda2 * t). An analyst who only sees the private release
lambda2_tilde estimates that contraction as exp(-lambda2_tilde * t); the
machinery here quantifies the drift. expected_rate_error integrates
|exp(-X t) - exp(-lambda2 t)| in closed form over the truncated Laplace
law of X (three pieces: rho_terms), concentration_bound turns it into a
tail probability via Markov, and settle_time inverts the bound: past the
settle time the estimate stays within the tolerance except with the
stated probability, whatever the draw was.

Every function takes and returns plain numbers: a time t (a float, or an
array of times where the result is per time), the deviation threshold
a > 0, and for the settle times the probability ceiling eta in (0, 1).
The functions that read a or eta check them.

rho_terms writes the below-centre piece with exprel(z) = expm1(z)/z of a
nonpositive z, one expression that neither divides by b*t - 1 nor
overflows, on either side of b*t = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .privacy_mechanism import _check_scale, normalizer_C

__all__ = [
    "rho_terms",
    "expected_rate_error",
    "concentration_bound",
    "settle_time",
    "worst_case_settle_time",
]

# worst_case_settle_time covers lambda2 in [n / _SETTLE_GRID_POINTS, n],
# the range of a sweep of that many even steps, which its two ends equal
_SETTLE_GRID_POINTS = 10_000

_FLOAT_MAX = float(np.finfo(float).max)


def _check_threshold(a: float) -> None:
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"deviation threshold must be positive and finite, got {a}")


def _check_inputs(lambda2: float, b: float, n: float) -> None:
    _check_scale(b)
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"domain width must be positive and finite, got {n}")
    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")


def rho_terms(t, lambda2: float, b: float, n: float):
    """The three pieces of the absolute-error integral, before the 1/(2C).

    rho1 collects the mass below the center, rho2 and rho3 split the mass
    above it; all three are nonnegative for t > 0. rho1 is
    (lambda2/b) exp(-lambda2 min(t, 1/b)) exprel(-lambda2 |1 - bt|/b)
    + exp(-lambda2 t) expm1(-lambda2/b). Every exponent is nonpositive,
    so exprel(z) = expm1(z)/z (1 at z = 0) lies in (0, 1] and no term
    overflows; near bt = 1 it tends to 1 without a division by bt - 1.
    Accepts a scalar t or an array of times.

    Raises:
        ValueError: if any time is not positive and finite.
    """
    _check_inputs(lambda2, b, n)
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & np.isfinite(t)).all():
        raise ValueError("times must be positive and finite")
    # At a huge finite t a product overflows to an infinite exponent or
    # denominator, whose limit is the value; b t is held at the largest
    # float, so that lambda2 = 0 gives 0 * finite, not 0 * inf
    with np.errstate(over="ignore"):
        bt = np.minimum(b * t, _FLOAT_MAX)
        decay = np.exp(-lambda2 * t)
        z = -lambda2 * np.abs(1.0 - bt) / b
        exprel = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
        below = (lambda2 / b) * np.exp(-lambda2 * np.minimum(t, 1.0 / b)) * exprel
        rho1 = below + decay * math.expm1(-lambda2 / b)
        rho2 = decay * (1.0 - math.exp((lambda2 - n) / b))
        rho3 = (decay - np.exp((lambda2 - n * (bt + 1.0)) / b)) / (bt + 1.0)
    if rho1.ndim:
        return rho1, rho2, rho3
    return float(rho1), float(rho2), float(rho3)


def expected_rate_error(t, lambda2: float, b: float, n: float):
    """Mean absolute gap between the estimated and true contraction factors.

    E |exp(-X t) - exp(-lambda2 t)| with X drawn from the truncated
    Laplace centered at lambda2 with scale b on [0, n]: the pieces of
    rho_terms combined as (rho1 + rho2 - rho3) / (2C), floored at 0.
    Accepts a scalar t > 0 or an array of such times.
    """
    rho1, rho2, rho3 = rho_terms(t, lambda2, b, n)
    C = normalizer_C(lambda2, b, n)
    out = np.maximum((np.asarray(rho1) + rho2 - rho3) / (2.0 * C), 0.0)
    return out if out.ndim else float(out)


def concentration_bound(t, a: float, lambda2: float, b: float, n: float):
    """P(|estimated - true contraction| >= a) at time t, by Markov.

    expected_rate_error(t, ...) / a: a float for a scalar t, an array for
    an array of times. The bound is reported even when it exceeds 1,
    never clamped.

    Raises:
        ValueError: if a is not positive and finite, or on a bad time.
    """
    _check_threshold(a)
    return expected_rate_error(t, lambda2, b, n) / a


def _settle(lambda2: float, b: float, n: float, a: float, eta: float) -> float:
    _check_threshold(a)
    if not (0.0 < eta < 1.0):
        raise ValueError(f"probability ceiling must lie in (0, 1), got {eta}")
    C = normalizer_C(lambda2, b, n)
    base = 2.0 * a * C * eta
    if lambda2 <= n / 2.0:
        hump = (math.exp(-lambda2 / b) - math.exp((lambda2 - n) / b)) * b / (lambda2 * math.e)
        return (hump + base + 1.0) / (base * b)
    return (base + 1.0) / (base * b)


def settle_time(lambda2: float, b: float, n: float, a: float, eta: float) -> float:
    """Time after which the concentration bound at deviation a stays
    below eta.

    Closed-form sufficient time; splits on lambda2 <= n/2 because the
    below-center error mass only matters when the center sits in the
    lower half of the support.

    Raises:
        ValueError: if a is not positive and finite, eta lies outside
            (0, 1), or lambda2 is not strictly positive (a disconnected
            graph never contracts, so no finite settle time exists).
    """
    _check_inputs(lambda2, b, n)
    if lambda2 == 0.0:
        raise ValueError("lambda2 must be strictly positive for a settle time")
    return _settle(lambda2, b, n, a, eta)


def worst_case_settle_time(b: float, n: float, a: float, eta: float) -> float:
    """Largest settle time over connectivity values in [n/10,000, n].

    The analyst does not know the true lambda2, so the settle time is
    maximized over it; the floor n/10,000 is how close to disconnection
    it looks. The larger of the two end values is the exact maximum. On
    (0, n/2] every term of the lower branch falls as lambda2 grows: the
    hump's two positive factors, exp(-lambda2/b) - exp((lambda2 - n)/b)
    and b/(lambda2 e), fall, and 1/base falls because the normalizer C
    rises toward n/2. On (n/2, n] the value is
    1/b + 1/(base * b) with C falling, so it rises toward n. The hump is
    zero at n/2, where the value is smallest, so n/2 never wins.
    """
    _check_inputs(float(n), b, n)
    return max(
        _settle(n / _SETTLE_GRID_POINTS, b, n, a, eta),
        _settle(float(n), b, n, a, eta),
    )
