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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .privacy_mechanism import normalizer_C

__all__ = [
    "RateErrorQuery",
    "ConcentrationBound",
    "true_rate",
    "rho_terms",
    "expected_rate_error",
    "concentration_bound",
    "settle_time",
    "worst_case_settle_time",
]

# Switch rho1 to its series form when b*t is within this of 1, where the
# direct expression divides by b*t - 1.
_SERIES_WINDOW = 1e-6


@dataclass(frozen=True)
class RateErrorQuery:
    """A rate-error question: deviation a at time t, optional ceiling eta.

    eta is only consulted by the settle-time operations.
    """

    t: float
    a: float
    eta: float | None = None

    def __post_init__(self):
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"time must be positive and finite, got {self.t}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"deviation threshold must be positive and finite, got {self.a}")
        if self.eta is not None and not (0.0 < self.eta < 1.0):
            raise ValueError(f"probability ceiling must lie in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class ConcentrationBound:
    """Markov tail bound on the rate error, with its three pieces echoed."""

    rho1: float
    rho2: float
    rho3: float
    bound: float
    t: float
    a: float
    lambda2: float
    b: float
    n: float

    def as_dict(self) -> dict:
        return {
            "rho1": self.rho1,
            "rho2": self.rho2,
            "rho3": self.rho3,
            "bound": self.bound,
            # a Markov bound above 1 constrains nothing; say so rather
            # than clamping the reported value
            "vacuous": self.bound > 1.0,
            "t": self.t,
            "a": self.a,
            "lambda2": self.lambda2,
            "b": self.b,
            "n": self.n,
        }


def _check_inputs(lambda2: float, b: float, n: float) -> None:
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError(f"scale must be positive and finite, got {b}")
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"domain width must be positive and finite, got {n}")
    if not (0.0 <= lambda2 <= n):
        raise ValueError(f"lambda2 = {lambda2} outside the support [0, {n}]")


def true_rate(lambda2: float, t: float) -> float:
    """The contraction factor exp(-lambda2 t) itself."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.exp(-lambda2 * t)


def rho_terms(t, lambda2: float, b: float, n: float):
    """The three pieces of the absolute-error integral, before the 1/(2C).

    rho1 collects the mass below the center, rho2 and rho3 split the mass
    above it; all three are nonnegative for t > 0. rho1's direct form has
    a removable singularity at b*t = 1; inside a small window around it
    the first-order expansion takes over, agreeing with the direct form
    to O((b*t - 1)^2). Accepts a scalar t or an array of times.
    """
    _check_inputs(lambda2, b, n)
    t = np.asarray(t, dtype=float)
    if (t <= 0.0).any():
        raise ValueError("times must be strictly positive")
    bt = b * t
    s = bt - 1.0
    near = np.abs(s) < _SERIES_WINDOW
    safe_s = np.where(near, 1.0, s)
    decay = np.exp(-lambda2 * t)
    edge = math.exp(-lambda2 / b)
    rho1_direct = (edge * (1.0 + s * decay) - bt * decay) / safe_s
    rho1_series = (
        b * np.exp(-lambda2 / b - lambda2 * t)
        + (lambda2 - b + 0.5 * lambda2**2 * (t - 1.0 / b)) * decay
    ) / b
    rho1 = np.where(near, rho1_series, rho1_direct)
    rho2 = decay * (1.0 - math.exp((lambda2 - n) / b))
    rho3 = (decay - np.exp((lambda2 - n * (bt + 1.0)) / b)) / (bt + 1.0)
    if rho1.ndim:
        return rho1, rho2, rho3
    return float(rho1), float(rho2), float(rho3)


def _combine_rho(rho1, rho2, rho3, lambda2: float, b: float, n: float):
    """(rho1 + rho2 - rho3) / (2C), floored at 0: the mean absolute error."""
    C = normalizer_C(lambda2, b, n)
    out = np.maximum((np.asarray(rho1) + rho2 - rho3) / (2.0 * C), 0.0)
    return out if out.ndim else float(out)


def expected_rate_error(t, lambda2: float, b: float, n: float):
    """Mean absolute gap between the estimated and true contraction factors.

    E |exp(-X t) - exp(-lambda2 t)| with X drawn from the truncated
    Laplace centered at lambda2 with scale b on [0, n]. Accepts a scalar
    t > 0 or an array of such times.
    """
    return _combine_rho(*rho_terms(t, lambda2, b, n), lambda2, b, n)


def concentration_bound(
    q: RateErrorQuery, lambda2: float, b: float, n: float
) -> ConcentrationBound:
    """P(|estimated - true contraction| >= a) at time q.t, by Markov.

    The bound is reported even when it exceeds 1 (then flagged vacuous in
    the serialized form, never clamped).
    """
    rho1, rho2, rho3 = rho_terms(q.t, lambda2, b, n)
    bound = _combine_rho(rho1, rho2, rho3, lambda2, b, n) / q.a
    return ConcentrationBound(
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        bound=bound,
        t=q.t,
        a=q.a,
        lambda2=lambda2,
        b=b,
        n=n,
    )


def _settle(lambda2: float, b: float, n: float, a: float, eta: float) -> float:
    C = normalizer_C(lambda2, b, n)
    base = 2.0 * a * C * eta
    if lambda2 <= n / 2.0:
        hump = (math.exp(-lambda2 / b) - math.exp((lambda2 - n) / b)) * b / (lambda2 * math.e)
        return (hump + base + 1.0) / (base * b)
    return (base + 1.0) / (base * b)


def settle_time(q: RateErrorQuery, lambda2: float, b: float, n: float) -> float:
    """Time after which the concentration bound stays below q.eta.

    Closed-form sufficient time; splits on lambda2 <= n/2 because the
    below-center error mass only matters when the center sits in the
    lower half of the support.

    Raises:
        ValueError: if q carries no eta, or lambda2 is not strictly
            positive (a disconnected graph never contracts, so no finite
            settle time exists).
    """
    _check_inputs(lambda2, b, n)
    if q.eta is None:
        raise ValueError("settle-time queries need eta set on the query")
    if lambda2 == 0.0:
        raise ValueError("lambda2 must be strictly positive for a settle time")
    return _settle(lambda2, b, n, q.a, q.eta)


def worst_case_settle_time(
    q: RateErrorQuery, b: float, n: float, grid_points: int = 10_000
) -> float:
    """Largest settle time over connectivity values in [n/grid_points, n].

    The analyst does not know the true lambda2, so the settle time is
    maximized over it; the floor n/grid_points is how close to
    disconnection it looks. The larger of the two end values is the exact
    maximum. On (0, n/2] every term of the lower branch falls as lambda2
    grows: the hump's two positive factors, exp(-lambda2/b) -
    exp((lambda2 - n)/b) and b/(lambda2 e), fall, and 1/base falls
    because the normalizer C rises toward n/2. On (n/2, n] the value is
    1/b + 1/(base * b) with C falling, so it rises toward n. The hump is
    zero at n/2, where the value is smallest, so n/2 never wins.
    """
    if q.eta is None:
        raise ValueError("settle-time queries need eta set on the query")
    if grid_points < 2:
        raise ValueError("grid must have at least 2 points")
    _check_inputs(float(n), b, n)
    return max(
        _settle(n / grid_points, b, n, q.a, q.eta),
        _settle(float(n), b, n, q.a, q.eta),
    )
