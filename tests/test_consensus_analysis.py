import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privconn import (
    PrivacyParams,
    concentration_bound,
    expected_rate_error,
    rho_terms,
    settle_time,
    consensus_analysis,
    solve_scale_b,
    worst_case_settle_time,
)

import oracles as oc

LAM2, B, N = 1.0, 7.39, 10.0


class TestQueryType:
    """A query's time t, deviation a and ceiling eta are plain numbers,
    checked by the functions that read them."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t=0.0, a=0.2),
            dict(t=-1.0, a=0.2),
            dict(t=math.inf, a=0.2),
            dict(t=1.0, a=0.0),
            dict(t=1.0, a=-0.5),
            dict(t=1.0, a=0.2, eta=0.0),
            dict(t=1.0, a=0.2, eta=1.0),
            dict(t=1.0, a=0.2, eta=-0.1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        t, a, eta = kwargs["t"], kwargs["a"], kwargs.get("eta", 0.05)
        if "eta" not in kwargs:  # a bad t or a
            with pytest.raises(ValueError):
                concentration_bound(t, a, LAM2, B, N)
        if t == 1.0:  # a bad a or eta; the settle times take no t
            with pytest.raises(ValueError):
                settle_time(LAM2, B, N, a, eta)
            with pytest.raises(ValueError):
                worst_case_settle_time(B, N, a, eta)


class TestRhoTerms:
    def test_scalar_and_vector_agree(self):
        ts = np.array([0.1, 1.0 / B, 5.0, 40.0])
        vec = rho_terms(ts, LAM2, B, N)
        bounds = concentration_bound(ts, 0.2, LAM2, B, N)
        assert bounds.shape == ts.shape
        for i, t in enumerate(ts):
            scal = rho_terms(float(t), LAM2, B, N)
            assert all(isinstance(v, float) for v in scal)
            for got, want in zip(vec, scal):
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)
            bound = concentration_bound(float(t), 0.2, LAM2, B, N)
            assert isinstance(bound, float)
            assert bounds[i] == bound

    def test_nonpositive_time_raises(self):
        with pytest.raises(ValueError, match="positive and finite"):
            rho_terms(0.0, LAM2, B, N)
        with pytest.raises(ValueError, match="positive and finite"):
            rho_terms(np.array([1.0, -2.0]), LAM2, B, N)

    @pytest.mark.parametrize("t", [np.array([1.0, np.nan]), np.inf, -np.inf, np.nan])
    def test_nonfinite_time_raises(self, t):
        with pytest.raises(ValueError, match="times must be positive and finite"):
            rho_terms(t, LAM2, B, N)
        with pytest.raises(ValueError, match="times must be positive and finite"):
            expected_rate_error(t, LAM2, B, N)

    @pytest.mark.parametrize("lam2, b", [(0.001, 30.0), (0.001, 1000.0), (0.5, 1000.0)])
    @pytest.mark.parametrize("s", [-2e-6, -1.01e-6, -1e-7, 0.0, 1e-7, 1.01e-6, 2e-6])
    def test_below_centre_term_near_bt_one(self, lam2, b, s):
        """rho1 near b*t = 1, where a form dividing by b*t - 1 cancels:
        small lambda2 / b makes the quotient's numerator tiny."""
        t = (1.0 + s) / b
        want = oc.mp_rho_below(t, lam2, b)
        assert rho_terms(t, lam2, b, N)[0] == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_nonnegative_over_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = float(rng.uniform(2.0, 50.0))
            lam2 = float(rng.uniform(0.0, n))
            b = float(rng.uniform(0.05, 50.0))
            t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            r1, r2, r3 = rho_terms(t, lam2, b, n)
            assert r1 >= -1e-15
            assert r2 >= -1e-15
            assert r3 >= -1e-15


def _mp_rate_error(t, lam2, b, n):
    return float(oc.mp_expected_rate_error(t, lam2, b, n, dps=40))


class TestExpectedRateError:
    def test_pinned_deep_tail_value(self):
        # closed form at t = 2000 where both quadrature and naive exp
        # underflow unless handled carefully
        got = expected_rate_error(2000.0, LAM2, B, N)
        assert got == pytest.approx(7.114476820056088e-05, rel=1e-10)

    @pytest.mark.parametrize(
        "t, lam2, b, n",
        [
            (0.01, 1.0, 7.39, 10.0),
            (1.0, 1.0, 7.39, 10.0),
            (5.0, 1.0, 7.39, 10.0),
            (40.0, 1.0, 7.39, 10.0),
            (3.0, 0.0, 2.0, 6.0),
            (3.0, 6.0, 2.0, 6.0),
            (0.5, 2.5, 0.3, 5.0),
            (12.0, 24.9, 4.0, 25.0),
        ],
    )
    def test_matches_high_precision_quadrature(self, t, lam2, b, n):
        want = _mp_rate_error(t, lam2, b, n)
        assert expected_rate_error(t, lam2, b, n) == pytest.approx(want, rel=1e-8)

    def test_series_window_is_seamless(self):
        """rho1 has no special case at bt = 1; the rate error must agree
        with 40-digit arithmetic on both sides of it and on it."""
        for s in (-2e-6, -1.01e-6, -9.9e-7, -1e-7, 0.0, 1e-7, 9.9e-7, 1.01e-6, 2e-6):
            t = (1.0 + s) / B
            want = _mp_rate_error(t, LAM2, B, N)
            assert expected_rate_error(t, LAM2, B, N) == pytest.approx(
                want, rel=1e-9
            ), f"seam mismatch at bt - 1 = {s}"

    def test_matches_float_quadrature_over_random_sweep(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 60:
            n = float(rng.uniform(2.0, 50.0))
            lam2 = float(rng.uniform(0.0, n))
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            got = expected_rate_error(t, lam2, b, n)
            if got < 1e-10:
                continue  # below the quadrature noise floor
            assert got == pytest.approx(oc.quad_rate_error(t, lam2, b, n), rel=1e-7)
            checked += 1

    def test_bounded_by_one_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            n = float(rng.uniform(2.0, 40.0))
            lam2 = float(rng.uniform(0.0, n))
            b = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            t = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e4))))
            val = expected_rate_error(t, lam2, b, n)
            assert 0.0 <= val <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam2", [0.0, 1e-300, 1.0, N])
    def test_huge_finite_times(self, lam2):
        """b t overflows from t = 1e308 and n (b t + 1) from 1e307; no
        warning, no NaN, and lambda2 = 0 keeps its limit 1."""
        ts = [1e300, 1e307, 1e308, 1.7e308]
        got = [expected_rate_error(t, lam2, B, N) for t in ts]
        assert expected_rate_error(np.array(ts), lam2, B, N).tolist() == got
        if lam2 == 0.0:
            assert got == [1.0] * 4
            assert _mp_rate_error(1.7e308, lam2, B, N) == 1.0
        else:
            assert all(0.0 <= v <= got[0] for v in got)

    def test_vectorized_over_t(self):
        ts = np.geomspace(0.01, 100.0, 40)
        vec = expected_rate_error(ts, LAM2, B, N)
        assert vec.shape == ts.shape
        for i, t in enumerate(ts):
            assert vec[i] == expected_rate_error(float(t), LAM2, B, N)


class TestConcentrationBound:
    def test_is_markov_over_the_error(self):
        bound = concentration_bound(5.0, 0.2, LAM2, B, N)
        assert bound == pytest.approx(
            expected_rate_error(5.0, LAM2, B, N) / 0.2, rel=1e-14, abs=0.0
        )

    def test_reports_vacuity_instead_of_clamping(self):
        tame = concentration_bound(40.0, 0.2, LAM2, B, N)
        assert tame < 1.0
        wild = concentration_bound(0.01, 0.01, LAM2, B, N)
        assert wild > 1.0

    def test_empirically_valid_at_modest_sample_size(self):
        """P(|observed - true| >= a) must sit at or under the bound; one
        seeded 20k-draw check, 3 sigma slack."""
        t, a = 5.0, 0.2
        bound = concentration_bound(t, a, LAM2, B, N)
        rng = np.random.default_rng(7)
        from privconn import BoundedLaplaceDist

        draws = BoundedLaplaceDist(LAM2, B, N).sample(rng, size=20_000)
        err = np.abs(np.exp(-draws * t) - math.exp(-LAM2 * t))
        p_hat = float(np.mean(err >= a))
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / err.size)
        assert p_hat <= bound + 3.0 * sigma


class TestSettleTime:
    @pytest.mark.parametrize(
        "lam2, n, a, eta",
        [
            (1.0, 10.0, 0.2, 0.05),   # below the midpoint
            (3.0, 10.0, 1.0, 0.01),
            (8.0, 10.0, 0.2, 0.05),   # above the midpoint
            (9.9, 10.0, 0.5, 0.3),
        ],
    )
    def test_bound_has_decayed_by_the_settle_time(self, lam2, n, a, eta):
        b = 7.39
        ts = settle_time(lam2, b, n, a, eta)
        assert ts > 0.0
        for factor in (1.0, 1.5, 2.0):
            assert concentration_bound(factor * ts, a, lam2, b, n) <= eta + 1e-9

    def test_zero_rate_never_settles(self):
        with pytest.raises(ValueError):
            settle_time(0.0, B, N, 0.2, 0.05)

    def test_worst_case_dominates_every_grid_rate(self, monkeypatch):
        monkeypatch.setattr(consensus_analysis, "_SETTLE_GRID_POINTS", 2_000)
        worst = worst_case_settle_time(B, N, 0.2, 0.05)
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam2 = float(rng.uniform(N / 2_000, N))
            assert settle_time(lam2, B, N, 0.2, 0.05) <= worst + 1e-9

    def test_worst_case_includes_the_midpoint_kink(self, monkeypatch):
        monkeypatch.setattr(consensus_analysis, "_SETTLE_GRID_POINTS", 500)
        worst = worst_case_settle_time(B, N, 0.2, 0.05)
        assert settle_time(N / 2.0, B, N, 0.2, 0.05) <= worst + 1e-9

    @pytest.mark.parametrize("grid_points", [2, 3, 500, 10_000])
    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 1e4])
    def test_worst_case_is_the_maximum_of_the_sweep(self, monkeypatch, n, grid_points):
        """The two end values equal, bit for bit, the maximum over the
        sweep they replace: grid_points even steps from n/grid_points to
        n, plus the branch point n/2. The shipped count is 10,000."""
        assert consensus_analysis._SETTLE_GRID_POINTS == 10_000
        monkeypatch.setattr(consensus_analysis, "_SETTLE_GRID_POINTS", grid_points)
        rates = np.append(np.linspace(n / grid_points, n, grid_points), n / 2.0)
        for eps in (0.05, 0.4, 2.0):
            b = solve_scale_b(PrivacyParams(epsilon=eps, delta=0.05), float(n))
            for a, eta in ((0.2, 0.05), (1.0, 0.01), (0.05, 0.5)):
                sweep = max(settle_time(float(lam), b, n, a, eta) for lam in rates)
                assert worst_case_settle_time(b, n, a, eta) == sweep

    @pytest.mark.parametrize(
        "b, n", [(7.5, 0.0), (7.5, math.inf), (math.nan, 10.0), (7.5, math.nan)]
    )
    def test_worst_case_rejects_a_bad_scale_or_width(self, b, n):
        with pytest.raises(ValueError):
            worst_case_settle_time(b, n, 0.1, 0.1)

    @given(
        n=st.floats(2.0, 1e5),
        b=st.floats(1e-2, 1e6),
        a=st.floats(1e-3, 3.0),
        eta=st.floats(1e-4, 0.999),
        fracs=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_falls_up_to_the_midpoint_then_rises(self, n, b, a, eta, fracs):
        """Why two end values are the worst case: the settle time does not
        rise on (0, n/2] and does not fall on [n/2, n]."""
        fracs = sorted(fracs)
        lower = [settle_time(f * n / 2.0, b, n, a, eta) for f in fracs]
        upper = [settle_time(n / 2.0 + f * n / 2.0, b, n, a, eta) for f in [0.0] + fracs]
        slack = 1e-12
        assert all(y <= x * (1.0 + slack) for x, y in zip(lower, lower[1:]))
        assert all(y >= x * (1.0 - slack) for x, y in zip(upper, upper[1:]))
