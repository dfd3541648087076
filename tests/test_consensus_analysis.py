import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privconn import (
    ConcentrationBound,
    PrivacyParams,
    RateErrorQuery,
    concentration_bound,
    expected_rate_error,
    rho_terms,
    settle_time,
    solve_scale_b,
    true_rate,
    worst_case_settle_time,
)

import oracles as oc

LAM2, B, N = 1.0, 7.39, 10.0


class TestQueryType:
    def test_holds_what_it_was_given(self):
        q = RateErrorQuery(t=5.0, a=0.2, eta=0.05)
        assert (q.t, q.a, q.eta) == (5.0, 0.2, 0.05)
        assert RateErrorQuery(t=1.0, a=1.0).eta is None

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
        with pytest.raises(ValueError):
            RateErrorQuery(**kwargs)


class TestTrueRate:
    def test_values(self):
        assert true_rate(0.5, 0.0) == 1.0
        assert true_rate(2.0, 3.0) == pytest.approx(math.exp(-6.0), rel=1e-15)

    def test_negative_time_raises(self):
        with pytest.raises(ValueError):
            true_rate(1.0, -0.1)


class TestRhoTerms:
    def test_scalar_and_vector_agree(self):
        ts = np.array([0.1, 1.0 / B, 5.0, 40.0])
        vec = rho_terms(ts, LAM2, B, N)
        for i, t in enumerate(ts):
            scal = rho_terms(float(t), LAM2, B, N)
            assert all(isinstance(v, float) for v in scal)
            for got, want in zip(vec, scal):
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_nonpositive_time_raises(self):
        with pytest.raises(ValueError, match="strictly positive"):
            rho_terms(0.0, LAM2, B, N)
        with pytest.raises(ValueError, match="strictly positive"):
            rho_terms(np.array([1.0, -2.0]), LAM2, B, N)

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
        """bt = 1 switches the first term to a series expansion; the value
        must agree with 40-digit arithmetic on both sides of the cut."""
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

    def test_vectorized_over_t(self):
        ts = np.geomspace(0.01, 100.0, 40)
        vec = expected_rate_error(ts, LAM2, B, N)
        assert vec.shape == ts.shape
        for i, t in enumerate(ts):
            assert vec[i] == expected_rate_error(float(t), LAM2, B, N)


class TestConcentrationBound:
    def test_is_markov_over_the_error(self):
        q = RateErrorQuery(t=5.0, a=0.2)
        cb = concentration_bound(q, LAM2, B, N)
        assert isinstance(cb, ConcentrationBound)
        assert cb.bound == pytest.approx(
            expected_rate_error(5.0, LAM2, B, N) / 0.2, rel=1e-14
        )
        assert (cb.t, cb.a, cb.lambda2, cb.b, cb.n) == (5.0, 0.2, LAM2, B, N)

    def test_reports_vacuity_instead_of_clamping(self):
        tame = concentration_bound(RateErrorQuery(t=40.0, a=0.2), LAM2, B, N)
        assert tame.bound < 1.0
        assert tame.as_dict()["vacuous"] is False
        wild = concentration_bound(RateErrorQuery(t=0.01, a=0.01), LAM2, B, N)
        assert wild.bound > 1.0
        assert wild.as_dict()["vacuous"] is True

    def test_dict_layout(self):
        d = concentration_bound(RateErrorQuery(t=5.0, a=0.2), LAM2, B, N).as_dict()
        assert list(d) == [
            "rho1", "rho2", "rho3", "bound", "vacuous", "t", "a", "lambda2", "b", "n",
        ]

    def test_empirically_valid_at_modest_sample_size(self):
        """P(|observed - true| >= a) must sit at or under the bound; one
        seeded 20k-draw check, 3 sigma slack."""
        q = RateErrorQuery(t=5.0, a=0.2)
        cb = concentration_bound(q, LAM2, B, N)
        rng = np.random.default_rng(7)
        from privconn import BoundedLaplaceDist

        draws = BoundedLaplaceDist(LAM2, B, N).sample(rng, size=20_000)
        err = np.abs(np.exp(-draws * q.t) - math.exp(-LAM2 * q.t))
        p_hat = float(np.mean(err >= q.a))
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / err.size)
        assert p_hat <= cb.bound + 3.0 * sigma


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
        ts = settle_time(RateErrorQuery(t=1.0, a=a, eta=eta), lam2, b, n)
        assert ts > 0.0
        for factor in (1.0, 1.5, 2.0):
            cb = concentration_bound(
                RateErrorQuery(t=factor * ts, a=a, eta=eta), lam2, b, n
            )
            assert cb.bound <= eta + 1e-9

    def test_requires_a_target(self):
        with pytest.raises(ValueError):
            settle_time(RateErrorQuery(t=1.0, a=0.2), LAM2, B, N)

    def test_zero_rate_never_settles(self):
        with pytest.raises(ValueError):
            settle_time(RateErrorQuery(t=1.0, a=0.2, eta=0.05), 0.0, B, N)

    def test_worst_case_dominates_every_grid_rate(self):
        q = RateErrorQuery(t=1.0, a=0.2, eta=0.05)
        worst = worst_case_settle_time(q, B, N, grid_points=2_000)
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam2 = float(rng.uniform(N / 2_000, N))
            assert settle_time(q, lam2, B, N) <= worst + 1e-9

    def test_worst_case_includes_the_midpoint_kink(self):
        q = RateErrorQuery(t=1.0, a=0.2, eta=0.05)
        worst = worst_case_settle_time(q, B, N, grid_points=500)
        assert settle_time(q, N / 2.0, B, N) <= worst + 1e-9

    @pytest.mark.parametrize("grid_points", [2, 3, 500, 10_000])
    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 1e4])
    def test_worst_case_is_the_maximum_of_the_sweep(self, n, grid_points):
        """The two end values equal, bit for bit, the maximum over the
        sweep they replace: grid_points even steps from n/grid_points to
        n, plus the branch point n/2."""
        rates = np.append(np.linspace(n / grid_points, n, grid_points), n / 2.0)
        for eps in (0.05, 0.4, 2.0):
            b = solve_scale_b(PrivacyParams(epsilon=eps, delta=0.05), float(n))
            for a, eta in ((0.2, 0.05), (1.0, 0.01), (0.05, 0.5)):
                q = RateErrorQuery(t=1.0, a=a, eta=eta)
                sweep = max(settle_time(q, float(lam), b, n) for lam in rates)
                assert worst_case_settle_time(q, b, n, grid_points) == sweep

    @pytest.mark.parametrize(
        "b, n", [(7.5, 0.0), (7.5, math.inf), (math.nan, 10.0), (7.5, math.nan)]
    )
    def test_worst_case_rejects_a_bad_scale_or_width(self, b, n):
        with pytest.raises(ValueError):
            worst_case_settle_time(RateErrorQuery(t=1.0, a=0.1, eta=0.1), b, n)

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
        q = RateErrorQuery(t=1.0, a=a, eta=eta)
        fracs = sorted(fracs)
        lower = [settle_time(q, f * n / 2.0, b, n) for f in fracs]
        upper = [settle_time(q, n / 2.0 + f * n / 2.0, b, n) for f in [0.0] + fracs]
        slack = 1e-12
        assert all(y <= x * (1.0 + slack) for x, y in zip(lower, lower[1:]))
        assert all(y >= x * (1.0 - slack) for x, y in zip(upper, upper[1:]))
