import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from privconn import (
    BoundedLaplaceDist,
    Graph,
    InfeasibleParamsError,
    PrivacyParams,
    algebraic_connectivity,
    delta_C,
    expected_bounds,
    expected_inv_sqrt_lambda2,
    expected_lambda2,
    expected_rate_error,
    normalizer_C,
    privacy_mechanism,
    privatize,
    sensitivity_bound,
    solve_scale_b,
    spectrum,
)

import oracles as oc

P_DEFAULT = PrivacyParams(epsilon=0.4, delta=0.05, A=1)


class TestPrivacyParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, delta=0.05),
            dict(epsilon=-1.0, delta=0.05),
            dict(epsilon=math.inf, delta=0.05),
            dict(epsilon=0.4, delta=0.0),
            dict(epsilon=0.4, delta=1.0),
            dict(epsilon=0.4, delta=0.05, A=0),
            dict(epsilon=0.4, delta=0.05, A=1.5),
        ],
    )
    def test_rejects_bad_budgets(self, kwargs):
        with pytest.raises(InfeasibleParamsError):
            PrivacyParams(**kwargs)

    def test_sensitivity_is_two_per_edit(self):
        assert sensitivity_bound(1) == 2.0
        assert sensitivity_bound(3) == 6.0
        with pytest.raises(ValueError):
            sensitivity_bound(0)


class TestNormalizer:
    @pytest.mark.parametrize(
        "center, b, n",
        [(0.0, 1.0, 10.0), (5.0, 7.39, 10.0), (10.0, 0.3, 10.0), (2.0, 50.0, 5.0)],
    )
    def test_matches_direct_form(self, center, b, n):
        assert normalizer_C(center, b, n) == pytest.approx(
            oc.direct_normalizer(center, b, n), rel=1e-12
        )

    def test_wide_scale_keeps_relative_precision(self):
        """At b >> n the direct exp form cancels catastrophically; the
        packaged expm1 form must still match high-precision arithmetic."""
        import mpmath as mp

        center, b, n = 3.0, 1e7, 10.0
        with mp.workdps(50):
            want = -mp.mpf("0.5") * (
                mp.expm1(-mp.mpf(center) / b) + mp.expm1(-(mp.mpf(n) - center) / b)
            )
        assert normalizer_C(center, b, n) == pytest.approx(float(want), rel=1e-12)

    def test_shape_properties(self):
        n, b = 10.0, 7.39
        values = [normalizer_C(c, b, n) for c in np.linspace(0.0, n, 21)]
        assert all(0.0 < v < 1.0 for v in values)
        # symmetric around the midpoint, maximal there
        assert values == pytest.approx(values[::-1], rel=1e-12)
        assert max(values) == pytest.approx(values[10], rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            normalizer_C(5.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            normalizer_C(-0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            normalizer_C(10.1, 1.0, 10.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda b: normalizer_C(1.0, b, 10.0),
            lambda b: expected_lambda2(1.0, b, 10.0),
            lambda b: expected_bounds(1.0, b, 4.0, 10),
            lambda b: BoundedLaplaceDist(center=1.0, scale_b=b, domain_upper_n=10.0),
        ],
        ids=["normalizer_C", "expected_lambda2", "expected_bounds", "BoundedLaplaceDist"],
    )
    def test_scale_must_be_positive_and_finite(self, entry, b):
        # an infinite scale would make C = 0 and a NaN one C = NaN
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            entry(b)

    @pytest.mark.parametrize(
        "center, n, message",
        [
            (1.0, 0.0, "domain width must be positive and finite, got 0.0"),
            (1.0, math.inf, "domain width must be positive and finite, got inf"),
            (1.0, math.nan, "domain width must be positive and finite, got nan"),
            (-1.0, 10.0, "lambda2 = -1.0 outside the support [0, 10.0]"),
        ],
    )
    def test_every_entry_refuses_a_bad_law_alike(self, center, n, message):
        # a zero width used to end in ZeroDivisionError from both moments,
        # an infinite one passed all but expected_rate_error, and a NaN
        # one was reported as a center outside [0, nan]
        entries = [
            lambda: BoundedLaplaceDist(center, 2.0, n),
            lambda: normalizer_C(center, 2.0, n),
            lambda: expected_lambda2(center, 2.0, n),
            lambda: expected_inv_sqrt_lambda2(center, 2.0, n),
            lambda: expected_rate_error(1.0, center, 2.0, n),
        ]
        for entry in entries:
            with pytest.raises(ValueError) as exc:
                entry()
            assert str(exc.value) == message


class TestDeltaC:
    def test_limits(self):
        assert delta_C(1e8, 1, 10.0) == pytest.approx(1.0, abs=1e-7)
        assert delta_C(1e-3, 1, 10.0) == pytest.approx(2.0, abs=1e-6)

    def test_at_least_one_everywhere(self):
        for b in np.geomspace(1e-3, 1e3, 60):
            assert delta_C(float(b), 1, 10.0) >= 1.0 - 1e-15
            assert delta_C(float(b), 2, 5.0) >= 1.0 - 1e-15

    def test_zero_radius_is_refused(self):
        with pytest.raises(ValueError, match="radius A must be an integer >= 1"):
            delta_C(3.0, 0, 10.0)

    def test_sensitivity_wider_than_domain_raises(self):
        with pytest.raises(InfeasibleParamsError):
            delta_C(1.0, 3, 5.0)


def _denominator_direct(b: float, params: PrivacyParams, n: float) -> float:
    """The scale inequality's denominator, rebuilt with plain exp/log."""
    ratio = oc.direct_normalizer(2.0 * params.A, b, n) / oc.direct_normalizer(0.0, b, n)
    return params.epsilon - math.log(ratio) - math.log(1.0 - params.delta)


def _feasible_direct(b: float, params: PrivacyParams, n: float) -> bool:
    d = _denominator_direct(b, params, n)
    return d > 0.0 and b * d >= 2.0 * params.A


class TestSolveScale:
    @pytest.mark.parametrize(
        "n, want",
        [(10.0, 7.583004), (5.0, 6.858355), (30.0, 7.947878)],
    )
    def test_reference_values(self, n, want):
        assert solve_scale_b(P_DEFAULT, n) == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize(
        "params, n",
        [
            (P_DEFAULT, 10.0),
            (P_DEFAULT, 5.0),
            (PrivacyParams(epsilon=2.0, delta=0.05), 30.0),
            (PrivacyParams(epsilon=0.1, delta=0.01), 12.0),
            (PrivacyParams(epsilon=1.0, delta=0.2, A=2), 9.0),
        ],
    )
    def test_feasible_and_minimal(self, params, n):
        b = solve_scale_b(params, n)
        assert _feasible_direct(b, params, n)
        # the bracket is at most 1e-6 wide and its upper end is returned,
        # so two tolerances below must already be infeasible
        assert not _feasible_direct(b - 2e-6, params, n)

    def test_agrees_with_brentq_root(self):
        for n in (5.0, 10.0, 30.0):

            def gap(b):
                return b * _denominator_direct(b, P_DEFAULT, n) - 2.0 * P_DEFAULT.A

            root = optimize.brentq(gap, 0.5, 1e3, xtol=1e-10)
            assert solve_scale_b(P_DEFAULT, n) == pytest.approx(root, abs=2e-6)

    def test_monotone_in_budget(self):
        n = 10.0
        bs_eps = [
            solve_scale_b(PrivacyParams(epsilon=e, delta=0.05), n)
            for e in (0.1, 0.4, 1.0, 2.0)
        ]
        assert bs_eps == sorted(bs_eps, reverse=True)
        bs_delta = [
            solve_scale_b(PrivacyParams(epsilon=0.4, delta=d), n)
            for d in (0.01, 0.05, 0.2)
        ]
        assert bs_delta == sorted(bs_delta, reverse=True)

    def test_sensitivity_wider_than_domain_raises(self):
        with pytest.raises(InfeasibleParamsError):
            solve_scale_b(PrivacyParams(epsilon=0.4, delta=0.05, A=3), 5.0)

    def test_tighter_tolerance_converges_downward(self):
        coarse = solve_scale_b(P_DEFAULT, 10.0, tol=1e-6)
        fine = solve_scale_b(P_DEFAULT, 10.0, tol=1e-10)
        assert fine <= coarse + 1e-12
        assert coarse - fine <= 1e-6

    def test_rejects_bad_tolerance(self):
        # a NaN or infinite tol would end the search at the bracket top
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_scale_b(P_DEFAULT, 10.0, tol=tol)

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(0.05, 5.0),
        delta=st.floats(1e-6, 0.5),
        A=st.sampled_from([1, 2, 3]),
        u=st.floats(0.0, 1.0),
    )
    def test_feasible_minimal_and_quick_over_budgets(self, eps, delta, A, u):
        """Over budgets and n log-spaced in [2A, 1e6]: the result is
        feasible, one tolerance below it is not, and the solve makes at
        most 12 delta_C calls, where bisection makes about 37."""
        params = PrivacyParams(epsilon=eps, delta=delta, A=A)
        n = 2.0 * A * (1e6 / (2.0 * A)) ** u
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(privacy_mechanism, "delta_C", lambda *a: calls.append(a) or delta_C(*a))
            b = solve_scale_b(params, n)
        assert len(calls) <= 12
        assert _feasible_direct(b, params, n)
        assert not _feasible_direct(b - 1e-6, params, n)

    def test_tiny_budget_is_bad_input(self):
        # the bracket's upper end 1e4 * 2A / epsilon overflows to inf
        with pytest.raises(ValueError, match="positive and finite"):
            solve_scale_b(PrivacyParams(epsilon=1e-305, delta=1e-5), 10.0)


class TestBoundedLaplace:
    DIST = BoundedLaplaceDist(center=1.0, scale_b=7.39, domain_upper_n=10.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BoundedLaplaceDist(center=1.0, scale_b=0.0, domain_upper_n=10.0)
        with pytest.raises(ValueError):
            BoundedLaplaceDist(center=-0.5, scale_b=1.0, domain_upper_n=10.0)
        with pytest.raises(ValueError):
            BoundedLaplaceDist(center=1.0, scale_b=1.0, domain_upper_n=0.0)

    @pytest.mark.parametrize(
        "center, b, n",
        [(1.0, 7.39, 10.0), (0.0, 2.0, 6.0), (5.0, 0.4, 5.0), (9.5, 30.0, 10.0)],
    )
    def test_density_normalizes_and_matches_kernel(self, center, b, n):
        # the density is the cdf's: each of its steps over a 16-piece grid
        # is the kernel's mass there, the steps add up to 1, and it is flat
        # outside [0, n]
        dist = BoundedLaplaceDist(center=center, scale_b=b, domain_upper_n=n)
        grid = np.linspace(0.0, n, 17)
        cdf = dist.cdf(grid)
        for lo, hi, step in zip(grid.tolist(), grid[1:].tolist(), np.diff(cdf).tolist()):
            mass, _ = integrate.quad(
                oc.bounded_laplace_pdf, lo, hi, args=(center, b, n),
                points=[center] if lo < center < hi else None, limit=200, epsabs=1e-13,
            )
            assert step == pytest.approx(mass, abs=1e-12)
        assert cdf[-1] - cdf[0] == pytest.approx(1.0, abs=1e-10)
        assert dist.cdf(-1e-9) == 0.0
        assert dist.cdf(n + 1e-9) == 1.0

    def test_cdf_is_the_integral_of_pdf(self):
        dist = self.DIST
        law = (dist.center, dist.scale_b, dist.domain_upper_n)
        for x in (0.3, 1.0, 2.5, 7.0, 9.99):
            mass, _ = integrate.quad(
                oc.bounded_laplace_pdf, 0.0, x, args=law,
                points=[dist.center] if x > dist.center else None, limit=200, epsabs=1e-13,
            )
            assert dist.cdf(x) == pytest.approx(mass, abs=1e-10)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(10.0) == pytest.approx(1.0, rel=1e-12)
        assert dist.cdf(-5.0) == 0.0
        assert dist.cdf(25.0) == 1.0

    @pytest.mark.parametrize("b", [1e-4, 0.01])
    @pytest.mark.parametrize("center", [0.0, 1.3, 4.0])
    def test_a_steep_cdf_stays_exact(self, center, b):
        # x / b reaches 4e4 at b = 1e-4, far past exp's range: the cdf must
        # neither overflow nor warn (a warning fails the suite)
        dist = BoundedLaplaceDist(center=center, scale_b=b, domain_upper_n=4.0)
        xs = np.linspace(0.0, 4.0, 801)
        cdf = dist.cdf(xs)
        want = [oc.mp_mass(center, b, 4.0, 0.0, x) for x in xs.tolist()]
        assert np.abs(cdf - want).max() <= 1e-12
        assert (np.diff(cdf) >= 0.0).all()

    def test_quantile_round_trips(self):
        dist = self.DIST
        xs = np.linspace(1e-6, 10.0 - 1e-6, 2001)
        back = dist.inverse_cdf(dist.cdf(xs))
        assert np.abs(back - xs).max() <= 1e-9
        us = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        forward = dist.cdf(dist.inverse_cdf(us))
        assert np.abs(forward - us).max() <= 1e-9

    def test_quantile_rejects_closed_endpoints(self):
        with pytest.raises(ValueError):
            self.DIST.inverse_cdf(0.0)
        with pytest.raises(ValueError):
            self.DIST.inverse_cdf(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            self.DIST.inverse_cdf(math.nan)
        with pytest.raises(ValueError):
            self.DIST.inverse_cdf(np.array([0.5, math.nan]))

    def test_sampling_is_seed_deterministic(self):
        a = self.DIST.sample(np.random.default_rng(123), size=1000)
        b = self.DIST.sample(np.random.default_rng(123), size=1000)
        assert np.array_equal(a, b)
        assert isinstance(self.DIST.sample(np.random.default_rng(0)), float)

    def test_exact_zero_draws_are_redrawn(self):
        """rng.random covers [0, 1) and the quantile needs (0, 1): zeros
        are replaced, in order, by the next doubles of the same stream,
        and a zero among the replacements is replaced again."""
        rest = np.random.default_rng(8).random(6)
        got = self.DIST.sample(_ZerosFirst(3, rest))
        assert isinstance(got, float)
        assert got == self.DIST.inverse_cdf(rest[0])
        got = self.DIST.sample(_ZerosFirst(7, rest), size=(2, 3))
        want_u = np.array([rest[5], rest[0], rest[1], rest[2], rest[3], rest[4]])
        assert np.array_equal(got, self.DIST.inverse_cdf(want_u.reshape(2, 3)))

    def test_samples_follow_the_cdf(self):
        """Kolmogorov-Smirnov distance at 1e6 draws; 0.002 is ~4x the
        99th-percentile KS quantile, far above seed-to-seed wobble."""
        rng = np.random.default_rng(2024)
        draws = self.DIST.sample(rng, size=1_000_000)
        assert draws.min() >= 0.0 and draws.max() <= 10.0
        sorted_draws = np.sort(draws)
        grid = self.DIST.cdf(sorted_draws)
        k = np.arange(1, draws.size + 1) / draws.size
        ks = float(np.abs(grid - k).max())
        assert ks < 0.002


class TestSampleFollowsTheCountedLaw:
    """The DP and concentration audits count with the cdf, while a release
    draws with `sample`: both must be one law. Each draw is the quantile
    of the generator's next double, lies in a bin of audit_dp's default
    50-bin histogram whose cdf mass is positive, and the draws stay inside
    the Dvoretzky-Kiefer-Wolfowitz band of the cdf at level 1e-9."""

    N = 10.0

    @pytest.mark.parametrize("center", [0.0, 3.0, N])
    @pytest.mark.parametrize("b", [0.01, solve_scale_b(P_DEFAULT, N), 1e3])
    # the short size is the last block of 100,003 draws in blocks of 2^15
    @pytest.mark.parametrize("size", [1, 2, 100_003 % (1 << 15), 1 << 15])
    def test_draws_lie_where_the_audits_count_mass(self, center, b, size):
        dist = BoundedLaplaceDist(center=center, scale_b=b, domain_upper_n=self.N)
        got = dist.sample(np.random.default_rng(31), size)
        # seed 31 draws no exact zero at these sizes, so nothing is redrawn
        assert np.array_equal(got, dist.inverse_cdf(np.random.default_rng(31).random(size)))
        assert got.min() >= 0.0 and got.max() <= self.N

        edges = np.linspace(0.0, self.N, 51)
        masses = np.diff(dist.cdf(edges))
        assert (masses >= 0.0).all()
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        hit = np.minimum(np.searchsorted(edges, got, side="right") - 1, masses.size - 1)
        assert (masses[hit] > 0.0).all()

        # DKW: P(sup |F_size - F| > eps) <= 2 exp(-2 size eps^2) = 1e-9
        eps = math.sqrt(math.log(2e9) / (2 * size))
        F = dist.cdf(np.sort(got))
        k = np.arange(1, size + 1) / size
        assert max(np.abs(k - F).max(), np.abs(F - (k - 1.0 / size)).max()) <= eps


class _ZerosFirst:
    """Stands in for a Generator whose first doubles are exact zeros."""

    def __init__(self, zeros, rest):
        self._doubles = iter([0.0] * zeros + list(rest))

    def random(self, size=None):
        if size is None:
            return next(self._doubles)
        shape = np.empty(size).shape
        return np.fromiter(self._doubles, float, count=math.prod(shape)).reshape(shape)


class TestPrivatize:
    def test_release_is_reproducible_and_in_domain(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        r1 = privatize(g, P_DEFAULT, np.random.default_rng(9))
        r2 = privatize(g, P_DEFAULT, np.random.default_rng(9))
        assert r1.lambda2_tilde == r2.lambda2_tilde
        assert 0.0 <= r1.lambda2_tilde <= 4.0
        assert r1.n == 4
        assert r1.params == P_DEFAULT
        assert r1.scale_b == pytest.approx(solve_scale_b(P_DEFAULT, 4.0), abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_release_is_centred_on_the_certified_lambda2(self, seed):
        g = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
        b = solve_scale_b(P_DEFAULT, 12.0)
        dist = BoundedLaplaceDist(center=algebraic_connectivity(g), scale_b=b, domain_upper_n=12.0)
        got = privatize(g, P_DEFAULT, np.random.default_rng(seed)).lambda2_tilde
        assert got == float(dist.sample(np.random.default_rng(seed)))

    def test_disconnected_graph_releases_from_zero(self):
        g = Graph.from_edges(4, [(0, 1)])
        r = privatize(g, P_DEFAULT, np.random.default_rng(1))
        assert 0.0 <= r.lambda2_tilde <= 4.0

    def test_as_dict_never_carries_the_true_value(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d = dataclasses.asdict(privatize(g, P_DEFAULT, np.random.default_rng(9)))
        assert set(d) == {"lambda2_tilde", "scale_b", "n", "params"}
        assert set(d["params"]) == {"epsilon", "delta", "A"}

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_public_fields_do_not_depend_on_the_graph(self, seed):
        # the 10-node path and cycle differ in lambda2 (0.098 vs 0.382);
        # only the noisy draw may tell them apart
        path = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
        cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        assert spectrum(path).lambda2 != pytest.approx(spectrum(cycle).lambda2, abs=0.1)
        d1 = dataclasses.asdict(privatize(path, P_DEFAULT, np.random.default_rng(seed)))
        d2 = dataclasses.asdict(privatize(cycle, P_DEFAULT, np.random.default_rng(seed)))
        assert d1.pop("lambda2_tilde") != d2.pop("lambda2_tilde")
        assert d1 == d2


class TestPrivacySoundness:
    """The solved scale must make every adjacent pair (epsilon, delta)
    indistinguishable; the exact achieved delta is an integral of the
    positive part of p1 - e^eps p2, evaluated by quadrature."""

    def test_solved_scale_is_private_at_the_extremes(self):
        n = 5.0
        b = solve_scale_b(P_DEFAULT, n)
        worst = 0.0
        for c1, c2 in [(5.0, 3.0), (3.0, 5.0), (0.0, 2.0), (2.0, 0.0), (2.5, 4.5)]:
            worst = max(worst, oc.achieved_delta(c1, c2, b, n, P_DEFAULT.epsilon))
        assert worst <= P_DEFAULT.delta + 1e-9

    def test_solved_scale_is_private_on_random_pairs(self):
        n, eps = 10.0, P_DEFAULT.epsilon
        b = solve_scale_b(P_DEFAULT, n)
        rng = np.random.default_rng(31)
        for _ in range(40):
            c1 = float(rng.uniform(0.0, n))
            c2 = float(np.clip(c1 + rng.uniform(-2.0, 2.0), 0.0, n))
            assert oc.achieved_delta(c1, c2, b, n, eps) <= P_DEFAULT.delta + 1e-9

    def test_half_scale_breaks_privacy(self):
        n = 5.0
        b = solve_scale_b(P_DEFAULT, n)
        leaked = max(
            oc.achieved_delta(5.0, 3.0, b / 2.0, n, P_DEFAULT.epsilon),
            oc.achieved_delta(3.0, 5.0, b / 2.0, n, P_DEFAULT.epsilon),
        )
        assert leaked > P_DEFAULT.delta
