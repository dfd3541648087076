import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from privconn import (
    exact_bounds,
    expected_bounds,
    expected_inv_sqrt_lambda2,
    expected_lambda2,
    min_degree_inference,
    spectrum,
)
from privconn.property_bounds import (
    _dawson,
    _erfcx,
    _gamma2,
    _mean_distance_upper,
    _rho_slope,
)

import oracles as oc

ALPHAS = (1.5, 2.0, math.e, 4.0)


def _around(*switches, steps=3):
    """Each branch switch and the `steps` floats on either side of it."""
    out = []
    for x in switches:
        below = above = x
        for _ in range(steps):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
        out.append(x)
    return out


# arguments of the three private functions, with every branch switch
GAMMA2_ARGS = [*np.geomspace(1e-12, 800.0, 120), *_around(1.0)]
ERFCX_ARGS = [*np.sqrt(np.geomspace(1e-8, 1e8, 80)), *_around(5.0)]
DAWSON_ARGS = [*np.geomspace(1e-8, 1e4, 120), *_around(1.0, 6.0)]


def _mp_dawson(x):
    # D(x) = (sqrt(pi) / 2) e^{-x^2} erfi(x), at 40 digits: at mpmath's
    # default 15 the product is already 1.3e-13 off at x = 48
    with mp.workdps(40):
        return float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(mp.mpf(x)))


class TestScaledSpecialFunctions:
    """The private special functions the release's moments are built
    from, called the way they call them. abs=0 keeps pytest.approx from
    adding its default 1e-12 absolute slack to the relative tolerances."""

    def test_scaled_gamma_half_matches_mpmath(self):
        # e^x Gamma(1/2, x) = sqrt(pi) erfcx(sqrt(x)), past where e^x overflows
        for a in ERFCX_ARGS:
            with mp.workdps(40):
                x = mp.mpf(a) ** 2
                want = mp.exp(x) * mp.gammainc(mp.mpf("0.5"), x)
            got = math.sqrt(math.pi) * _erfcx(a)
            assert got == pytest.approx(float(want), rel=1e-13, abs=0.0), a
        assert _erfcx(0.0) == 1.0

    def test_scaled_gamma_half_erfc_identity(self):
        # unscaled, the same product is sqrt(pi) erfc(sqrt(x)) while e^-x is normal
        for x in np.geomspace(1e-6, 200.0, 40):
            want = math.sqrt(math.pi) * float(special.erfc(math.sqrt(x)))
            got = math.sqrt(math.pi) * _erfcx(math.sqrt(x)) * math.exp(-x)
            assert got == pytest.approx(want, rel=1e-12, abs=5e-300)

    def test_dawson_piece_matches_erfi(self):
        # the below-center mass: 2 D(x) = sqrt(pi) e^{-x^2} erfi(x)
        for x in DAWSON_ARGS:
            assert 2.0 * _dawson(x) == pytest.approx(2.0 * _mp_dawson(x), rel=1e-13, abs=0.0), x
        assert _dawson(0.0) == 0.0

    def test_gamma2_matches_mpmath(self):
        for z in GAMMA2_ARGS:
            with mp.workdps(40):
                want = mp.gammainc(2, 0, mp.mpf(z), regularized=True)
            assert _gamma2(z) == pytest.approx(float(want), rel=1e-13, abs=0.0), z
        assert _gamma2(0.0) == 0.0

    def test_limits_at_infinity(self):
        # a subnormal scale b sends lambda2 / b to inf; each function
        # returns its limit there instead of nan or an OverflowError
        assert (_gamma2(math.inf), _erfcx(math.inf), _dawson(math.inf)) == (1.0, 0.0, 0.0)

    def test_agree_with_scipy(self):
        # scipy.special is what the moments called before; its dawsn is
        # itself 1.0-1.5e-14 off mpmath on x in [0.0101, 0.0149], where
        # test_dawson_piece_matches_erfi alone holds
        for z in GAMMA2_ARGS:
            assert _gamma2(z) == pytest.approx(float(special.gammainc(2.0, z)), rel=1e-14, abs=0.0), z
        for x in ERFCX_ARGS:
            assert _erfcx(x) == pytest.approx(float(special.erfcx(x)), rel=1e-14, abs=0.0), x
        for x in DAWSON_ARGS:
            if not 0.01 <= x <= 0.015:
                assert _dawson(x) == pytest.approx(float(special.dawsn(x)), rel=1e-14, abs=0.0), x

    def test_center_outside_the_support_raises(self):
        with pytest.raises(ValueError):
            expected_inv_sqrt_lambda2(-1e-9, 1.0, 5.0)
        with pytest.raises(ValueError):
            expected_inv_sqrt_lambda2(5.0 + 1e-9, 1.0, 5.0)


class TestExactBoundsSandwich:
    """Every bound must contain the true diameter and mean distance for
    every connected graph up to n = 5, at several spread bases."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_connected_graphs(self, n):
        from privconn import Graph

        for edges in oc.connected_edge_sets(n):
            g = Graph.from_edges(n, edges)
            summ = spectrum(g)
            dist = oc.floyd_warshall(n, edges)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            d_true = max(dist[i][j] for i, j in pairs)
            rho_true = sum(dist[i][j] for i, j in pairs) / len(pairs)
            for alpha in ALPHAS:
                rep = exact_bounds(summ.lambda2, summ.lambda_n, n, alpha)
                d_lo, d_hi = rep.d_lower, rep.d_upper
                r_lo, r_hi = rep.rho_lower, rep.rho_upper
                assert d_lo <= d_true + 1e-9, (edges, alpha)
                assert d_true <= d_hi + 1e-9, (edges, alpha)
                assert r_lo <= rho_true + 1e-9, (edges, alpha)
                assert rho_true <= r_hi + 1e-9, (edges, alpha)

    def test_two_nodes_diameter_upper_is_two(self):
        # log(n/2) = 0, so the upper bound is 2 whatever the base
        for lam2, lam_n in [(2.0, 2.0), (0.5, 3.0), (1e-3, 40.0)]:
            assert exact_bounds(lam2, lam_n, 2).d_upper == 2.0

    def test_dict_layout(self):
        d = exact_bounds(1.0, 8.0, 10, 3.0).as_dict()
        assert list(d) == [
            "d_lower", "d_upper", "rho_lower", "rho_upper",
            "alpha_d", "alpha_rho", "mode", "lambda2", "lambda_n", "n", "b",
        ]
        # a pinned base serves both bounds
        assert (d["alpha_d"], d["alpha_rho"], d["mode"], d["b"]) == (3.0, 3.0, "exact", None)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: exact_bounds(2.0, 1.0, 5, 2.0),   # swapped eigenvalues
            lambda: exact_bounds(1.0, 2.0, 5, 1.0),   # base must exceed 1
            lambda: exact_bounds(1.0, 2.0, 5, 0.5),
            lambda: exact_bounds(0.0, 2.0, 5, 2.0),   # disconnected
            lambda: exact_bounds(1.0, 2.0, 1, 2.0),
            lambda: exact_bounds(-1.0, 2.0, 5, 2.0),
            lambda: exact_bounds(1.0, 2.0, 5, math.inf),   # base must be finite
            lambda: exact_bounds(1.0, math.nan, 10),           # non-finite eigenvalues
            lambda: exact_bounds(1.0, math.inf, 10),
            lambda: exact_bounds(math.nan, 9.0, 10),
            lambda: exact_bounds(math.inf, math.inf, 10),
            lambda: exact_bounds(1.0, math.nan, 10, 2.0),
        ],
    )
    def test_preconditions(self, call):
        with pytest.raises(ValueError):
            call()

    def test_swapped_arguments_get_a_hint(self):
        with pytest.raises(ValueError, match="swapped"):
            exact_bounds(5.0, 1.0, 6)


class TestAlphaOptimizer:
    CASES = [
        ("diameter", 1.0, 8.0, 10),
        ("diameter", 0.3, 25.0, 30),
        ("mean_distance", 1.0, 8.0, 10),
        ("mean_distance", 0.3, 25.0, 30),
        ("mean_distance", 2.0, 4.0, 5),
    ]

    @staticmethod
    def _objective(kind, lam2, lam_n, n):
        field = "d_upper" if kind == "diameter" else "rho_upper"
        return lambda alpha: getattr(exact_bounds(lam2, lam_n, n, alpha), field)

    @staticmethod
    def _optimized(kind, lam2, lam_n, n):
        rep = exact_bounds(lam2, lam_n, n)
        return rep.alpha_d if kind == "diameter" else rep.alpha_rho

    @pytest.mark.parametrize("kind, lam2, lam_n, n", CASES)
    def test_beats_a_dense_grid(self, kind, lam2, lam_n, n):
        objective = self._objective(kind, lam2, lam_n, n)
        star = self._optimized(kind, lam2, lam_n, n)
        best = objective(star)
        grid_best = min(
            objective(float(a)) for a in np.geomspace(1.0 + 1e-6, 1e3, 4001)
        )
        assert best <= grid_best + 1e-9 * (1.0 + abs(grid_best))

    @pytest.mark.parametrize("kind, lam2, lam_n, n", CASES)
    def test_beats_the_conventional_bases(self, kind, lam2, lam_n, n):
        objective = self._objective(kind, lam2, lam_n, n)
        best = objective(self._optimized(kind, lam2, lam_n, n))
        assert best <= objective(2.0) + 1e-12
        assert best <= objective(math.e) + 1e-12

    def test_diameter_base_does_not_depend_on_the_graph(self):
        """The diameter objective factors as const + scale * K(alpha) /
        log(alpha), so its minimizer is one universal constant."""
        stars = {
            exact_bounds(lam2, lam_n, n).alpha_d
            for lam2, lam_n, n in [
                (1.0, 8.0, 10),
                (0.05, 40.0, 48),
                (2.0, 3.0, 3),
                (0.7, 12.0, 25),
                (2.0, 2.0, 2),
            ]
        }
        stars.add(exact_bounds(0.7, 12.0, 25).alpha_d)
        stars.add(expected_bounds(1.0, 7.39, 8.0, 10).alpha_d)
        assert len(stars) == 1
        assert stars.pop() == pytest.approx(6.786993, abs=1e-6)


class TestBaseSearchAssumption:
    """The mean-distance base is the sign change of _rho_slope, found by a
    root-finder that assumes one sign change, from - to +, over
    [1 + 1e-6, 1e3]. No proof covers every (S, n), so check it on a grid."""

    SPREADS = np.geomspace(1e-3, 1e5, 300)
    NODES = (2, 3, 10, 10**3, 10**6, 10**9)
    ALPHAS = np.geomspace(1.0 + 1e-6, 1e3, 20001)

    def test_slope_changes_sign_at_most_once_from_below(self):
        # _rho_slope written out again with numpy, from
        # K = sqrt((alpha^2 - 1) / (4 alpha)), K' = (alpha^2 + 1) / (8 alpha^2 K)
        alpha = self.ALPHAS
        K = np.sqrt((alpha * alpha - 1.0) / (4.0 * alpha))
        ln_alpha = np.log(alpha)
        dK_alpha_ln = (alpha * alpha + 1.0) / (8.0 * alpha * alpha * K) * alpha * ln_alpha
        probe = slice(None, None, 2000)
        for n in self.NODES:
            ell = math.log(n / 2.0)
            for S in self.SPREADS:
                slope = S * dK_alpha_ln * (ln_alpha / 2.0 + ell) - (S * K + 1.0) * ell
                rising = (slope >= 0.0).astype(np.int8)
                assert (np.diff(rising) >= 0).all(), (S, n)
                got = [_rho_slope(float(a), float(S), ell) for a in alpha[probe]]
                assert got == pytest.approx(slope[probe], rel=1e-12, abs=1e-12 * ell), (S, n)

    def test_slope_sign_matches_a_central_difference(self):
        for n in self.NODES:
            ell = math.log(n / 2.0)
            for S in self.SPREADS[::10]:
                S = float(S)
                for alpha in np.geomspace(1.0 + 1e-5, 1e3, 40):
                    alpha, h = float(alpha), 1e-6 * float(alpha)
                    upper = _mean_distance_upper(S, n, alpha)
                    diff = _mean_distance_upper(S, n, alpha + h) - _mean_distance_upper(S, n, alpha - h)
                    if abs(diff) <= 1e-11 * upper:
                        continue  # rounding noise decides the sign
                    assert (diff > 0.0) == (_rho_slope(alpha, S, ell) > 0.0), (S, n, alpha)


class TestExpectedMoments:
    @pytest.mark.parametrize(
        "lam2, b, n",
        [
            (1.0, 7.39, 10.0),
            (0.0, 2.0, 6.0),
            (6.0, 2.0, 6.0),
            (2.5, 0.3, 5.0),
            (4.0, 0.25, 10.0),   # n/b = 40
            (24.0, 31.0, 25.0),
            # lambda2/b > 30 and n/b >> 30, where e^x Gamma(1/2, x) needs
            # the scaled form
            (20.0, 0.5, 40.0),
            (9.0, 0.1, 10.0),
            (50.0, 1.0, 1000.0),
            (3.0, 0.002, 6.0),
        ],
    )
    def test_match_quadrature(self, lam2, b, n):
        assert expected_lambda2(lam2, b, n) == pytest.approx(
            oc.quad_expectation(lambda x: x, lam2, b, n), rel=1e-10
        )
        assert expected_inv_sqrt_lambda2(lam2, b, n) == pytest.approx(
            oc.quad_inv_sqrt_expectation(lam2, b, n), rel=1e-10
        )

    @pytest.mark.parametrize("noise_ratio", [0.01, 0.1, 0.5, 1.0, 1e3, 1e5, 1e7, 1e9])
    def test_moments_under_heavy_noise(self, noise_ratio):
        # b >> n (epsilon * n tiny): the law is nearly uniform on [0, n],
        # where expanded closed forms subtract nearly equal terms; the
        # ratios below 1 pin the same forms where the noise is light
        for n in (6.0, 10.0, 100.0):
            b = noise_ratio * n
            for lam2 in (0.0, 0.1 * n, 0.5 * n, 0.9 * n, n):
                assert expected_lambda2(lam2, b, n) == pytest.approx(
                    oc.mp_expectation(lambda x: x, lam2, b, n), rel=1e-13, abs=0.0
                ), (lam2, n)
                assert expected_inv_sqrt_lambda2(lam2, b, n) == pytest.approx(
                    oc.mp_expectation(lambda x: 1 / mp.sqrt(x), lam2, b, n), rel=1e-13, abs=0.0
                ), (lam2, n)

    @pytest.mark.parametrize(
        "lam2, b",
        [(0.5, 1e-310), (1.0, 1e-310), (1e-15, 5e-324), (10.0, 5e-324)]
        + [(lam2, 1e-300) for lam2 in (1e-15, 0.5, 1.0, 3.0, 10.0)],
    )
    def test_inv_sqrt_mean_at_a_vanishing_scale(self, lam2, b):
        # the law narrows onto lambda2, so the mean of 1/sqrt(draw) tends to
        # 1/sqrt(lambda2); at a subnormal b lambda2/b overflows, both
        # closed-form pieces underflow to 0, and the limit is returned
        n = 10.0
        got = expected_inv_sqrt_lambda2(lam2, b, n)
        assert got == pytest.approx(
            oc.mp_narrow_expectation(lambda x: 1 / mp.sqrt(x), lam2, b, n), rel=1e-13, abs=0.0
        )
        if math.isinf(lam2 / b):
            assert got == 1.0 / math.sqrt(lam2)

    @pytest.mark.parametrize("lam2", [0.5, 1.0, 3.0])
    def test_oracle_refuses_a_law_its_nodes_miss(self, lam2):
        # no node of mp_expectation lands inside a law 1e-300 wide, where
        # it used to read 0 for a mean of 1/sqrt(lambda2)
        with pytest.raises(ValueError, match="nodes miss the law"):
            oc.mp_expectation(lambda x: 1 / mp.sqrt(x), lam2, 1e-300, 10.0)

    def test_midpoint_center_is_unbiased(self):
        for n, b in [(10.0, 7.39), (6.0, 0.5), (30.0, 100.0)]:
            assert expected_lambda2(n / 2.0, b, n) == pytest.approx(
                n / 2.0, abs=1e-12
            )

    def test_bias_points_toward_the_midpoint(self):
        n, b = 10.0, 7.39
        assert expected_lambda2(1.0, b, n) > 1.0
        assert expected_lambda2(9.0, b, n) < 9.0

    def test_jensen_gap_is_positive(self):
        for lam2, b, n in [(1.0, 7.39, 10.0), (3.0, 1.0, 6.0), (0.5, 0.2, 4.0)]:
            inv_sqrt = expected_inv_sqrt_lambda2(lam2, b, n)
            assert inv_sqrt > 1.0 / math.sqrt(expected_lambda2(lam2, b, n))


class TestExpectedBounds:
    def test_recomputes_from_the_moment_functions(self):
        lam2, b, lam_n, n = 1.0, 7.39, 8.0, 10
        rep = expected_bounds(lam2, b, lam_n, n)
        assert rep.mode == "expected"
        assert rep.b == b
        # upper bounds: the expected spread is sqrt(lambda_n) * E[X^-1/2],
        # identical to the exact formula run at an effective lambda2
        lam_eff = 1.0 / expected_inv_sqrt_lambda2(lam2, b, float(n)) ** 2
        assert rep.alpha_d == pytest.approx(
            exact_bounds(lam_eff, lam_n, n).alpha_d, rel=1e-9
        )
        assert rep.d_upper == pytest.approx(
            exact_bounds(lam_eff, lam_n, n, rep.alpha_d).d_upper, rel=1e-9
        )
        assert rep.rho_upper == pytest.approx(
            exact_bounds(lam_eff, lam_n, n, rep.alpha_rho).rho_upper, rel=1e-9
        )
        # lower bounds: plain first moment in place of lambda2
        mean = expected_lambda2(lam2, b, float(n))
        assert rep.d_lower == pytest.approx(
            exact_bounds(mean, lam_n, n, 2.0).d_lower, rel=1e-12
        )
        assert rep.rho_lower == pytest.approx(
            exact_bounds(mean, lam_n, n, 2.0).rho_lower, rel=1e-12
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            expected_bounds(1.0, 7.39, 8.0, 1)
        with pytest.raises(ValueError):
            expected_bounds(-0.5, 7.39, 8.0, 10)
        with pytest.raises(ValueError):
            expected_bounds(11.0, 7.39, 8.0, 10)
        with pytest.raises(ValueError):
            expected_bounds(9.0, 7.39, 8.0, 10)   # lambda_n below lambda2
        for lam2, lam_n in [(1.0, math.nan), (1.0, math.inf), (math.nan, 8.0), (math.inf, math.inf)]:
            with pytest.raises(ValueError):
                expected_bounds(lam2, 7.39, lam_n, 10)


class TestMinDegree:
    def test_sound_on_every_connected_graph(self):
        from privconn import Graph, min_degree

        for n in range(2, 6):
            for edges in oc.connected_edge_sets(n):
                g = Graph.from_edges(n, edges)
                inferred = min_degree_inference(spectrum(g).lambda2, n)
                assert inferred <= min_degree(g), edges

    def test_tight_on_complete_graphs(self):
        from privconn import Graph

        for n in range(2, 7):
            edges = oc.edge_slots(n)
            lam2 = spectrum(Graph.from_edges(n, edges)).lambda2
            assert min_degree_inference(lam2, n) == n - 1

    def test_worked_example(self):
        assert min_degree_inference(2.0, 4) == 2

    def test_never_negative(self):
        assert min_degree_inference(0.0, 5) == 0

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_refuses_a_value_that_is_negative_or_not_finite(self, value):
        # math.ceil used to raise OverflowError on inf and an int
        # conversion error on nan; each is now refused by name, as
        # _check_pair does
        with pytest.raises(ValueError, match=f"connectivity value must be nonnegative and finite, got {value}"):
            min_degree_inference(value, 5)
