import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from privconn import (
    diameter_bounds_exact,
    exact_bounds,
    expected_bounds,
    expected_inv_sqrt_lambda2,
    expected_lambda2,
    mean_distance_bounds_exact,
    min_degree_inference,
    optimize_alpha,
    spectrum,
)

import oracles as oc

ALPHAS = (1.5, 2.0, math.e, 4.0)


class TestScaledSpecialFunctions:
    """The library special functions expected_inv_sqrt_lambda2 is built
    from, called the way it calls them."""

    def test_scaled_gamma_half_matches_mpmath(self):
        # e^x Gamma(1/2, x) = sqrt(pi) erfcx(sqrt(x)), past where e^x overflows
        for x in np.geomspace(1e-8, 1e8, 80):
            want = mp.exp(mp.mpf(x)) * mp.gammainc(mp.mpf("0.5"), mp.mpf(x))
            got = math.sqrt(math.pi) * float(special.erfcx(math.sqrt(x)))
            assert got == pytest.approx(float(want), rel=1e-13)
        assert float(special.erfcx(0.0)) == 1.0

    def test_scaled_gamma_half_erfc_identity(self):
        # unscaled, the same product is sqrt(pi) erfc(sqrt(x)) while e^-x is normal
        for x in np.geomspace(1e-6, 200.0, 40):
            want = math.sqrt(math.pi) * float(special.erfc(math.sqrt(x)))
            got = math.sqrt(math.pi) * float(special.erfcx(math.sqrt(x))) * math.exp(-x)
            assert got == pytest.approx(want, rel=1e-12, abs=5e-300)

    def test_dawson_piece_matches_erfi(self):
        # the below-center mass: 2 D(x) = sqrt(pi) e^{-x^2} erfi(x)
        for x in np.geomspace(1e-8, 25.0, 50):
            want = math.sqrt(math.pi) * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(mp.mpf(x))
            assert 2.0 * float(special.dawsn(x)) == pytest.approx(float(want), rel=1e-10)
        assert float(special.dawsn(0.0)) == 0.0

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
                d_lo, d_hi = diameter_bounds_exact(
                    summ.lambda2, summ.lambda_n, n, alpha
                )
                r_lo, r_hi = mean_distance_bounds_exact(
                    summ.lambda2, summ.lambda_n, n, alpha
                )
                assert d_lo <= d_true + 1e-9, (edges, alpha)
                assert d_true <= d_hi + 1e-9, (edges, alpha)
                assert r_lo <= rho_true + 1e-9, (edges, alpha)
                assert rho_true <= r_hi + 1e-9, (edges, alpha)

    def test_report_matches_the_pairwise_functions(self):
        rep = exact_bounds(1.0, 8.0, 10, alpha_d=2.0, alpha_rho=3.0)
        assert (rep.d_lower, rep.d_upper) == diameter_bounds_exact(1.0, 8.0, 10, 2.0)
        assert (rep.rho_lower, rep.rho_upper) == mean_distance_bounds_exact(
            1.0, 8.0, 10, 3.0
        )
        assert rep.mode == "exact"
        assert rep.b is None

    def test_two_nodes_diameter_upper_is_two(self):
        # log(n/2) = 0, so the upper bound is 2 whatever the base
        for lam2, lam_n in [(2.0, 2.0), (0.5, 3.0), (1e-3, 40.0)]:
            assert exact_bounds(lam2, lam_n, 2).d_upper == 2.0

    def test_dict_layout(self):
        d = exact_bounds(1.0, 8.0, 10).as_dict()
        assert list(d) == [
            "d_lower", "d_upper", "rho_lower", "rho_upper",
            "alpha_d", "alpha_rho", "mode", "lambda2", "lambda_n", "n", "b",
        ]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: diameter_bounds_exact(2.0, 1.0, 5, 2.0),   # swapped eigenvalues
            lambda: diameter_bounds_exact(1.0, 2.0, 5, 1.0),   # base must exceed 1
            lambda: diameter_bounds_exact(1.0, 2.0, 5, 0.5),
            lambda: diameter_bounds_exact(0.0, 2.0, 5, 2.0),   # disconnected
            lambda: diameter_bounds_exact(1.0, 2.0, 1, 2.0),
            lambda: mean_distance_bounds_exact(-1.0, 2.0, 5, 2.0),
            lambda: optimize_alpha("girth", 1.0, 2.0, 5),
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
        fn = diameter_bounds_exact if kind == "diameter" else mean_distance_bounds_exact
        return lambda alpha: fn(lam2, lam_n, n, alpha)[1]

    @pytest.mark.parametrize("kind, lam2, lam_n, n", CASES)
    def test_beats_a_dense_grid(self, kind, lam2, lam_n, n):
        objective = self._objective(kind, lam2, lam_n, n)
        star = optimize_alpha(kind, lam2, lam_n, n)
        best = objective(star)
        grid_best = min(
            objective(float(a)) for a in np.geomspace(1.0 + 1e-6, 1e3, 4001)
        )
        assert best <= grid_best + 1e-9 * (1.0 + abs(grid_best))

    @pytest.mark.parametrize("kind, lam2, lam_n, n", CASES)
    def test_beats_the_conventional_bases(self, kind, lam2, lam_n, n):
        objective = self._objective(kind, lam2, lam_n, n)
        best = objective(optimize_alpha(kind, lam2, lam_n, n))
        assert best <= objective(2.0) + 1e-12
        assert best <= objective(math.e) + 1e-12

    def test_diameter_base_does_not_depend_on_the_graph(self):
        """The diameter objective factors as const + scale * K(alpha) /
        log(alpha), so its minimizer is one universal constant."""
        stars = {
            optimize_alpha("diameter", lam2, lam_n, n)
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

    @pytest.mark.parametrize("noise_ratio", [1.0, 1e3, 1e5, 1e7, 1e9])
    def test_moments_under_heavy_noise(self, noise_ratio):
        # b >> n (epsilon * n tiny): the law is nearly uniform on [0, n],
        # where the b < n closed forms subtract nearly equal terms
        for n in (6.0, 10.0, 100.0):
            b = noise_ratio * n
            for lam2 in (0.0, 0.1 * n, 0.5 * n, 0.9 * n, n):
                assert expected_lambda2(lam2, b, n) == pytest.approx(
                    oc.mp_expectation(lambda x: x, lam2, b, n), rel=1e-13
                ), (lam2, n)
                assert expected_inv_sqrt_lambda2(lam2, b, n) == pytest.approx(
                    oc.mp_expectation(lambda x: 1 / mp.sqrt(x), lam2, b, n), rel=1e-13
                ), (lam2, n)

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
            optimize_alpha("diameter", lam_eff, lam_n, n), rel=1e-9
        )
        assert rep.d_upper == pytest.approx(
            diameter_bounds_exact(lam_eff, lam_n, n, rep.alpha_d)[1], rel=1e-9
        )
        assert rep.rho_upper == pytest.approx(
            mean_distance_bounds_exact(lam_eff, lam_n, n, rep.alpha_rho)[1], rel=1e-9
        )
        # lower bounds: plain first moment in place of lambda2
        mean = expected_lambda2(lam2, b, float(n))
        assert rep.d_lower == pytest.approx(
            diameter_bounds_exact(mean, lam_n, n, 2.0)[0], rel=1e-12
        )
        assert rep.rho_lower == pytest.approx(
            mean_distance_bounds_exact(mean, lam_n, n, 2.0)[0], rel=1e-12
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
