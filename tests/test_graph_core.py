import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privconn import (
    EdgeListError,
    Graph,
    diameter_exact,
    from_edge_list,
    is_connected,
    laplacian,
    mean_distance_exact,
    min_degree,
    spectrum,
    symmetric_difference_size,
)
from privconn.graph_core import laplacians

import oracles as oc


def _graph(n, edges):
    return Graph.from_edges(n, edges)


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


C4 = _graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P4 = _graph(4, [(0, 1), (1, 2), (2, 3)])


class TestParser:
    def test_happy_path_with_comments_and_blanks(self):
        text = """
        # a 4-cycle
        n=4

        0 1   # first edge
        1 2
        2 3
        3 0
        """
        g = from_edge_list(text)
        assert g.n == 4
        assert g.edges == C4.edges

    def test_duplicate_lines_collapse_to_one_edge(self):
        g = from_edge_list("n=3\n0 1\n1 0\n0 1\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_running_example_graph(self):
        # diamond: K4 minus the (0, 3) edge
        g = from_edge_list("n=4\n0 1\n0 2\n1 2\n1 3\n2 3\n")
        L = laplacian(g)
        assert np.trace(L) == 10.0
        assert min_degree(g) == 2
        assert spectrum(g).lambda2 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("0 1\n", "line 1"),
            ("n=one\n0 1\n", "line 1"),
            ("n=1\n", "at least 2"),
            ("n=3\n0 0\n", "self loop"),
            ("n=3\n0 5\n", "out of range"),
            ("n=3\n0 x\n", "not integers"),
            ("n=3\n0 1 2\n", "two endpoints"),
            ("", "missing node count"),
            ("# only a comment\n", "missing node count"),
        ],
    )
    def test_malformed_input_names_the_line(self, text, fragment):
        with pytest.raises(EdgeListError, match=fragment):
            from_edge_list(text)

    def test_error_line_numbers_count_raw_lines(self):
        with pytest.raises(EdgeListError, match="line 4"):
            from_edge_list("n=3\n# fine\n0 1\n0 0\n")


class TestGraphType:
    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(ValueError):
            Graph(n=0, edges=frozenset())

    def test_rejects_unnormalized_or_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(1, 0)}))
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(0, 3)}))

    def test_from_edges_normalizes_and_dedups(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_value_semantics(self):
        assert _graph(4, [(0, 1)]) == _graph(4, [(1, 0)])
        assert _graph(4, [(0, 1)]) != _graph(5, [(0, 1)])


class TestLaplacianBuilder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_batch_matches_per_graph_and_integer_oracle(self, n):
        slots = oc.edge_slots(n)
        edge_sets = list(oc.all_edge_sets(n))
        weights = [[float(s in edges) for s in slots] for edges in edge_sets]
        batch = laplacians(n, slots, weights)
        assert batch.shape == (len(edge_sets), n, n)
        for L, edges in zip(batch, edge_sets):
            single = laplacian(Graph(n=n, edges=edges))
            assert np.array_equal(L, single)
            assert L.tolist() == oc.laplacian_int(n, edges)
            # absent pairs are +0.0: eigvalsh output depends on the sign
            for M in (L, single):
                assert not np.signbit(M[M == 0.0]).any()

    def test_degrees_match_the_diagonal(self):
        for edges in oc.all_edge_sets(5):
            g = Graph(n=5, edges=edges)
            assert g.degrees().tolist() == np.diag(laplacian(g)).tolist()


class TestSpectrum:
    @staticmethod
    def _check_against_charpoly(n, edges):
        """One graph against the exact-integer charpoly route.

        The eigenvalue multiset is certified in coefficient space (the
        elementary symmetric functions of the computed spectrum must
        reproduce the exact integer coefficients), which stays well
        conditioned at repeated eigenvalues. Where the oracle's own roots
        are well separated, the values are also compared directly at 1e-7.
        """
        got = np.asarray(spectrum(Graph(n=n, edges=edges)).eigenvalues)
        exact = np.asarray(oc.charpoly_coefficients(oc.laplacian_int(n, edges)), dtype=float)
        recon = np.poly(got)
        scale = max(1.0, float(np.abs(exact).max()))
        assert np.abs(recon - exact).max() <= 1e-8 * scale
        assert got[0] <= 1e-9
        assert abs(got.sum() - 2.0 * len(edges)) <= 1e-8
        roots = oc.charpoly_eigenvalues(oc.laplacian_int(n, edges))
        if n < 2 or np.diff(roots).min() > 1e-3:
            assert np.abs(got - roots).max() <= 1e-7

    def test_exhaustive_against_characteristic_polynomial(self):
        for n in range(2, 6):
            for edges in oc.connected_edge_sets(n):
                self._check_against_charpoly(n, edges)

    def test_sampled_n6_against_characteristic_polynomial(self):
        rng = np.random.default_rng(5)
        slots = oc.edge_slots(6)
        checked = 0
        while checked < 500:
            keep = rng.random(len(slots)) < rng.uniform(0.2, 0.9)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            if not oc.union_find_connected(6, edges):
                continue
            self._check_against_charpoly(6, edges)
            checked += 1

    def test_connectivity_iff_positive_lambda2(self):
        for n in range(2, 6):
            for edges in oc.all_edge_sets(n):
                g = Graph(n=n, edges=edges)
                assert is_connected(g) == (spectrum(g).lambda2 > 1e-6)

    def test_connectivity_iff_positive_lambda2_sampled_n6(self):
        rng = np.random.default_rng(42)
        slots = oc.edge_slots(6)
        for _ in range(400):
            keep = rng.integers(0, 2, size=len(slots)).astype(bool)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            g = Graph(n=6, edges=edges)
            assert is_connected(g) == (spectrum(g).lambda2 > 1e-6)

    def test_known_closed_form_spectra(self):
        assert spectrum(C4).lambda2 == pytest.approx(2.0, abs=1e-9)
        assert spectrum(P4).lambda2 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        k5 = _graph(5, oc.edge_slots(5))
        assert spectrum(k5).lambda2 == pytest.approx(5.0, abs=1e-9)
        star = _graph(5, [(0, i) for i in range(1, 5)])
        assert spectrum(star).lambda2 == pytest.approx(1.0, abs=1e-9)

    def test_boundary_snapping(self):
        empty = Graph(n=4, edges=frozenset())
        assert spectrum(empty).eigenvalues == (0.0, 0.0, 0.0, 0.0)
        k6 = _graph(6, oc.edge_slots(6))
        s = spectrum(k6)
        assert s.lambda_n == 6.0  # exactly, after the snap
        assert s.lambda2 == pytest.approx(6.0, abs=1e-9)

    def test_edge_addition_never_lowers_lambda2(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            slots = oc.edge_slots(n)
            keep = rng.integers(0, 2, size=len(slots)).astype(bool)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            missing = [s for s in slots if s not in edges]
            if not missing:
                continue
            extra = missing[int(rng.integers(0, len(missing)))]
            before = spectrum(Graph(n=n, edges=edges)).lambda2
            after = spectrum(Graph(n=n, edges=edges | {extra})).lambda2
            assert after >= before - 1e-9

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            spectrum(C4, tol=0.0)


class TestDistances:
    def test_against_floyd_warshall_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 150:
            n = int(rng.integers(2, 41))
            slots = oc.edge_slots(n)
            keep = rng.random(len(slots)) < rng.uniform(0.1, 0.45)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            if not oc.union_find_connected(n, edges):
                continue
            g = Graph(n=n, edges=edges)
            D = oc.floyd_warshall(n, edges)
            assert diameter_exact(g) == int(max(max(row) for row in D))
            want = sum(D[i][j] for i in range(n) for j in range(i + 1, n))
            want /= n * (n - 1) / 2
            assert mean_distance_exact(g) == pytest.approx(want, abs=1e-12)
            checked += 1

    def test_path_mean_distance(self):
        assert mean_distance_exact(P4) == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert diameter_exact(P4) == 3

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 300])
    def test_path_closed_form(self, n):
        g = _graph(n, _path_edges(n))
        assert diameter_exact(g) == n - 1
        assert mean_distance_exact(g) == float(Fraction(n + 1, 3))

    @pytest.mark.parametrize("n", [3, 4, 64, 65, 301])
    def test_cycle_closed_form(self, n):
        g = _graph(n, _path_edges(n) + [(0, n - 1)])
        mean = Fraction(n * n, 4 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 4)
        assert diameter_exact(g) == n // 2
        assert mean_distance_exact(g) == float(mean)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_hypercube_closed_form(self, d):
        n = 2**d
        g = _graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d) if v < v ^ (1 << i)])
        assert diameter_exact(g) == d
        assert mean_distance_exact(g) == float(Fraction(d * 2 ** (d - 1), n - 1))

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_grid_diameter(self, k):
        edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
        edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
        assert diameter_exact(_graph(k * k, edges)) == 2 * (k - 1)

    @pytest.mark.parametrize("n", [3, 10, 257])
    def test_star_closed_form(self, n):
        g = _graph(n, [(0, i) for i in range(1, n)])
        assert diameter_exact(g) == 2
        assert mean_distance_exact(g) == float(Fraction(2 * (n - 1), n))

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_complete_closed_form(self, n):
        g = _graph(n, oc.edge_slots(n))
        assert diameter_exact(g) == 1
        assert mean_distance_exact(g) == 1.0

    def test_single_node(self):
        g = Graph(n=1, edges=frozenset())
        assert diameter_exact(g) == 0
        with pytest.raises(ValueError, match="at least 2 nodes"):
            mean_distance_exact(g)

    def test_disconnected_distances_raise(self):
        two_edges = _graph(4, [(0, 1), (2, 3)])
        # two 40-node paths: the squaring runs several rounds, then stalls
        two_paths = _graph(80, _path_edges(40) + [(u + 40, v + 40) for u, v in _path_edges(40)])
        for g in (two_edges, two_paths):
            with pytest.raises(ValueError, match="disconnected"):
                diameter_exact(g)
            with pytest.raises(ValueError, match="disconnected"):
                mean_distance_exact(g)


_SLOTS5 = oc.edge_slots(5)
_edge_sets = st.frozensets(st.sampled_from(_SLOTS5))


class TestSymmetricDifference:
    @given(_edge_sets, _edge_sets)
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, e1, e2):
        g, h = Graph(n=5, edges=e1), Graph(n=5, edges=e2)
        d = symmetric_difference_size(g, h)
        assert d >= 0
        assert (d == 0) == (g == h)
        assert d == symmetric_difference_size(h, g)

    @given(_edge_sets, _edge_sets, _edge_sets)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, e1, e2, e3):
        g, h, k = (Graph(n=5, edges=e) for e in (e1, e2, e3))
        assert symmetric_difference_size(g, k) <= (
            symmetric_difference_size(g, h) + symmetric_difference_size(h, k)
        )

    def test_node_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            symmetric_difference_size(_graph(4, []), _graph(5, []))
