import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privconn import (
    EdgeListError,
    Graph,
    NumericalError,
    diameter_exact,
    from_edge_list,
    is_connected,
    laplacian,
    mean_distance_exact,
    min_degree,
    spectrum,
    symmetric_difference_size,
)
from privconn import graph_core
from privconn.graph_core import laplacians

import oracles as oc


def _graph(n, edges):
    return Graph.from_edges(n, edges)


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_edges(n):
    return _path_edges(n) + [(0, n - 1)]


def _grid_edges(k):
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    return edges + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]


def _hypercube_edges(d):
    return [(v, v ^ (1 << i)) for v in range(2**d) for i in range(d) if v < v ^ (1 << i)]


C4 = _graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P4 = _graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture(params=["float32", "float64"])
def unwind(request, monkeypatch):
    """Run a test with Seidel's unwinding in float32 and in float64.

    Graphs up to 4096 nodes unwind in float32; a zero threshold sends
    every graph down the float64 branch that larger graphs take.
    """
    if request.param == "float64":
        monkeypatch.setattr(graph_core, "_F32_EXACT", 0)
    return request.param


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

    def test_residual_is_each_columns_two_norm(self, monkeypatch):
        # Shifting one eigenvalue of C_64 by 2 tol gives its residual column
        # a 2-norm of 2 tol, but no entry above 2 tol * sqrt(2/64) = 0.35 tol,
        # so a check on the largest entry would certify the wrong value.
        tol = 1e-9
        eigh = np.linalg.eigh

        def shifted(L):
            w, V = eigh(L)
            w[5] += 2.0 * tol
            return w, V

        g = _graph(64, _cycle_edges(64))
        L = laplacian(g)
        w, V = shifted(L)
        assert np.abs(L @ V - V * w).max() < 0.4 * tol
        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(NumericalError, match="residual"):
            spectrum(g, tol=tol)


class TestDistances:
    def test_against_floyd_warshall_random(self, unwind):
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
            assert graph_core._all_pairs_distances(g).tolist() == D
            assert diameter_exact(g) == int(max(max(row) for row in D))
            want = sum(D[i][j] for i in range(n) for j in range(i + 1, n))
            want /= n * (n - 1) / 2
            assert mean_distance_exact(g) == pytest.approx(want, abs=1e-12)
            checked += 1

    @pytest.mark.parametrize("family", ["path", "grid", "hypercube", "lollipop"])
    def test_distance_matrix_closed_forms(self, unwind, family):
        # Floyd-Warshall in Python is too slow at these sizes; the closed
        # forms are |i - j| on P_300, the Manhattan distance on the 20 x 20
        # grid and the Hamming distance on Q_8. Both dtypes meet the same
        # matrix, so float64 also equals the float32 result.
        idx = np.arange({"path": 300, "grid": 400, "hypercube": 256, "lollipop": 192}[family])
        if family == "path":
            g = _graph(300, _path_edges(300))
            want = np.abs(idx[:, None] - idx)
        elif family == "grid":
            g = _graph(400, _grid_edges(20))
            r, c = np.divmod(idx, 20)
            want = np.abs(r[:, None] - r) + np.abs(c[:, None] - c)
        elif family == "hypercube":
            g = _graph(256, _hypercube_edges(8))
            xor = idx[:, None] ^ idx
            want = sum((xor >> i) & 1 for i in range(8))
        else:
            # K_64 with a 128-node tail at node 63: the unwinding sums T
            # over the junction's 64 neighbours, entries past 2^11 that a
            # float16 unwinding gets wrong. Clique nodes 0..62 sit at -1.
            g = _graph(192, oc.edge_slots(64) + [(v, v + 1) for v in range(63, 191)])
            pos = np.maximum(idx - 63, -1)
            inner = idx < 63
            want = np.abs(pos[:, None] - pos) + (inner[:, None] & inner & (idx[:, None] != idx))
        D = graph_core._all_pairs_distances(g)
        assert D.dtype == np.int64
        assert np.array_equal(D, want)

    def test_one_distance_pass_per_graph_object(self, monkeypatch):
        calls = []
        seidel = graph_core._all_pairs_distances

        def counting(graph):
            calls.append(graph)
            return seidel(graph)

        monkeypatch.setattr(graph_core, "_all_pairs_distances", counting)
        g = _graph(65, _cycle_edges(65))
        assert diameter_exact(g) == 32
        assert mean_distance_exact(g) == float(Fraction(66, 4))
        assert diameter_exact(g) == 32
        assert len(calls) == 1
        # the cache lives on the object: an equal graph pays for its own pass
        h = _graph(65, _cycle_edges(65))
        assert h == g and h is not g
        assert diameter_exact(h) == 32
        assert len(calls) == 2

    def test_caches_leave_value_semantics_alone(self):
        g = _graph(6, _cycle_edges(6))
        h = _graph(6, _cycle_edges(6))
        assert g.pairs.shape == (6, 2)
        assert not g.pairs.flags.writeable
        with pytest.raises(ValueError):
            g.pairs[0, 0] = 5
        assert diameter_exact(g) == 3
        mean_distance_exact(g)
        assert g == h
        assert hash(g) == hash(h)
        assert repr(g) == repr(h)

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
        g = _graph(n, _cycle_edges(n))
        mean = Fraction(n * n, 4 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 4)
        assert diameter_exact(g) == n // 2
        assert mean_distance_exact(g) == float(mean)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_hypercube_closed_form(self, d):
        n = 2**d
        g = _graph(n, _hypercube_edges(d))
        assert diameter_exact(g) == d
        assert mean_distance_exact(g) == float(Fraction(d * 2 ** (d - 1), n - 1))

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_grid_diameter(self, k):
        assert diameter_exact(_graph(k * k, _grid_edges(k))) == 2 * (k - 1)

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
            # the failure is not cached: every call raises again
            for _ in range(2):
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
