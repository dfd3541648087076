import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privconn import (
    EdgeListError,
    Graph,
    NumericalError,
    algebraic_connectivity,
    diameter_exact,
    from_edge_list,
    laplacian,
    mean_distance_exact,
    min_degree,
    spectrum,
)
from privconn import graph_core
from privconn.graph_core import _LAMBDA2_TOL, laplacians

import oracles as oc


def _graph(n, edges):
    return Graph.from_edges(n, edges)


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_edges(n):
    return _path_edges(n) + [(0, n - 1)]


def _grid_edges(k, cols=None):
    cols = k if cols is None else cols
    edges = [(r * cols + c, r * cols + c + 1) for r in range(k) for c in range(cols - 1)]
    return edges + [(r * cols + c, (r + 1) * cols + c) for r in range(k - 1) for c in range(cols)]


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
        assert g.degrees().tolist() == [1, 2, 1]

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

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("n=3\n0 1\n2 2\n", "line 3: self loop"),
            ("n=3\n0 1\n1 3\n", "line 3: endpoint out of range"),
            ("n=3\n0 99999999999999999999\n", "line 2: endpoint out of range"),
            ("n=3\n0 1\n1\n", "line 3: expected two endpoints"),
            ("n=1\n", "at least 2"),
        ],
    )
    def test_plain_text_errors_name_the_line(self, text, fragment):
        # plain text the array path would parse, but for one bad line
        with pytest.raises(EdgeListError, match=fragment):
            from_edge_list(text)

    def test_array_path_takes_plain_text_and_primes_pairs(self):
        text = "n=12\n3 1\n\n 0\t11 \n2 0\n   \n11 3\n010 4"
        g = graph_core._from_plain_edge_list(text)
        assert g is not None
        assert g == graph_core._from_edge_lines(text)
        assert g.pairs.tolist() == [[0, 2], [0, 11], [1, 3], [3, 11], [4, 10]]
        assert g.pairs.dtype == np.intp and not g.pairs.flags.writeable
        assert min_degree(g) == 0 and laplacian(g).trace() == 10.0

    @pytest.mark.parametrize(
        "text",
        ["n=3\n0 1 # c\n", "n=3\r\n0 1\r\n", " n=3\n0 1\n", "n=3\n0 +1\n", "n=3\n0 1\x0c\n", "n=3\n0 ¹\n"],
    )
    def test_array_path_leaves_other_text_to_the_loop(self, text):
        assert graph_core._from_plain_edge_list(text) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["0", "1", "2", "3", "7", "01", " ", "  ", "\t", "\n", "\n", "#", "\r", "-", "x"]),
            max_size=30,
        ),
        st.sampled_from(["n=2\n", "n=4\n", "n=8\n", "n=1\n", "# c\nn=4\n"]),
    )
    def test_array_path_agrees_with_the_loop(self, tokens, header):
        text = header + "".join(tokens)
        g = graph_core._from_plain_edge_list(text)
        if g is not None:
            assert g == graph_core._from_edge_lines(text)
            assert list(map(tuple, g.pairs.tolist())) == sorted(g.edges)


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

    def test_endpoints_beyond_intp_are_a_value_error(self):
        # the line parser takes any header, so an endpoint can be in range
        # and still not fit the edge array
        with pytest.raises(ValueError, match="64-bit index"):
            from_edge_list(f"n={2**80}\n0 {2**70}\n")

    def test_refuses_node_counts_past_the_sort_keys_range(self):
        # lo * n + hi overflows intp past this n
        top = graph_core._KEY_MAX_N
        assert top == 3_037_000_499 and (top + 1) ** 2 > np.iinfo(np.intp).max
        assert Graph(top, [(5, top - 1)]).pairs.tolist() == [[5, top - 1]]
        for n in (top + 1, 2**32, 2**40):
            with pytest.raises(ValueError, match=f"node count {n} is above {top}"):
                Graph.from_edges(n, [(1, 0)])
        with pytest.raises(ValueError, match="node count 4294967296 is above"):
            from_edge_list("n=4294967296\n0 1\n")

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
        batch = laplacians(n, slots, np.transpose(weights))
        assert batch.shape == (n, n, len(edge_sets))
        for L, edges in zip(np.moveaxis(batch, -1, 0), edge_sets):
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
        """One graph's certified pair against the exact-integer charpoly route.

        Each value's index is counted in exact arithmetic: at least n - 1
        roots of the characteristic polynomial lie above lambda2 - 1e-9
        and at most n - 2 above lambda2 + 1e-9; one lies above
        lambda_n - 1e-9 and none above lambda_n + 1e-9. The count stays
        exact at repeated eigenvalues. Where the oracle's own roots are
        well separated, both values are also compared with them at 1e-7.
        """
        s = spectrum(Graph(n=n, edges=edges))
        L = oc.laplacian_int(n, edges)
        coefficients = oc.charpoly_coefficients(L)

        def above(x):
            return oc.roots_above(coefficients, Fraction(x))

        assert above(s.lambda2 - _LAMBDA2_TOL) >= n - 1
        assert above(s.lambda2 + _LAMBDA2_TOL) <= n - 2
        assert above(s.lambda_n - _LAMBDA2_TOL) >= 1
        assert above(s.lambda_n + _LAMBDA2_TOL) == 0
        roots = oc.charpoly_eigenvalues(L)
        if np.diff(roots).min() > 1e-3:
            assert abs(s.lambda2 - roots[1]) <= 1e-7
            assert abs(s.lambda_n - roots[-1]) <= 1e-7

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
                assert oc.union_find_connected(n, edges) == (spectrum(g).lambda2 > 1e-6)

    def test_connectivity_iff_positive_lambda2_sampled_n6(self):
        rng = np.random.default_rng(42)
        slots = oc.edge_slots(6)
        for _ in range(400):
            keep = rng.integers(0, 2, size=len(slots)).astype(bool)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            g = Graph(n=6, edges=edges)
            assert oc.union_find_connected(6, edges) == (spectrum(g).lambda2 > 1e-6)

    def test_known_closed_form_spectra(self):
        assert spectrum(C4).lambda2 == pytest.approx(2.0, abs=1e-9)
        assert spectrum(P4).lambda2 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        k5 = _graph(5, oc.edge_slots(5))
        assert spectrum(k5).lambda2 == pytest.approx(5.0, abs=1e-9)
        star = _graph(5, [(0, i) for i in range(1, 5)])
        assert spectrum(star).lambda2 == pytest.approx(1.0, abs=1e-9)

    def test_boundary_snapping(self):
        empty = Graph(n=4, edges=frozenset())
        s = spectrum(empty)
        assert (s.lambda2, s.lambda_n) == (0.0, 0.0)
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

    def test_certified_ends_against_mpmath(self):
        # lambda2 is algebraic_connectivity's dense value bit for bit, and
        # both certified ends agree with the 40-digit oracle
        for n in range(2, 6):
            for edges in oc.connected_edge_sets(n):
                g = Graph(n=n, edges=edges)
                s = spectrum(g)
                want = oc.mp_eigenvalues(oc.laplacian_int(n, edges))
                assert s.lambda2 == algebraic_connectivity(g)
                assert abs(s.lambda2 - want[1]) <= _LAMBDA2_TOL
                assert abs(s.lambda_n - want[-1]) <= _LAMBDA2_TOL

    def test_refuses_a_graph_above_the_dense_cap(self, monkeypatch):
        built = []
        monkeypatch.setattr(graph_core, "laplacian", built.append)
        with pytest.raises(ValueError, match="n=13001 nodes needs about"):
            spectrum(_graph(13_001, _path_edges(13_001)))
        assert built == []


def _force_sparse(monkeypatch):
    """Send every graph down algebraic_connectivity's sparse route."""
    monkeypatch.setattr(graph_core, "_SPARSE_MIN_N", 0)
    monkeypatch.setattr(graph_core, "_SPARSE_MAX_MEAN_DEGREE", math.inf)


def _shift_lanczos_estimate(monkeypatch, by):
    """Move either route's Lanczos estimate by `by`; return the node counts
    it ran on."""
    lanczos, calls = graph_core._lanczos, []

    def shifted(solve, n, steps):
        calls.append(n)
        estimate, x = lanczos(solve, n, steps)
        return estimate + by, x

    monkeypatch.setattr(graph_core, "_lanczos", shifted)
    return calls


def _count_eigvalsh(monkeypatch):
    """Count np.linalg.eigvalsh calls; return the list they append to."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(L):
        calls.append(len(L))
        return eigvalsh(L)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestAlgebraicConnectivity:
    C4096 = _graph(4096, _cycle_edges(4096))

    @staticmethod
    def _check_against_mpmath(monkeypatch, n, edges):
        """Both routes against mpmath; whether the sparse one fell back."""
        g = Graph(n=n, edges=edges)
        want = oc.mp_eigenvalues(oc.laplacian_int(n, edges))[1]
        assert abs(algebraic_connectivity(g) - want) <= _LAMBDA2_TOL
        dense_solves = []

        def counted(graph):
            dense_solves.append(graph)
            return laplacian(graph)

        with monkeypatch.context() as m, warnings.catch_warnings():
            # neither route, nor scipy under the sparse one, may warn
            warnings.simplefilter("error")
            _force_sparse(m)
            m.setattr(graph_core, "laplacian", counted)
            assert abs(algebraic_connectivity(g) - want) <= _LAMBDA2_TOL
        return bool(dense_solves)

    def test_exhaustive_against_mpmath(self, monkeypatch):
        # every graph, disconnected ones included; the sparse route's pivot
        # count miscounts on a few, which the dense route then answers
        outcomes = [
            self._check_against_mpmath(monkeypatch, n, edges)
            for n in range(2, 6)
            for edges in oc.all_edge_sets(n)
        ]
        assert sum(outcomes) <= len(outcomes) // 20, sum(outcomes)

    def test_sampled_n6_against_mpmath(self, monkeypatch):
        rng = np.random.default_rng(11)
        slots = oc.edge_slots(6)
        fallbacks = 0
        for _ in range(500):
            keep = rng.random(len(slots)) < rng.uniform(0.1, 0.9)
            edges = frozenset(s for s, k in zip(slots, keep) if k)
            fallbacks += self._check_against_mpmath(monkeypatch, 6, edges)
        assert fallbacks <= 500 // 20, fallbacks

    def test_sparse_route_agrees_with_dense_on_random_graphs(self, monkeypatch):
        # G(n, p) at mean degrees 0.5..40: disconnected, sparse and denser
        # than the route's limit; with the dense cap at 0 there is no
        # fallback, so the sparse route certifies every one itself
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(7, 501))
            u, v = np.triu_indices(n, 1)
            keep = rng.random(len(u)) < math.exp(rng.uniform(math.log(0.5), math.log(40.0))) / (n - 1)
            g = _graph(n, zip(u[keep].tolist(), v[keep].tolist()))
            dense = algebraic_connectivity(g)
            with monkeypatch.context() as m:
                _force_sparse(m)
                m.setattr(graph_core, "_DENSE_MAX_N", 0)
                assert abs(algebraic_connectivity(g) - dense) <= 2.0 * _LAMBDA2_TOL

    # (edges, n, lambda2, lambda_n)
    CLOSED_FORMS = {
        "cycle5": (_cycle_edges(5), 5, 2.0 - 2.0 * math.cos(2.0 * math.pi / 5), 2.0 + 2.0 * math.cos(math.pi / 5)),
        "cycle512": (_cycle_edges(512), 512, 2.0 - 2.0 * math.cos(2.0 * math.pi / 512), 4.0),
        "path7": (_path_edges(7), 7, 2.0 - 2.0 * math.cos(math.pi / 7), 2.0 + 2.0 * math.cos(math.pi / 7)),
        "path512": (_path_edges(512), 512, 2.0 - 2.0 * math.cos(math.pi / 512), 2.0 + 2.0 * math.cos(math.pi / 512)),
        "grid5x5": (_grid_edges(5), 25, 2.0 - 2.0 * math.cos(math.pi / 5), 4.0 + 4.0 * math.cos(math.pi / 5)),
        "grid22x22": (_grid_edges(22), 484, 2.0 - 2.0 * math.cos(math.pi / 22), 4.0 + 4.0 * math.cos(math.pi / 22)),
        "hypercube3": (_hypercube_edges(3), 8, 2.0, 6.0),
        "hypercube9": (_hypercube_edges(9), 512, 2.0, 18.0),
        "star9": ([(0, i) for i in range(1, 9)], 9, 1.0, 9.0),
        "star512": ([(0, i) for i in range(1, 512)], 512, 1.0, 512.0),
        "complete7": (oc.edge_slots(7), 7, 7.0, 7.0),
        "complete512": (oc.edge_slots(512), 512, 512.0, 512.0),
        # the sparse route, chosen by size and mean degree
        "cycle100000": (_cycle_edges(100_000), 100_000, 2.0 - 2.0 * math.cos(2.0 * math.pi / 100_000), 4.0),
        "grid316x316": (_grid_edges(316), 316**2, 2.0 - 2.0 * math.cos(math.pi / 316), 4.0 + 4.0 * math.cos(math.pi / 316)),
    }

    @pytest.mark.parametrize("family", CLOSED_FORMS)
    def test_closed_forms(self, family):
        edges, n, want, lambda_n = self.CLOSED_FORMS[family]
        g = _graph(n, edges)
        got = algebraic_connectivity(g)
        assert got == pytest.approx(want, abs=_LAMBDA2_TOL)
        if n <= graph_core._SPARSE_MIN_N:
            # spectrum runs the dense route's eigvalsh solve: a certified
            # lambda2, bit for bit the route's value where the route runs
            # eigvalsh too, and a certified lambda_n
            s = spectrum(g)
            assert s.lambda2 == pytest.approx(want, abs=_LAMBDA2_TOL)
            if n <= graph_core._LANCZOS_MIN_N:
                assert s.lambda2 == got
            assert s.lambda_n == pytest.approx(lambda_n, abs=_LAMBDA2_TOL)

    def test_boundary_snapping(self):
        assert algebraic_connectivity(_graph(6, oc.edge_slots(6))) == 6.0
        assert algebraic_connectivity(Graph(n=4, edges=frozenset())) == 0.0
        two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        assert algebraic_connectivity(_graph(6, two_triangles)) == 0.0

    @pytest.mark.parametrize(
        "index, sign, message",
        [
            (1, 1.0, "inertia check: lambda2 is below"),
            (1, -1.0, "Rayleigh check: lambda2 may be above"),
            (-1, 1.0, "inertia check: lambda_n is below"),
            (-1, -1.0, "inertia check: lambda_n is above"),
        ],
        ids=["1.0-below", "-1.0-above", "lambda_n-below", "lambda_n-above"],
    )
    def test_inertia_rejects_a_shifted_estimate(self, monkeypatch, index, sign, message):
        # lambda2 of C_64 (0.0096, a double eigenvalue) and lambda_n (4,
        # simple) are far from both ends of [0, 64], so no snap absorbs the
        # shift: a lambda2 2 tol too high fails the inertia test below, one
        # 2 tol too low the Rayleigh bound above; lambda_n fails its inertia
        # tests either way
        tol = _LAMBDA2_TOL
        eigvalsh = np.linalg.eigvalsh

        def shifted(L):
            w = eigvalsh(L)
            w[index] += sign * 2.0 * tol
            return w

        g = _graph(64, _cycle_edges(64))
        assert spectrum(g).lambda_n == pytest.approx(4.0, abs=tol)
        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        solvers = (spectrum, algebraic_connectivity) if index == 1 else (spectrum,)
        for solve in solvers:
            with pytest.raises(NumericalError, match=message):
                solve(g)
        if index == 1:
            # a Lanczos estimate shifted alike fails its checks; the shifted
            # eigvalsh it falls back to then fails with the same message
            monkeypatch.setattr(graph_core, "_LANCZOS_MIN_N", 0)
            calls = _shift_lanczos_estimate(monkeypatch, sign * 2.0 * tol)
            with pytest.raises(NumericalError, match=message):
                algebraic_connectivity(g)
            assert calls == [64]

    @staticmethod
    def _count_dense_work(monkeypatch):
        """Record the shift of each dense factorization, count the calls to
        np.linalg.cholesky and the Rayleigh bounds taken."""
        shifts, factored, bounds = [], [], []
        cholesky, factor, rayleigh_bound = graph_core._cholesky, np.linalg.cholesky, graph_core._rayleigh_bound

        def counted_shift(M, diag, shift):
            shifts.append(shift)
            return cholesky(M, diag, shift)

        def counted_factor(M):
            factored.append(len(M))
            return factor(M)

        def counted_bound(pairs, x):
            bounds.append(rayleigh_bound(pairs, x))
            return bounds[-1]

        monkeypatch.setattr(graph_core, "_cholesky", counted_shift)
        monkeypatch.setattr(np.linalg, "cholesky", counted_factor)
        monkeypatch.setattr(graph_core, "_rayleigh_bound", counted_bound)
        return shifts, factored, bounds

    def test_dense_route_skips_the_upper_test_at_n(self, monkeypatch):
        # one factorization per dense lambda2, at r - tol; every Laplacian
        # eigenvalue of a 7-node graph is at most 7, so once K_7's estimate
        # snaps to 7 there is nothing above it to rule out and no Rayleigh
        # bound is taken
        shifts, factored, bounds = self._count_dense_work(monkeypatch)
        assert algebraic_connectivity(_graph(7, oc.edge_slots(7))) == 7.0
        assert (shifts, factored, bounds) == ([7.0 - _LAMBDA2_TOL], [7], [])
        shifts.clear()
        factored.clear()
        assert algebraic_connectivity(C4) == pytest.approx(2.0, abs=_LAMBDA2_TOL)
        assert shifts == [pytest.approx(2.0 - _LAMBDA2_TOL, abs=1e-12)]
        assert factored == [4] and len(bounds) == 1

    def test_disconnected_dense_graph_is_exactly_zero(self, monkeypatch):
        # two disjoint K_500: lambda2 = 0 is a double eigenvalue next to
        # lambda_n = 500; the factor at -tol exists, and the Rayleigh bound
        # it drives stays below tol
        k500 = np.array(oc.edge_slots(500))
        g = Graph(1000, np.concatenate([k500, k500 + 500]))
        shifts, factored, bounds = self._count_dense_work(monkeypatch)
        assert algebraic_connectivity(g) == 0.0
        assert (shifts, factored) == ([-_LAMBDA2_TOL], [1000])
        assert len(bounds) == 1 and bounds[0] <= _LAMBDA2_TOL

    @pytest.mark.parametrize(
        "edges, n, want",
        [([(0, i) for i in range(1, 512)], 512, 1.0), (_hypercube_edges(10), 1024, 2.0)],
        ids=["star512", "hypercube10"],
    )
    def test_multiple_lambda2_certifies_in_one_step(self, monkeypatch, edges, n, want):
        # lambda2 has multiplicity 510 on the star and 10 on the hypercube;
        # Lanczos from one start vector sees one vector of the eigenspace,
        # and any such vector bounds lambda2, so the Ritz vector's one
        # Rayleigh bound suffices. The two factorizations are M(-tol), which
        # Lanczos runs on, and M(r - tol), the lower check
        shifts, factored, bounds = self._count_dense_work(monkeypatch)
        got = algebraic_connectivity(_graph(n, edges))
        assert got == pytest.approx(want, abs=_LAMBDA2_TOL)
        assert shifts == [-_LAMBDA2_TOL, got - _LAMBDA2_TOL]
        assert factored == [n, n] and len(bounds) == 1

    @pytest.mark.parametrize("n", [512, 768, 1024])
    def test_dense_lambda2_above_the_crossover_runs_no_eigvalsh(self, monkeypatch, n):
        # Lanczos certifies each family without falling back: no eigvalsh,
        # and no factorization beyond M(-tol) and M(r - tol)
        rows = n // 32
        families = {
            "path": (_path_edges(n), 2.0 - 2.0 * math.cos(math.pi / n)),
            "cycle": (_cycle_edges(n), 2.0 - 2.0 * math.cos(2.0 * math.pi / n)),
            "grid": (_grid_edges(rows, 32), 2.0 - 2.0 * math.cos(math.pi / max(rows, 32))),
            "star": ([(0, i) for i in range(1, n)], 1.0),
            "complete": (oc.edge_slots(n), float(n)),
        }
        if n & (n - 1) == 0:
            families["hypercube"] = (_hypercube_edges(n.bit_length() - 1), 2.0)
        assert n > graph_core._LANCZOS_MIN_N
        eigvalsh = _count_eigvalsh(monkeypatch)
        _, factored, _ = self._count_dense_work(monkeypatch)
        for family, (edges, want) in families.items():
            factored.clear()
            got = algebraic_connectivity(_graph(n, edges))
            assert got == pytest.approx(want, abs=_LAMBDA2_TOL), family
            assert eigvalsh == [] and len(factored) <= 2, family

    def test_lanczos_certifies_every_small_graph(self, monkeypatch):
        # with the crossover at 0 every graph runs Lanczos; with eigvalsh
        # refused, a fallback would raise. Every connected graph on 2..5
        # nodes and 500 sampled 6-node ones, disconnected ones included
        def refused(L):
            raise AssertionError("the dense route fell back to eigvalsh")

        monkeypatch.setattr(graph_core, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        graphs = [(n, edges) for n in range(2, 6) for edges in oc.connected_edge_sets(n)]
        rng = np.random.default_rng(14)
        slots = oc.edge_slots(6)
        for _ in range(500):
            keep = rng.random(len(slots)) < rng.uniform(0.1, 0.9)
            graphs.append((6, frozenset(s for s, k in zip(slots, keep) if k)))
        for n, edges in graphs:
            want = oc.mp_eigenvalues(oc.laplacian_int(n, edges))[1]
            assert abs(algebraic_connectivity(Graph(n=n, edges=edges)) - want) <= _LAMBDA2_TOL, (n, edges)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["below", "above"])
    def test_shifted_lanczos_estimate_falls_back_to_eigvalsh(self, monkeypatch, sign):
        # C_64's lambda2 (0.0096, double) is far from both ends of [0, 64]:
        # a Lanczos estimate 2 tol too high fails the Cholesky below, one
        # 2 tol too low the Rayleigh bounds above, and eigvalsh answers
        g = _graph(64, _cycle_edges(64))
        dense = algebraic_connectivity(g)
        monkeypatch.setattr(graph_core, "_LANCZOS_MIN_N", 0)
        calls = _shift_lanczos_estimate(monkeypatch, sign * 2.0 * _LAMBDA2_TOL)
        eigvalsh = _count_eigvalsh(monkeypatch)
        assert algebraic_connectivity(g) == dense
        assert calls == [64] and eigvalsh == [64]

    def test_lanczos_step_cap_falls_back_to_eigvalsh(self, monkeypatch):
        # one step leaves C_64's Ritz value far from converged
        g = _graph(64, _cycle_edges(64))
        dense = algebraic_connectivity(g)
        monkeypatch.setattr(graph_core, "_LANCZOS_MIN_N", 0)
        monkeypatch.setattr(graph_core, "_LANCZOS_STEPS", 1)
        with pytest.raises(NumericalError, match="no estimate of lambda2 within 1 steps"):
            graph_core._lanczos_algebraic_connectivity(g)
        eigvalsh = _count_eigvalsh(monkeypatch)
        assert algebraic_connectivity(g) == dense
        assert eigvalsh == [64]

    def test_dense_route_loads_neither_scipy_nor_numpy_random(self, fresh_python):
        # importing numpy.random costs about 5.6 MB of RSS; the dense
        # route's start vector must not come from it
        script = (
            "import sys\n"
            "from privconn import Graph, algebraic_connectivity\n"
            "g = Graph(1024, [(i, i + 1) for i in range(1023)])\n"
            "assert abs(algebraic_connectivity(g) - 9.41238e-06) < 1e-10\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.random')))\n"
            "assert not loaded, loaded\n"
        )
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_sparse_route_draws_nothing_from_numpy_random(self, fresh_python):
        # scipy's own import loads numpy.random, so the module is poisoned
        # after it instead: the route's start vectors must be fixed ones
        script = (
            "import math\n"
            "import numpy as np\n"
            "import scipy.sparse.linalg\n"
            "from privconn import Graph, algebraic_connectivity, graph_core\n"
            "class Refused:\n"
            "    def __getattr__(self, name):\n"
            "        raise AssertionError('numpy.random.' + name)\n"
            "np.random = Refused()\n"
            "graph_core.laplacian = None  # the dense route would call it\n"
            "g = Graph.from_edges(1100, [(i, (i + 1) % 1100) for i in range(1100)])\n"
            "assert abs(algebraic_connectivity(g) - (2 - 2 * math.cos(2 * math.pi / 1100))) < 1e-9\n"
        )
        proc = fresh_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_rayleigh_bound_covers_the_exact_quotient(self):
        # the exact quotient of each rounded vector, over its exact mean, in
        # rationals; without _RAYLEIGH_MARGIN about half of these fall below
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            slots = oc.edge_slots(n)
            keep = rng.random(len(slots)) < rng.uniform(0.1, 0.9)
            pairs = np.array([s for s, k in zip(slots, keep) if k], dtype=np.intp).reshape(-1, 2)
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1, 1)
            exact = [Fraction(t) for t in x.tolist()]
            mean = sum(exact) / n
            spread = sum((t - mean) ** 2 for t in exact)
            energy = sum((exact[u] - exact[v]) ** 2 for u, v in pairs.tolist())
            bound = graph_core._rayleigh_bound(pairs, x)
            assert spread > 0 and Fraction(bound) >= energy / spread

    @pytest.mark.parametrize(
        "sign, message",
        [(1.0, "inertia check: lambda2 is below"), (-1.0, "Rayleigh check: lambda2 may be above")],
        ids=["below", "above"],
    )
    def test_sparse_checks_reject_a_shifted_estimate(self, monkeypatch, sign, message):
        # C_4096 takes the sparse route; its lambda2 (2.4e-6, double) is far
        # from both ends of [0, 4096], so no snap absorbs a 2 tol shift
        want = 2.0 - 2.0 * math.cos(2.0 * math.pi / 4096)
        assert algebraic_connectivity(self.C4096) == pytest.approx(want, abs=_LAMBDA2_TOL)
        calls = _shift_lanczos_estimate(monkeypatch, sign * 2.0 * _LAMBDA2_TOL)
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 0)
        with pytest.raises(NumericalError, match=message):
            algebraic_connectivity(self.C4096)
        assert calls == [4096]

    def test_sparse_failure_falls_back_to_dense(self, monkeypatch):
        # an estimate 2 tol too high fails the sparse lower check; a graph
        # within the dense cap is then solved again on the dense route,
        # here by eigvalsh
        g = _graph(64, _cycle_edges(64))
        dense = algebraic_connectivity(g)
        _force_sparse(monkeypatch)
        calls = _shift_lanczos_estimate(monkeypatch, 2.0 * _LAMBDA2_TOL)
        assert algebraic_connectivity(g) == dense
        assert calls == [64]

    def test_sparse_step_cap_falls_back_to_dense(self, monkeypatch):
        # one step leaves C_64's Ritz value far from converged: the sparse
        # route gives up, the dense one answers, and without it the route
        # raises
        g = _graph(64, _cycle_edges(64))
        dense = algebraic_connectivity(g)
        _force_sparse(monkeypatch)
        monkeypatch.setattr(graph_core, "_SPARSE_LANCZOS_STEPS", 1)
        eigvalsh = _count_eigvalsh(monkeypatch)
        assert algebraic_connectivity(g) == dense
        assert eigvalsh == [64]
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 0)
        with pytest.raises(NumericalError, match="Lanczos: no estimate of lambda2 within 1 steps"):
            algebraic_connectivity(g)

    def test_sparse_upper_check_takes_an_inverse_step(self, monkeypatch):
        # G(200, p) at mean degree about 2 falls apart, so lambda2 = 0 is a
        # repeated eigenvalue; the Ritz vector's bound misses tol and one
        # solve with the deflated LU certifies it
        rng = np.random.default_rng(0)
        u, v = np.triu_indices(200, 1)
        keep = rng.random(len(u)) < 2.0 / 199
        g = Graph(200, np.stack([u[keep], v[keep]], axis=1))
        _force_sparse(monkeypatch)
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 0)
        _, _, bounds = self._count_dense_work(monkeypatch)
        assert algebraic_connectivity(g) == 0.0
        assert len(bounds) >= 2 and bounds[0] > _LAMBDA2_TOL >= bounds[-1]

    def test_sparse_inertia_needs_a_symmetric_permutation(self, monkeypatch):
        # the real factors, but with the rows reordered: their pivots still
        # hold one negative entry, and must not be counted
        from scipy.sparse import linalg

        splu = linalg.splu

        class RowsMoved:
            def __init__(self, lu):
                self.solve, self.U, self.perm_c = lu.solve, lu.U, lu.perm_c
                self.perm_r = np.roll(lu.perm_r, 1)

        monkeypatch.setattr(linalg, "splu", lambda *a, **k: RowsMoved(splu(*a, **k)))
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 0)
        with pytest.raises(NumericalError, match="left the diagonal"):
            algebraic_connectivity(self.C4096)

    def test_sparse_route_failure_is_a_numerical_error(self, monkeypatch):
        # Lanczos stopping at its step cap, with no dense route to fall to
        monkeypatch.setattr(graph_core, "_SPARSE_LANCZOS_STEPS", 1)
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 0)
        with pytest.raises(NumericalError, match="no estimate of lambda2 within 1 steps"):
            algebraic_connectivity(self.C4096)

    def test_dense_route_refuses_a_graph_above_its_cap(self, monkeypatch):
        built = []
        monkeypatch.setattr(graph_core, "_DENSE_MAX_N", 64)
        monkeypatch.setattr(graph_core, "laplacian", built.append)
        with pytest.raises(ValueError, match=f"n=65 nodes needs about {24 * 65**2} bytes"):
            algebraic_connectivity(_graph(65, oc.edge_slots(65)))
        assert built == []

    def test_rejects_a_single_node(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            algebraic_connectivity(Graph(n=1, edges=frozenset()))

    def test_solver_failure_is_a_numerical_error(self, monkeypatch):
        def diverges(L):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverges)
        with pytest.raises(NumericalError, match="did not converge"):
            algebraic_connectivity(C4)


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

    @pytest.mark.parametrize("n, edges", [(4, []), (6, _cycle_edges(6)), (40, oc.edge_slots(40))])
    def test_pairs_are_the_sorted_edge_set(self, n, edges):
        g = _graph(n, edges[::-1])
        want = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2)
        assert g.pairs.dtype == want.dtype
        assert np.array_equal(g.pairs, want)

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

