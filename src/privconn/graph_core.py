"""Undirected, unweighted graphs and their exact statistics.

Everything downstream (the private release, the audits, the attack demos)
works from this module's Laplacian spectrum and combinatorial oracles, so
the routines here favor exactness over scale: dense eigensolves with a
certificate, and Seidel's all-pairs algorithm for the exact distances.

algebraic_connectivity returns lambda2 alone, within 1e-9, with two
one-sided certificates: from below, an eigenvalue's index, by Sylvester's
law of inertia; from above, a Rayleigh bound. Both routes estimate by one
shift-invert Lanczos kernel and take the Rayleigh bound of its Ritz
vector. Dense: on the Cholesky factor of the shifted Laplacian, above
320 nodes (at or below that, or where Lanczos fails, an eigenvalue-only
solve of the whole spectrum estimates), and a Cholesky at r - 1e-9 below.
Sparse, on large sparse graphs: on a sparse LU of the Laplacian shifted
just below 0, and a sparse pivot count below. Its docstring says what
each check proves. spectrum runs the whole-spectrum solve with the same
checks, certifies lambda_n by two inertia tests, and returns those two
values alone.

Seidel costs O(n^3 log diameter) in BLAS matrix products against O(n m)
for n BFS passes in Python, so BFS is faster only on long thin graphs:
paths beyond about 2,000 nodes (at 3,072 nodes a pass takes ~10 s against
BFS's ~7 s).

A Graph is its node count and its (m, 2) edge array, which the
Laplacian, the degrees and Seidel all start from; the frozenset of edges
is built only for the callers that ask for it. A Graph never changes
after construction, so each graph runs at most one Seidel pass: the
diameter and the distance sum are cached together on the instance
(never in a table keyed on the graph's value).
Seidel's products run in float32 wherever that is exact: the squaring
products are only compared with zero, and every unwinding entry and
partial sum is an integer no larger than (n-1)^2, which float32 holds
exactly while it is at most 2^24 (n <= 4096).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EdgeListError, NumericalError

__all__ = [
    "Graph",
    "SpectralSummary",
    "from_edge_list",
    "laplacian",
    "spectrum",
    "algebraic_connectivity",
    "diameter_exact",
    "mean_distance_exact",
    "min_degree",
]


# float32 holds every integer up to 2^24 exactly
_F32_EXACT = 2**24

# the accuracy algebraic_connectivity certifies, and so the release's centre
_LAMBDA2_TOL = 1e-9

# algebraic_connectivity goes sparse above this many nodes when the mean
# degree 2m/n is at most _SPARSE_MAX_MEAN_DEGREE. Below the node count the
# dense solve costs less than importing scipy.sparse.linalg (0.18-0.27 s);
# above the mean degree the sparse LU fills in and loses to it (G(2000, p)
# at mean degree 8 ties, at 32 the sparse route is 3x slower).
_SPARSE_MIN_N = 1024
_SPARSE_MAX_MEAN_DEGREE = 8

# algebraic_connectivity refuses graphs above this many nodes, whatever
# their edges: the sparse route's length-n work arrays cost about 500
# bytes a node (about 550 MB at n = 10^6 with a single edge), and the
# 700^2 grid (n = 490,000) took 11.8 s at a peak RSS of 1.5 GB. Its
# Lanczos basis adds up to 8 * _SPARSE_LANCZOS_STEPS * n bytes, 512 MB at
# the cap, of which a run touches only the steps it takes. The refusal
# reads n alone, so it tells nothing about the edges.
_SPARSE_MAX_N = 500_000

# Lanczos steps on the sparse route: 32 failed 2 of 50 random G(n, p) graphs
# that 64 certified; random 8-regular graphs, whose lambda2 has close
# neighbours, took 58-106 steps at n = 1,200-8,000
_SPARSE_LANCZOS_STEPS = 128

# The dense lambda2 route holds about three n x n float64 arrays, 24 n^2
# bytes: the shifted Laplacian, a Cholesky factor and LAPACK's copy of its
# input while it factors (or the eigensolver's copy, where eigvalsh runs).
# That is 3.8 GiB at the cap, under half of an 8 GB machine. Past that numpy
# can overcommit the allocation and the process is killed instead of raising
# MemoryError, so larger dense graphs are refused before anything is built.
_DENSE_MAX_N = 13_000

# The dense lambda2 route estimates by Lanczos above this many nodes and by
# one eigvalsh at or below it (or when Lanczos fails). On a 2-core Xeon,
# Lanczos was faster at 320 nodes on every graph tried (path, grid, K_n,
# star, G(n, p) at mean degree 8 and 32); at 256, G(n, p) at mean degree
# 32 took up to twice as long.
_LANCZOS_MIN_N = 320

# Lanczos steps before the dense route falls back to eigvalsh: a failed
# attempt, its factorization included, then costs about one eigvalsh (6.6,
# 13.8 and 26 ms at 400, 640 and 1,000 nodes, against 4.9, 12.8 and 36 ms)
_LANCZOS_STEPS = 32

# edge terms per plain numpy sum in _rayleigh_bound, whose block sums fsum
# adds: a sum of k nonnegative terms in any order is within (k - 1) u of
# exact, relative (Higham, Accuracy and Stability, 4.2). An fsum over
# every term took 10 ms on the 180,000 edges of K_600 minus an edge, this
# about 1 ms
_SUM_BLOCK = 32

# relative inflation of the Rayleigh bound: the quotient of a centred
# vector is within about (4.5 + _SUM_BLOCK / 2) eps of the exact one
_RAYLEIGH_MARGIN = (16 + _SUM_BLOCK) * np.finfo(float).eps

# inverse-iteration steps the upper check may take once its first bound
# fails; they cover close neighbours of lambda2
_INVERSE_STEPS = 3

# rows per diagonal block of _cholesky_solver: 32 and 64 were fastest at
# n = 400-2,048 on a 2-core Xeon counting the block inverses, 16 and 128
# slower
_SOLVE_BLOCK = 32


# the bytes from_edge_list's array path accepts after the header line:
# ASCII digits, space, tab and newline
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[[ord(c) for c in "0123456789 \t\n"]] = True

# Graph sorts its edges by the key lo * n + hi, so n^2 must fit in intp
_KEY_MAX_N = math.isqrt(np.iinfo(np.intp).max)


class Graph:
    """An undirected simple graph on nodes 0..n-1.

    Its value is n and pairs, a read-only (m, 2) intp array of the edges:
    rows u < v, sorted, none twice. Graphs are equal, and hash alike, iff
    their n and array bytes are. edges is the frozenset of (u, v) tuples,
    built on first use. Graph(n, edges) takes pairs u < v inside 0..n-1,
    as any iterable or an (m, 2) array; from_edges also takes u > v.
    Repeated pairs collapse. n is at most _KEY_MAX_N (about 3.04e9), the
    largest whose sort keys fit in intp.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        if n > _KEY_MAX_N:
            raise ValueError(f"node count {n} is above {_KEY_MAX_N}, the most a Graph holds")
        pairs = _pair_array(edges)
        lo, hi = pairs.T
        bad = ~((0 <= lo) & (lo < hi) & (hi < n))
        if bad.any():
            edge = tuple(pairs[bad.argmax()].tolist())
            raise ValueError(f"edge {edge!r} is not a normalized pair inside 0..{n - 1}")
        # sorting keys beats np.unique's hashing (8 against 58 ms on K_600)
        pairs = np.stack(np.divmod(np.sort(lo * n + hi), n), axis=1)
        fresh = np.ones(len(pairs), dtype=bool)
        fresh[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        pairs = pairs[fresh]
        pairs.flags.writeable = False
        self.__dict__.update(n=n, pairs=pairs)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.pairs.tobytes()) == (other.n, other.pairs.tobytes())

    def __hash__(self):
        return hash((self.n, self.pairs.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={list(map(tuple, self.pairs.tolist()))!r})"

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs in either order."""
        pairs = _pair_array(pairs)
        u, v = pairs.T
        if (u == v).any():
            raise ValueError(f"self loop {tuple(pairs[(u == v).argmax()].tolist())!r} is not allowed")
        return cls(n, np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1))

    @cached_property
    def edges(self) -> frozenset:
        """The edges as a frozenset of (u, v) tuples with u < v."""
        return frozenset(zip(*self.pairs.T.tolist()))

    @cached_property
    def _distance_summary(self) -> tuple[int, int]:
        """(diameter, sum of all n^2 hop distances) from one Seidel pass.

        An exception is not cached, so a disconnected graph raises on
        every access.
        """
        D = _all_pairs_distances(self)
        return int(D.max()), int(D.sum())

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)


def _pair_array(pairs) -> np.ndarray:
    """pairs (an iterable of (u, v) or an (m, 2) array) as an (m, 2) intp array."""
    try:
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.intp)
    except OverflowError:
        raise ValueError("edge endpoints must fit in a 64-bit index") from None
    if arr.size and arr.shape[1:] != (2,):
        raise ValueError(f"edges must be (u, v) pairs, got an array of shape {arr.shape}")
    return arr.reshape(-1, 2)


@dataclass(frozen=True)
class SpectralSummary:
    """The two Laplacian eigenvalues spectrum certifies by index."""

    lambda2: float
    lambda_n: float


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list format into a Graph.

    The format is line oriented UTF-8 text. The first significant line must
    be ``n=<int>`` declaring the node count (at least 2). Every following
    significant line is ``<u> <v>`` with 0-indexed endpoints. ``#`` starts
    a comment that runs to the end of the line; blank lines are skipped.

    Raises:
        EdgeListError: on any malformed content, naming the offending line.
    """
    graph = _from_plain_edge_list(text)
    return graph if graph is not None else _from_edge_lines(text)


def _from_edge_lines(text: str) -> Graph:
    """from_edge_list one line at a time; every input error is raised here."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise EdgeListError(f"line {lineno}: expected node count header 'n=<int>', got {raw!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise EdgeListError(f"line {lineno}: node count {line[2:]!r} is not an integer") from None
            if n < 2:
                raise EdgeListError(f"line {lineno}: node count must be at least 2, got {n}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected two endpoints, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: endpoints {raw!r} are not integers") from None
        if u == v:
            raise EdgeListError(f"line {lineno}: self loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: endpoint out of range for n={n}: {raw!r}")
        pairs.append((u, v))
    if n is None:
        raise EdgeListError("missing node count header 'n=<int>'")
    # repeated lines are harmless; they collapse to the same edge
    return Graph.from_edges(n, pairs)


def _from_plain_edge_list(text: str) -> Graph | None:
    """from_edge_list's array path, or None where _from_edge_lines must decide.

    It takes text whose first line is the header and whose other lines
    hold only ASCII digits, spaces and tabs, zero or two numbers a line,
    which is how large edge lists are written, and parses them with numpy
    instead of one Python step a line. The graph it returns equals the
    loop's. Comments, other whitespace and every error, a self loop or an
    out-of-range endpoint included, are left to the loop, which names the
    line.
    """
    head, _, body = text.partition("\n")
    digits = head[2:]
    if not (head.startswith("n=") and digits.isascii() and digits.isdigit() and body.isascii()):
        return None
    n = int(digits)
    # numpy saturates an overflowing token at 2^63 - 1, which must stay >= n
    if not 2 <= n < 2**62:
        return None
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if not _PLAIN_BYTES[raw].all():
        return None
    digit = raw >= ord("0")
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    per_line = np.bincount(np.cumsum(raw == ord("\n"))[starts])
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    count = np.count_nonzero(starts)
    values = np.fromstring(body, dtype=np.intp, sep=" ") if count else np.zeros(0, np.intp)
    if values.size != count:
        return None
    u, v = values[0::2], values[1::2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if not (lo < hi).all() or (hi.size and hi.max() >= n):
        return None
    return Graph(n, np.stack([lo, hi], axis=1))


def laplacians(n: int, pairs, weights) -> np.ndarray:
    """Dense weighted Laplacians on n nodes, batched over weight vectors.

    pairs is an (m, 2) array of distinct node pairs and weights an
    (m, ...) array; the result has shape (n, n, ...), one Laplacian per
    trailing index. The batch axis is last, so each entry of every
    member is one contiguous row, which keeps the build and column-wise
    batched factorizations in stride. Entries are subtracted from zeros,
    so an absent pair stays +0.0 rather than -0.0, which eigvalsh does
    not treat alike.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    L = np.zeros((n, n) + np.shape(weights)[1:])
    u, v = pairs[:, 0], pairs[:, 1]
    L[u, v] -= weights
    L[v, u] -= weights
    diag = np.arange(n)
    L[diag, diag] -= L.sum(1)
    return L


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense float array."""
    return laplacians(graph.n, graph.pairs, np.ones(len(graph.pairs)))


def spectrum(graph: Graph) -> SpectralSummary:
    """lambda2 and lambda_n, each certified by index to within 1e-9.

    It runs algebraic_connectivity's dense eigvalsh solve and checks,
    which certify lambda2 to within tol = 1e-9 (at or below 320 nodes the
    same value bit for bit; above, both are within tol of lambda2, so they
    may differ by up to 2 tol), and certifies lambda_n by inertia on
    sigma I - L, which is positive definite iff lambda_n < sigma: a
    Cholesky factorization that succeeds at lambda_n + tol and fails at
    lambda_n - tol puts lambda_n within tol of its value, up to the
    factorizations' backward error; the failing one is a heuristic. The
    first test is skipped when lambda_n snaps to n, above which no
    eigenvalue lies. Graphs above 13,000 nodes are refused
    before anything is built, as on that route.

    Raises:
        ValueError: for a single node, or above the dense route's node cap.
        NumericalError: if the solver does not converge or a test
            contradicts the value.
    """
    w = _dense_eigenvalues(graph, "spectrum", lambda_n=True)
    return SpectralSummary(lambda2=float(w[1]), lambda_n=float(w[-1]))


def algebraic_connectivity(graph: Graph) -> float:
    """lambda2 alone, certified to within 1e-9.

    A graph above 500,000 nodes is refused on n alone, before either
    route starts. A graph with more than 1024 nodes and mean degree at
    most 8 takes the sparse route below; every other graph takes the dense
    one. The node count is public, so the choice leaks nothing the release
    does not. Either way an estimate within tol = 1e-9 of 0 or n is
    snapped onto that end of the range, and the value r so obtained is
    then certified from below by Sylvester's law of inertia (spectrum
    slicing; Parlett, The Symmetric Eigenvalue Problem) and from above by
    Courant-Fischer over span{1, x} for a vector x (see _certify_upper),

        lambda2 <= sum over edges (x_u - x_v)^2 / sum_i (x_i - mean x)^2,

    which needs no factorization, only a stated rounding margin, and does
    not depend on how many eigenvalues sit within tol of r (the star's
    lambda2 = 1 has multiplicity n - 2). The lower side needs no test when
    r - tol <= 0, because L is positive semidefinite, and the upper none
    when r + tol >= n, because no Laplacian eigenvalue of an n-node graph
    exceeds n.

    Dense: with s above every eigenvalue, the matrix

        M(sigma) = L + (s/n) 11^T - sigma I

    moves the constant null vector of L to s - sigma and leaves
    lambda_i - sigma for i >= 2, so it is positive definite iff
    lambda2 > sigma. Above 320 nodes s = n + 1, which no eigenvalue
    reaches, and a shift-invert Lanczos run on the Cholesky factor of
    M(-tol) estimates lambda2 alone (see _lanczos): 1-9 steps on the
    benchmark's members. At or below 320 nodes, where it saves little and
    loses on random graphs, or when it stops at its 32-step cap or its
    value fails a check, the estimate is the second eigenvalue from a
    dense symmetric solve that computes no eigenvectors, with s its
    lambda_n + 1. One Cholesky factorization C of M(r - tol) proves
    lambda2 >= r - tol, up to its backward error, about n eps s: a proof
    while n s stays well below tol / eps ~ 9e6 (1.05e6 at n = 1,024,
    3.6e5 for K_600); near n = 3000 it reaches 9e6, and there it is only
    a heuristic. At r = 0 it is the factor Lanczos ran on. C C^T drives
    the upper check: x is the Ritz vector, or after eigvalsh one solve
    from sin(1..n), and up to three steps of inverse iteration follow
    where its bound fails. Graphs above 13,000 nodes are refused here,
    before the 24 n^2 bytes the route needs are allocated.

    Sparse: the rank-one term would fill a sparse matrix, so the constant
    vector is projected out instead: a sparse LU of L - sigma I, with
    sigma = -1/n^2, solves from a centred right-hand side and its result
    is centred again. That deflated solve's largest eigenvalue is
    1 / (lambda2 - sigma), also where a disconnected graph repeats 0, and
    the same Lanczos run on it estimates lambda2 in at most 128 steps.
    Below, L - (r - tol) I must have exactly one negative pivot in a
    sparse LU that kept to the diagonal, which is a symmetric LDL^T
    factorization in exact arithmetic. It does not pivot, so its backward
    error has no a-priori bound: where a leading block of the elimination
    has an eigenvalue within about tol of lambda2, a pivot of size tol is
    followed by entries of size 1/tol, and rounding can move the count
    (20 of the 1,598 graphs on 2..6 nodes that the tests force onto this
    route miscount this way). Above, x is the Ritz vector, and up to three
    steps of inverse iteration with the deflated solve follow. When
    Lanczos stops at its cap or either side fails, a graph within the
    dense route's node cap is solved again on the dense route; a larger
    one raises.

    Raises:
        ValueError: for a single node, a graph above 500,000 nodes, or a
            graph above the dense route's node cap whose mean degree
            keeps it off the sparse one.
        NumericalError: if the solver does not converge or a test
            contradicts the value.
    """
    n = graph.n
    if n > _SPARSE_MAX_N:
        raise ValueError(f"algebraic connectivity takes at most {_SPARSE_MAX_N} nodes, got n={n}")
    if n > _SPARSE_MIN_N and 2 * len(graph.pairs) <= _SPARSE_MAX_MEAN_DEGREE * n:
        try:
            return _sparse_algebraic_connectivity(graph)
        except NumericalError:
            # the sparse route could not certify its value; the dense one
            # decides afresh where it may run
            if n > _DENSE_MAX_N:
                raise
    if _LANCZOS_MIN_N < n <= _DENSE_MAX_N:
        try:
            return _lanczos_algebraic_connectivity(graph)
        except NumericalError:
            # Lanczos stopped at its step cap or its value failed a check;
            # eigvalsh decides afresh
            pass
    return float(_dense_eigenvalues(graph, "algebraic connectivity")[1])


def _lanczos_algebraic_connectivity(graph: Graph) -> float:
    """algebraic_connectivity's dense route above _LANCZOS_MIN_N nodes; see
    its docstring. Raises NumericalError for the caller to fall back."""
    tol, n = _LAMBDA2_TOL, graph.n
    M = laplacian(graph)
    M += (n + 1) / n
    diag = M.diagonal().copy()
    C = _cholesky(M, diag, -tol)
    if C is None:
        raise NumericalError(f"inertia check: M(-{tol:.3e}) has no Cholesky factor")
    solve = _cholesky_solver(C)
    estimate, x = _lanczos(solve, n, _LANCZOS_STEPS)
    r = float(_snap(estimate - tol, n))
    if r > 0.0:
        # at r = 0, M(r - tol) is M(-tol), whose factor Lanczos ran on
        del C, solve
        C = _cholesky(M, diag, r - tol)
        if C is None:
            raise NumericalError(f"inertia check: lambda2 is below {r!r} - {tol:.3e}")
        solve = _cholesky_solver(C)
    del M
    if r + tol < n:
        _certify_upper(graph.pairs, solve, r, x)
    return r


def _lanczos(solve, n: int, steps: int) -> tuple[float, np.ndarray]:
    """1 / theta for the largest eigenvalue theta of solve, and its Ritz vector.

    solve inverts a shifted Laplacian with the constant vector out of the
    way, (C C^T)^-1 for the dense route's M(-tol) or the sparse route's
    deflated solve at sigma, so theta is 1 / (lambda2 - shift) and the
    caller adds its shift back (shift-invert; Ericsson and Ruhe, Math.
    Comp. 35, 1980). Single-vector Lanczos with full reorthogonalisation,
    Gram-Schmidt twice (Parlett, The Symmetric Eigenvalue Problem, ch. 6
    and 13), from the centred sin(1..n), which leaves out the constant
    vector. It stops once the error estimate of the largest Ritz value,
    carried into lambda-space, rho^2 / (theta^2 gap), is below tol / 1000:
    rho is the Ritz pair's residual norm, gap the distance to the next
    Ritz value (at the first step, theta itself). An invariant subspace
    gives rho = 0, which ends K_n in one step and the star in two. The
    estimate needs no proof; the checks that follow decide.

    Raises:
        NumericalError: after `steps` steps without that estimate.
    """
    tol = _LAMBDA2_TOL
    q = np.sin(np.arange(1.0, n + 1.0))
    q -= q.mean()
    Q = np.empty((steps, n))
    Q[0] = q / np.linalg.norm(q)
    T = np.zeros((steps, steps))
    for k in range(steps):
        basis = Q[: k + 1]
        w = solve(basis[k])
        T[k, k] = basis[k] @ w
        w -= (basis @ w) @ basis
        w -= (basis @ w) @ basis
        beta = np.linalg.norm(w)
        ritz, S = np.linalg.eigh(T[: k + 1, : k + 1])
        theta = ritz[-1]
        gap = theta - ritz[-2] if k else theta
        rho = beta * abs(S[-1, -1])
        if rho * rho <= tol / 1000.0 * theta * theta * gap:
            return 1.0 / theta, S[:, -1] @ basis
        if k + 1 < steps:
            Q[k + 1] = w / beta
            T[k, k + 1] = T[k + 1, k] = beta
    raise NumericalError(f"Lanczos: no estimate of lambda2 within {steps} steps")


def _dense_eigenvalues(graph: Graph, what: str, lambda_n: bool = False) -> np.ndarray:
    """Every Laplacian eigenvalue from one eigvalsh, snapped, with lambda2
    certified from both sides and, if asked, lambda_n; see
    algebraic_connectivity and spectrum."""
    n = graph.n
    if n < 2:
        raise ValueError(f"{what} requires at least 2 nodes")
    if n > _DENSE_MAX_N:
        raise ValueError(
            f"{what}: a dense solve on n={n} nodes needs about {24 * n * n} bytes; "
            f"the dense route takes at most {_DENSE_MAX_N} nodes "
            f"and the sparse lambda2 route a mean degree of at most {_SPARSE_MAX_MEAN_DEGREE}"
        )
    L = laplacian(graph)
    try:
        # L is exactly symmetric, so L.T is L in column order: numpy hands
        # it to LAPACK with a contiguous copy instead of a transposing one
        w = np.linalg.eigvalsh(L.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    s = float(w[-1]) + 1.0
    w = _snap(w, n)
    tol, r, top = _LAMBDA2_TOL, float(w[1]), float(w[-1])
    if lambda_n:
        # -L with sigma - degree on its diagonal is sigma I - L; negating in
        # place, and back, keeps to the route's three n x n arrays
        degrees = L.diagonal().copy()
        L *= -1.0
        if top + tol < n and _cholesky(L, -degrees, -(top + tol)) is None:
            raise NumericalError(f"inertia check: lambda_n is above {top!r} + {tol:.3e}")
        if _cholesky(L, -degrees, -(top - tol)) is not None:
            raise NumericalError(f"inertia check: lambda_n is below {top!r} - {tol:.3e}")
        L *= -1.0
        np.fill_diagonal(L, degrees)
    # L becomes M(r - tol) in place: the constant vector's eigenvalue 0
    # moves to s - r + tol >= 1 + tol. Its factor proves the lower side
    # and drives the upper one; at r = 0 it only supplies the factor
    L += s / n
    C = _cholesky(L, L.diagonal().copy(), r - tol)
    # the upper check needs only the factor
    del L
    if C is None:
        raise NumericalError(f"inertia check: lambda2 is below {r!r} - {tol:.3e}")
    if r + tol < n:
        solve = _cholesky_solver(C)
        _certify_upper(graph.pairs, solve, r, solve(np.sin(np.arange(1.0, n + 1.0))))
    return w


def _snap(w, n: int):
    """Eigenvalue estimates within _LAMBDA2_TOL of 0 or n, moved onto that end."""
    return np.where(w <= _LAMBDA2_TOL, 0.0, np.where(w >= n - _LAMBDA2_TOL, float(n), w))


def _sparse_algebraic_connectivity(graph: Graph) -> float:
    """algebraic_connectivity's sparse route; see its docstring."""
    from scipy import sparse

    tol, n = _LAMBDA2_TOL, graph.n
    u, v = graph.pairs.T
    rows = np.concatenate([u, v, np.arange(n)])
    cols = np.concatenate([v, u, np.arange(n)])
    weights = np.concatenate([np.full(2 * len(u), -1.0), graph.degrees().astype(float)])
    L = sparse.csc_matrix((weights, (rows, cols)), shape=(n, n))
    eye = sparse.identity(n, format="csc")
    # a connected graph has lambda2 >= 4 / (n diameter) > 4 / n^2 (Mohar
    # 1991), so the shift stays below a quarter of lambda2 and the solve
    # favours lambda2's eigenvectors over the rest
    sigma = -1.0 / n**2
    lu = _symmetric_lu(L - sigma * eye)

    def deflated_inverse(x):
        y = lu.solve(x - x.mean())
        return y - y.mean()

    estimate, x = _lanczos(deflated_inverse, n, _SPARSE_LANCZOS_STEPS)
    r = float(_snap(estimate + sigma, n))
    if r - tol > 0.0:
        shifted = _symmetric_lu(L - (r - tol) * eye)
        pivots = shifted.U.diagonal()
        if not (np.array_equal(shifted.perm_r, shifted.perm_c) and pivots.all()):
            raise NumericalError(
                "inertia check: the sparse LU left the diagonal or hit a zero pivot, "
                "so its pivots do not give the inertia"
            )
        negative = np.count_nonzero(pivots < 0.0)
        if negative != 1:
            raise NumericalError(
                f"inertia check: lambda2 is below {r!r} - {tol:.3e} "
                f"({negative} negative pivots, not 1)"
            )
    if r + tol < n:
        _certify_upper(graph.pairs, deflated_inverse, r, x)
    return r


def _symmetric_lu(A):
    """A sparse LU of the symmetric matrix A that pivots only on the diagonal.

    The column order is minimum degree on A + A^T and the rows follow it
    wherever the diagonal entry is nonzero, so perm_r == perm_c unless
    the factorization had to leave the diagonal.
    """
    from scipy.sparse.linalg import splu

    try:
        return splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU failed: {exc}") from exc


def _rayleigh_bound(pairs: np.ndarray, x: np.ndarray) -> float:
    """An upper bound on lambda2 from any vector x, rounding included.

    The largest Rayleigh quotient over span{1, x} is the quotient of x
    with its mean removed, so by Courant-Fischer it bounds lambda2. The
    vector y = x - mean is rounded, but the formula holds for y itself
    with y's exact mean, which the last fsum term accounts for. The node
    sums are fsums (correctly rounded); the edge terms, all nonnegative,
    are summed _SUM_BLOCK at a time by numpy and the block sums by fsum.
    So the computed quotient is within about (4.5 + _SUM_BLOCK / 2) eps
    of the exact one; it is inflated by _RAYLEIGH_MARGIN. A constant
    vector bounds nothing and gives inf.
    """
    n = len(x)
    y = x - math.fsum(x.tolist()) / n
    s1 = math.fsum(y.tolist())
    spread = math.fsum((y * y).tolist()) - s1 * s1 / n
    if not spread > 0.0:
        return math.inf
    # zero-padded to whole blocks
    terms = np.zeros(-(-len(pairs) // _SUM_BLOCK) * _SUM_BLOCK)
    np.subtract(y[pairs[:, 0]], y[pairs[:, 1]], out=terms[: len(pairs)])
    terms *= terms
    energy = math.fsum(terms.reshape(-1, _SUM_BLOCK).sum(axis=1).tolist())
    return energy / spread * (1.0 + _RAYLEIGH_MARGIN)


def _cholesky(M: np.ndarray, diag: np.ndarray, shift: float) -> np.ndarray | None:
    """The lower Cholesky factor of M - shift I, with diag the diagonal
    of M, or None where it has none."""
    np.fill_diagonal(M, diag - shift)
    try:
        # M is exactly symmetric; its transpose is the column-major view
        # LAPACK takes without a transposing copy (see _dense_eigenvalues)
        return np.linalg.cholesky(M.T)
    except np.linalg.LinAlgError:
        return None


def _certify_upper(pairs: np.ndarray, solve, r: float, x: np.ndarray) -> None:
    """Raise unless a Rayleigh bound puts lambda2 at most r + tol.

    The bound of x comes first; where it fails, up to _INVERSE_STEPS steps
    of inverse iteration with solve follow, each bounded in turn. solve is
    (C C^T)^-1 for the dense factor C of M(r - tol), whose least
    eigenvalue lambda2 - r + tol is about tol, or the sparse route's
    deflated solve, whose largest eigenvalue is 1 / (lambda2 - sigma).
    Either way a step scales lambda2's eigenspace up against the rest,
    and _rayleigh_bound makes the result a proof however inexact the solve
    was. Every start is fixed, so the check repeats bit for bit without
    numpy.random (5.6 MB of RSS to import).
    """
    tol = _LAMBDA2_TOL
    for step in range(_INVERSE_STEPS + 1):
        if step:
            x = solve(x)
            x /= np.abs(x).max()
        q = _rayleigh_bound(pairs, x)
        if q <= r + tol:
            return
    raise NumericalError(f"Rayleigh check: lambda2 may be above {r!r} + {tol:.3e} (bound {q!r})")


def _cholesky_solver(C: np.ndarray):
    """x -> (C C^T)^-1 x for a lower-triangular C, by blocked substitution.

    numpy has no triangular solve and the dense route does not import
    scipy. Each diagonal block of _SOLVE_BLOCK rows is inverted at the
    first solve, so an unused solver costs nothing, and a solve is
    matrix-vector products alone: forward through C, then back through
    C^T, each block after one product with the rows or columns solved. At n = 1,024 on a 2-core Xeon the inverses take about
    0.6 ms and a solve 0.4 ms (1.0 ms with np.linalg.solve on each block),
    against 6-13 ms for the factorization.
    """
    starts = range(0, len(C), _SOLVE_BLOCK)
    inverses = []

    def solve(x: np.ndarray) -> np.ndarray:
        if not inverses:
            inverses.extend(np.linalg.inv(C[i : i + _SOLVE_BLOCK, i : i + _SOLVE_BLOCK]) for i in starts)
        z = x.copy()
        for i, inverse in zip(starts, inverses):
            j = i + _SOLVE_BLOCK
            z[i:j] = inverse @ (z[i:j] - C[i:j, :i] @ z[:i])
        for i, inverse in zip(reversed(starts), reversed(inverses)):
            j = i + _SOLVE_BLOCK
            z[i:j] = (z[i:j] - z[j:] @ C[j:, i:j]) @ inverse
        return z

    return solve


def _all_pairs_distances(graph: Graph) -> np.ndarray:
    """Hop distances between all node pairs by Seidel's algorithm.

    R. Seidel, "On the all-pairs-shortest-path problem in unweighted
    undirected graphs", JCSS 51(3), 1995. Squaring the adjacency until it
    is complete takes about log2(diameter) matrix products; unwinding the
    squares takes as many again. A squaring product is only compared with
    zero, and a sum of nonnegative terms is zero only when every term is,
    so float32 is exact there. In the unwinding, T @ Aj, T * deg and T are
    nonnegative integers no larger than (n-1) * diameter <= (n-1)^2, and
    so is every partial sum of a product, in any summation order. The
    unwinding therefore runs in float32 while n^2 <= 2^24 (n <= 4096), and
    in float64, exact for any n whose n x n matrix fits in memory, above
    that. The squares are kept as bool and converted one at a time, which
    keeps the peak memory below that of the eigensolve.

    Graph caches what the public callers need from the result, so each
    graph pays for this pass at most once.
    """
    n = graph.n
    u, v = graph.pairs.T
    A = np.zeros((n, n), dtype=bool)
    A[u, v] = A[v, u] = True
    complete = n * (n - 1)
    squares = []
    while np.count_nonzero(A) < complete:
        Af = A.astype(np.float32)
        # A is symmetric, so A @ A.T is its square; numpy hands that form
        # to BLAS syrk, which does half the work of a general product
        B = (Af @ Af.T > 0.0) | A
        np.fill_diagonal(B, False)
        if np.count_nonzero(B) == np.count_nonzero(A):
            raise ValueError("graph is disconnected, distances are undefined")
        squares.append(A)
        A = B
    # distances in the complete graph A are 1 off the diagonal; one level
    # down, pairs adjacent in the last square are 1 apart and the rest 2
    unwind = np.float32 if n * n <= _F32_EXACT else np.float64
    T = 1.0 - np.eye(n, dtype=unwind)
    if squares:
        T = 2.0 * T - squares.pop()
    # T holds the distances in the square of Aj; a pair's distance in Aj
    # is 2T, less 1 when its neighbours' T average below T (Seidel's rule)
    for Aj in reversed(squares):
        Af = Aj.astype(unwind)
        deg = Af.sum(axis=0)
        less = T @ Af
        np.multiply(T, deg, out=Af)
        less = less < Af
        T *= 2.0
        T -= less
    return T.astype(np.int64)


def diameter_exact(graph: Graph) -> int:
    """Largest hop distance over all node pairs (Seidel's algorithm, exact)."""
    return graph._distance_summary[0]


def mean_distance_exact(graph: Graph) -> float:
    """Average hop distance over the n(n-1)/2 unordered node pairs."""
    n = graph.n
    if n < 2:
        raise ValueError("mean distance needs at least 2 nodes")
    return graph._distance_summary[1] / (n * (n - 1))


def min_degree(graph: Graph) -> int:
    return int(graph.degrees().min())
