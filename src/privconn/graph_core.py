"""Undirected, unweighted graphs and their exact statistics.

Everything downstream (the private release, the audits, the attack demos)
works from this module's Laplacian spectrum and combinatorial oracles, so
the routines here favor exactness over scale: dense eigendecomposition
with an explicit residual check, and Seidel's all-pairs algorithm for
the exact distances. Seidel costs O(n^3 log diameter) in BLAS matrix
products against O(n m) for n BFS passes in Python, so BFS is faster only
on long thin graphs: paths beyond about 2,000 nodes (at 3,072 nodes a
pass takes ~10 s against BFS's ~7 s). BFS remains for the connectivity
check.

A Graph never changes after construction, so each graph runs at most one
Seidel pass: the diameter and the distance sum are cached together on
the instance (never in a table keyed on the graph's value), as is the
(m, 2) edge array the Laplacian, the degrees and Seidel all start from.
Seidel's products run in float32 wherever that is exact: the squaring
products are only compared with zero, and every unwinding entry and
partial sum is an integer no larger than (n-1)^2, which float32 holds
exactly while it is at most 2^24 (n <= 4096).
"""

from __future__ import annotations

from collections import deque
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
    "laplacians",
    "spectrum",
    "is_connected",
    "symmetric_difference_size",
    "diameter_exact",
    "mean_distance_exact",
    "min_degree",
]


# float32 holds every integer up to 2^24 exactly
_F32_EXACT = 2**24


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on nodes 0..n-1.

    Edges are stored as a frozenset of (u, v) tuples with u < v, so two
    graphs compare equal iff they have the same node count and edge set.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e!r} is not a normalized pair inside 0..{self.n - 1}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, normalizing order."""
        edges = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self loop ({u}, {v}) is not allowed")
            edges.add(_normalize_edge(int(u), int(v)))
        return cls(n=n, edges=frozenset(edges))

    def adjacency_lists(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    @cached_property
    def pairs(self) -> np.ndarray:
        """The edges as a read-only (m, 2) intp array, built once."""
        pairs = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
        pairs.flags.writeable = False
        return pairs

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


@dataclass(frozen=True)
class SpectralSummary:
    """Laplacian eigenvalues in ascending order plus the two named ones."""

    eigenvalues: tuple
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
    n = None
    edges = set()
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
        # repeated lines are harmless; they collapse to the same edge
        edges.add(_normalize_edge(u, v))
    if n is None:
        raise EdgeListError("missing node count header 'n=<int>'")
    return Graph(n=n, edges=frozenset(edges))


def laplacians(n: int, pairs, weights) -> np.ndarray:
    """Dense weighted Laplacians on n nodes, batched over weight vectors.

    pairs is an (m, 2) array of distinct node pairs and weights an
    (..., m) array; the result has shape (..., n, n), one Laplacian per
    weight vector. Entries are subtracted from zeros, so an absent pair
    stays +0.0 rather than -0.0, which eigvalsh does not treat alike.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    L = np.zeros(np.shape(weights)[:-1] + (n, n))
    u, v = pairs[:, 0], pairs[:, 1]
    L[..., u, v] -= weights
    L[..., v, u] -= weights
    diag = np.arange(n)
    L[..., diag, diag] -= L.sum(-1)
    return L


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a dense float array."""
    return laplacians(graph.n, graph.pairs, np.ones(len(graph.edges)))


def spectrum(graph: Graph, tol: float = 1e-9) -> SpectralSummary:
    """Full Laplacian spectrum with a residual-certified accuracy of tol.

    Eigenvalues come from a dense symmetric eigendecomposition. Each pair
    (value, unit vector) is then checked against the residual 2-norm
    ||L v - w v||, which for symmetric matrices bounds the eigenvalue
    error directly.
    Values within tol of the theoretical range [0, n] are snapped onto it
    so that exact-zero and exact-n cases survive roundoff.

    Raises:
        NumericalError: if the decomposition fails or the residual check
            cannot certify the requested tolerance.
    """
    if graph.n < 2:
        raise ValueError("spectrum requires at least 2 nodes")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    L = laplacian(graph)
    try:
        w, V = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    # the eigenvalue bound needs each column's 2-norm, not its largest entry
    R = L @ V
    R -= V * w
    residual = np.linalg.norm(R, axis=0).max()
    if residual > tol:
        raise NumericalError(
            f"eigenvalue residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    w = np.where((w < 0.0) & (w > -tol), 0.0, w)
    w = np.where((w > graph.n) & (w < graph.n + tol), float(graph.n), w)
    vals = tuple(float(x) for x in w)
    return SpectralSummary(eigenvalues=vals, lambda2=vals[1], lambda_n=vals[-1])


def _bfs_levels(adj: list, source: int) -> np.ndarray:
    """Hop distances from source; unreachable nodes are -1."""
    dist = np.full(len(adj), -1, dtype=int)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_connected(graph: Graph) -> bool:
    if graph.n == 1:
        return True
    return (_bfs_levels(graph.adjacency_lists(), 0) >= 0).all()


def symmetric_difference_size(g: Graph, h: Graph) -> int:
    """|E(g) xor E(h)|, the edge-level adjacency distance between graphs."""
    if g.n != h.n:
        raise ValueError(f"graphs have different node counts: {g.n} vs {h.n}")
    return len(g.edges.symmetric_difference(h.edges))


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
