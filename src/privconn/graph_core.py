"""Undirected, unweighted graphs and their exact statistics.

Everything downstream (the private release, the audits, the attack demos)
works from this module's Laplacian spectrum and combinatorial oracles, so
the routines here favor exactness over scale: dense eigendecomposition
with an explicit residual check, and BFS for all distance quantities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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

    def degrees(self) -> np.ndarray:
        return np.bincount(np.array(list(self.edges), dtype=np.intp).ravel(), minlength=self.n)


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
    return laplacians(graph.n, list(graph.edges), np.ones(len(graph.edges)))


def spectrum(graph: Graph, tol: float = 1e-9) -> SpectralSummary:
    """Full Laplacian spectrum with a residual-certified accuracy of tol.

    Eigenvalues come from a dense symmetric eigendecomposition. Each pair
    (value, vector) is then checked against the residual ||L v - w v||,
    which for symmetric matrices bounds the eigenvalue error directly.
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
    residual = np.abs(L @ V - V * w).max()
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
    adj = graph.adjacency_lists()
    D = np.vstack([_bfs_levels(adj, s) for s in range(graph.n)])
    if (D < 0).any():
        raise ValueError("graph is disconnected, distances are undefined")
    return D


def diameter_exact(graph: Graph) -> int:
    """Largest hop distance over all node pairs (BFS, exact)."""
    return int(_all_pairs_distances(graph).max())


def mean_distance_exact(graph: Graph) -> float:
    """Average hop distance over the n(n-1)/2 unordered node pairs."""
    D = _all_pairs_distances(graph)
    iu = np.triu_indices(graph.n, k=1)
    return float(D[iu].mean())


def min_degree(graph: Graph) -> int:
    return int(graph.degrees().min())
