"""Benchmark input graphs, written as privconn edge-list text.

Standard library only: the set-up probe generates nothing, but the
workload process builds every input before it imports privconn (and with
it numpy), so input generation never leaks into the measured set-up time.

Every family here except G(n, p) has a closed-form algebraic connectivity
(lambda2, the second-smallest Laplacian eigenvalue), so a benchmark run
can check the program's spectrum against it. A seed changes node labels,
edge order and endpoint order, never the graph's size or structure, so
the cost of an op does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from collections import deque


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)], 2.0 - 2.0 * math.cos(2.0 * math.pi / n)


def path(n: int):
    return n, [(i, i + 1) for i in range(n - 1)], 2.0 - 2.0 * math.cos(math.pi / n)


def grid(k: int):
    """k x k grid graph (path x path): lambda2 is the path's, 2 - 2cos(pi/k)."""
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    return k * k, edges, 2.0 - 2.0 * math.cos(math.pi / k)


def hypercube(d: int):
    n = 1 << d
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)], 2.0


def star(n: int):
    return n, [(0, v) for v in range(1, n)], 1.0


def complete(n: int):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)], float(n)


FAMILIES = {
    "cycle": cycle,
    "path": path,
    "grid": grid,
    "hypercube": hypercube,
    "star": star,
    "complete": complete,
}


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return all(seen)


def gnp_connected(n: int, p: float, rng: random.Random):
    """Erdos-Renyi G(n, p), redrawn until connected (no closed form)."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if is_connected(n, edges):
            return n, edges


def relabel(n: int, edges, rng: random.Random):
    """Same graph under a random node permutation, edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def edge_list_text(n: int, edges) -> str:
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
