"""Independent oracles the test suite checks the library against.

Every closed form in the package is recomputed here by a structurally
different route: exact-integer characteristic polynomials plus companion
matrix roots instead of a symmetric eigensolver, Floyd-Warshall instead
of BFS, union-find instead of traversal, adaptive quadrature instead of
closed-form integrals, and plain exp arithmetic instead of the expm1 and
log1p forms. A defect would have to appear identically on both routes to
slip through.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def charpoly_coefficients(M: list[list[int]]) -> list[int]:
    """det(xI - M) coefficients, highest power first, by Faddeev-LeVerrier.

    Exact integer arithmetic end to end; every division by k is asserted
    exact, which an integer input matrix guarantees.
    """
    n = len(M)
    A = [[int(M[i][j]) for j in range(n)] for i in range(n)]
    coeffs = [1]
    Mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            AM = [
                [sum(A[i][t] * Mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            Mk = [
                [AM[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        trace = sum(
            sum(A[i][t] * Mk[t][i] for t in range(n)) for i in range(n)
        )
        q, r = divmod(-trace, k)
        assert r == 0, "characteristic polynomial of an integer matrix is integral"
        coeffs.append(q)
    return coeffs


def charpoly_eigenvalues(M: list[list[int]]) -> np.ndarray:
    """Ascending eigenvalues from the exact characteristic polynomial.

    Root extraction runs through the companion matrix (nonsymmetric QR),
    a different code path from the symmetric eigensolver under test.
    """
    coeffs = [float(c) for c in charpoly_coefficients(M)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def laplacian_int(n: int, edges) -> list[list[int]]:
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        L[u][v] -= 1
        L[v][u] -= 1
        L[u][u] += 1
        L[v][v] += 1
    return L


def floyd_warshall(n: int, edges) -> list[list[float]]:
    INF = math.inf
    D = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        D[u][v] = D[v][u] = 1.0
    for k in range(n):
        Dk = D[k]
        for i in range(n):
            Di = D[i]
            dik = Di[k]
            if dik == INF:
                continue
            for j in range(n):
                alt = dik + Dk[j]
                if alt < Di[j]:
                    Di[j] = alt
    return D


def union_find_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    root = find(0)
    return all(find(x) == root for x in range(n))


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def all_edge_sets(n: int):
    slots = edge_slots(n)
    for mask in range(1 << len(slots)):
        yield frozenset(slots[j] for j in range(len(slots)) if (mask >> j) & 1)


def connected_edge_sets(n: int):
    for edges in all_edge_sets(n):
        if union_find_connected(n, edges):
            yield edges


def direct_normalizer(center: float, b: float, n: float) -> float:
    """Truncation mass via plain exp, no expm1."""
    return 1.0 - 0.5 * (math.exp(-center / b) + math.exp(-(n - center) / b))


def bounded_laplace_pdf(x: float, center: float, b: float, n: float) -> float:
    if x < 0.0 or x > n:
        return 0.0
    return math.exp(-abs(x - center) / b) / (2.0 * b * direct_normalizer(center, b, n))


def quad_expectation(
    func,
    center: float,
    b: float,
    n: float,
    points=(),
    epsabs: float = 1e-13,
    epsrel: float = 1e-11,
    limit: int = 400,
) -> float:
    """E[func(X)] under the bounded Laplace law, by adaptive quadrature."""

    def integrand(x: float) -> float:
        return func(x) * bounded_laplace_pdf(x, center, b, n)

    pts = sorted({float(center), *(float(p) for p in points)})
    val, _ = integrate.quad(
        integrand, 0.0, n, points=pts, limit=limit, epsabs=epsabs, epsrel=epsrel
    )
    return val


def quad_rate_error(t: float, lambda2: float, b: float, n: float) -> float:
    """E |exp(-X t) - exp(-lambda2 t)| by float quadrature.

    At large t the integrand is a spike of width ~1/t against a domain of
    width n; doubling breakpoints from t^-1 upward keep the adaptive rule
    from stepping straight over it.
    """
    points = {lambda2}
    scale = 0.5 / t
    while scale < n and len(points) < 40:
        points.add(scale)
        scale *= 2.0
    flat = math.exp(-lambda2 * t)
    return quad_expectation(
        lambda x: abs(math.exp(-x * t) - flat),
        lambda2,
        b,
        n,
        points=points,
    )


def quad_inv_sqrt_expectation(center: float, b: float, n: float) -> float:
    """E[X^(-1/2)] with the endpoint singularity removed by x = s^2.

    The substitution turns the integrand into 2 * pdf(s^2), smooth apart
    from the kink at s = sqrt(center), so plain adaptive quadrature gets
    full accuracy.
    """

    def integrand(s: float) -> float:
        return 2.0 * bounded_laplace_pdf(s * s, center, b, n)

    val, _ = integrate.quad(
        integrand,
        0.0,
        math.sqrt(n),
        points=[math.sqrt(center)],
        limit=400,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    return val


def achieved_delta(c1: float, c2: float, b: float, n: float, epsilon: float) -> float:
    """sup over events S of P[X1 in S] - e^eps P[X2 in S], exactly.

    The supremum is attained on {x : p1(x) > e^eps p2(x)}, so it equals
    the integral of the positive part of p1 - e^eps p2. This is the
    quantity an (epsilon, delta) guarantee promises stays at or below
    delta for every adjacent pair.
    """
    e_eps = math.exp(epsilon)

    def integrand(x: float) -> float:
        gap = bounded_laplace_pdf(x, c1, b, n) - e_eps * bounded_laplace_pdf(x, c2, b, n)
        return gap if gap > 0.0 else 0.0

    val, _ = integrate.quad(
        integrand,
        0.0,
        n,
        points=sorted({c1, c2}),
        limit=800,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    return val


def mp_expected_rate_error(t: float, lambda2: float, b: float, n: float, dps: int = 40):
    """E |exp(-X t) - exp(-lambda2 t)| in high-precision arithmetic.

    scipy.quad loses meaning below ~1e-9 absolute; this mpmath route keeps
    full relative accuracy at any magnitude.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam, bb, nn, tt = mp.mpf(lambda2), mp.mpf(b), mp.mpf(n), mp.mpf(t)
        C = 1 - (mp.exp(-lam / bb) + mp.exp(-(nn - lam) / bb)) / 2
        r = mp.exp(-lam * tt)

        def integrand(x):
            return abs(mp.exp(-x * tt) - r) * mp.exp(-abs(x - lam) / bb) / (2 * bb * C)

        val = mp.quad(integrand, [0, lam, nn])
        return float(val)


def mp_expectation(func, center: float, b: float, n: float, dps: int = 60) -> float:
    """E[func(X)] under the bounded Laplace law, in high-precision arithmetic.

    func takes and returns mpmath numbers. Double-precision quadrature stops
    near 1e-11 relative; this route keeps full accuracy when b >> n, where
    the law is nearly uniform on [0, n] and the truncation mass C is a
    difference of nearly equal numbers. Tanh-sinh nodes never touch the
    interval ends, so an integrable endpoint singularity such as
    X^(-1/2) at 0 is fine.
    """
    import mpmath as mp

    with mp.workdps(dps):
        c, bb, nn = mp.mpf(center), mp.mpf(b), mp.mpf(n)
        C = 1 - (mp.exp(-c / bb) + mp.exp(-(nn - c) / bb)) / 2
        nodes = [mp.mpf(0), *([c] if 0 < c < nn else []), nn]
        return float(
            mp.quad(lambda x: func(x) * mp.exp(-abs(x - c) / bb) / (2 * bb * C), nodes)
        )
