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
from fractions import Fraction

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


def mp_eigenvalues(M: list[list[int]], dps: int = 40) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix from mpmath at dps digits.

    mpmath's own symmetric eigensolver shares no code with LAPACK, and at
    40 digits it stays far inside 1e-9 at repeated eigenvalues too, where
    charpoly roots come out only to about eps^(1/multiplicity).
    """
    import mpmath as mp

    with mp.workdps(dps):
        vals = mp.eigsy(mp.matrix(M), eigvals_only=True)
        return np.sort([float(v) for v in vals])


def roots_above(coefficients: list[int], s: Fraction) -> int:
    """Exact count of the roots above s of a real-rooted integer polynomial.

    The polynomial (highest power first, as charpoly_coefficients gives
    the characteristic polynomial of a symmetric integer matrix) is
    Taylor-shifted to s in rational arithmetic, and Descartes' rule of
    signs counts its positive roots, which is exact when every root is
    real. A root at s itself is a zero constant term and is not counted.
    """
    q = [Fraction(c) for c in coefficients]
    d = len(q) - 1
    for i in range(d):
        for j in range(1, d - i + 1):
            q[j] += s * q[j - 1]
    signs = [c > 0 for c in q if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


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


def mp_rho_below(t: float, lambda2: float, b: float, dps: int = 40) -> float:
    """The below-centre piece of the rate-error integral, unnormalized:
    (1/b) integral over [0, lambda2] of (exp(-x t) - exp(-lambda2 t))
    exp(-(lambda2 - x)/b) dx, by high-precision quadrature."""
    import mpmath as mp

    with mp.workdps(dps):
        lam, bb, tt = mp.mpf(lambda2), mp.mpf(b), mp.mpf(t)
        r = mp.exp(-lam * tt)
        return float(mp.quad(lambda x: (mp.exp(-x * tt) - r) * mp.exp(-(lam - x) / bb) / bb, [0, lam]))


def mp_expectation(func, center: float, b: float, n: float, dps: int = 60) -> float:
    """E[func(X)] under the bounded Laplace law, in high-precision arithmetic.

    func takes and returns mpmath numbers. Double-precision quadrature stops
    near 1e-11 relative; this route keeps full accuracy when b >> n, where
    the law is nearly uniform on [0, n] and the truncation mass C is a
    difference of nearly equal numbers. Tanh-sinh nodes never touch the
    interval ends, so an integrable endpoint singularity such as
    X^(-1/2) at 0 is fine.

    Raises:
        ValueError: if the same nodes do not integrate the density itself
            to 1 within 1e-30, as when b is so far below the support that
            no node lands inside the law (mp_narrow_expectation covers it).
    """
    import mpmath as mp

    with mp.workdps(dps):
        c, bb, nn = mp.mpf(center), mp.mpf(b), mp.mpf(n)
        C = 1 - (mp.exp(-c / bb) + mp.exp(-(nn - c) / bb)) / 2
        nodes = [mp.mpf(0), *([c] if 0 < c < nn else []), nn]

        def pdf(x):
            return mp.exp(-abs(x - c) / bb) / (2 * bb * C)

        mass = mp.quad(pdf, nodes)
        if abs(mass - 1) > mp.mpf("1e-30"):
            miss = mp.nstr(mass - 1, 3)
            raise ValueError(f"nodes miss the law ({center}, {b}, {n}): its mass is 1 + ({miss})")
        return float(mp.quad(lambda x: func(x) * pdf(x), nodes))


def mp_narrow_expectation(func, center: float, b: float, n: float, reach: float = 80.0, dps: int = 60) -> float:
    """E[func(X)] under the bounded Laplace law, for b far below the support.

    mp_expectation's nodes cannot resolve a law a few b wide once b is
    below about 1e-60 (it returns 0 at b = 1e-300), so this integrates in
    u = (x - center) / b, over |u| <= reach inside the support; the mass
    left out beyond reach is at most e^-reach of the total.
    """
    import mpmath as mp

    with mp.workdps(dps):
        c, bb, nn = mp.mpf(center), mp.mpf(b), mp.mpf(n)
        C = 1 - (mp.exp(-c / bb) + mp.exp(-(nn - c) / bb)) / 2
        lo, hi = max(-c / bb, -reach), min((nn - c) / bb, reach)
        nodes = [lo, *([0] if lo < 0 < hi else []), hi]
        return float(mp.quad(lambda u: func(c + bb * u) * mp.exp(-abs(u)) / (2 * C), nodes))


def mp_mass(center: float, b: float, n: float, lo: float, hi: float, dps: int = 40) -> float:
    """P(lo <= X <= hi) under the bounded Laplace law, in high-precision
    arithmetic: the untruncated Laplace distribution function in plain exp,
    renormalized over [0, n], instead of the library's expm1 branches."""
    import mpmath as mp

    with mp.workdps(dps):
        c, bb, nn = mp.mpf(center), mp.mpf(b), mp.mpf(n)

        def laplace_cdf(x):  # untruncated Laplace(c, b), clamped to [0, n]
            x = min(max(mp.mpf(x), 0), nn)
            return mp.exp((x - c) / bb) / 2 if x < c else 1 - mp.exp(-(x - c) / bb) / 2

        return float((laplace_cdf(hi) - laplace_cdf(lo)) / (laplace_cdf(nn) - laplace_cdf(0)))


def mp_exceedance(t: float, a: float, lambda2: float, b: float, n: float, dps: int = 40) -> float:
    """P(|exp(-X t) - exp(-lambda2 t)| >= a) under the bounded Laplace law.

    exp(-x t) decreases in x, so the event is a prefix {exp(-x t) - r >= a}
    and a suffix {r - exp(-x t) >= a} of [0, n], with r = exp(-lambda2 t).
    Each end is found by bisection on its inequality itself, with no
    logarithm inverted, and each piece's mass comes from mp_mass.
    """
    import mpmath as mp

    with mp.workdps(dps):
        tt, aa, nn = mp.mpf(t), mp.mpf(a), mp.mpf(n)
        r = mp.exp(-mp.mpf(lambda2) * tt)

        def prefix(x):
            return mp.exp(-x * tt) - r >= aa

        def suffix(x):
            return r - mp.exp(-x * tt) >= aa

        def end(holds):
            # holds changes its value once in [0, n]: find where
            lo, hi = mp.mpf(0), nn
            for _ in range(mp.mp.prec + 8):
                mid = (lo + hi) / 2
                if holds(mid) == holds(lo):
                    lo = mid
                else:
                    hi = mid
            return lo

        total = 0.0
        if prefix(0):
            total += 1.0 if prefix(nn) else mp_mass(lambda2, b, n, 0, end(prefix), dps)
        if suffix(nn):
            total += 1.0 if suffix(0) else mp_mass(lambda2, b, n, end(suffix), nn, dps)
        return total


def one_shot_mean_and_error(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean from numpy's mean and
    std(ddof=1) over the whole array at once."""
    return float(samples.mean()), float(samples.std(ddof=1)) / math.sqrt(samples.size)


def window_picks(n: int, unknown, known_present, lower: float, upper: float) -> np.ndarray:
    """Whether each completion's lambda2 lies in (lower, upper], by inertia.

    Completion i holds unknown[j] exactly when bit j of i is set, plus
    every known-present edge. Its Laplacian is built on its own, batch axis
    first, and M = L + ((n + 1)/n) 11^T (least eigenvalue lambda2) is tested
    by Sylvester's criterion: M - s I is positive definite iff all its
    leading principal minors are positive, each minor an LU determinant
    (the larger ones only where the smaller were positive).
    The test at lower is skipped when lower <= 0 and the one at upper when
    upper >= n, as the spectrum lies in [0, n].
    """
    k = len(unknown)
    ids = np.arange(1 << k)
    L = np.zeros((1 << k, n, n))
    for j, (u, v) in enumerate([*unknown, *known_present]):
        w = ((ids >> j) & 1).astype(float) if j < k else np.ones(1 << k)
        L[:, u, v] -= w
        L[:, v, u] -= w
        L[:, u, u] += w
        L[:, v, v] += w
    M = L + (n + 1) / n

    def positive_definite(s: float, members: np.ndarray) -> np.ndarray:
        shifted = M[members] - s * np.eye(n)
        ok = np.ones(len(members), dtype=bool)
        for d in range(1, n + 1):
            live = np.flatnonzero(ok)
            ok[live] = np.linalg.det(shifted[live, :d, :d]) > 0.0
        return ok

    keep = np.ones(1 << k, dtype=bool)
    if lower > 0.0:
        keep = positive_definite(lower, ids)
    if upper < n:
        keep[keep] = ~positive_definite(upper, ids[keep])
    return keep
