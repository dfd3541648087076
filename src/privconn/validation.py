"""Empirical checks of the privacy and accuracy claims, plus a
reconstruction demo.

Four audits:

  * audit_sensitivity exhausts every graph on up to 5 nodes and verifies
    that editing at most A edges never moves lambda2 by more than 2A.
  * audit_dp draws histograms of the release mechanism's output on
    adjacent graph pairs, one per graph, and searches for an event whose
    probabilities break the (epsilon, delta) inequality by more than
    sampling noise explains. Run with scale_factor < 1 it doubles as a
    negative control: a deliberately under-scaled mechanism must fail.
  * audit_concentration measures how often the estimated contraction
    factor strays from the truth at each time in a grid and compares
    against the certified tail bound.
  * audit_expectations Monte-Carlo checks the closed-form means used by
    the planning operations (draw, its inverse square root, the rate
    error at t = 1).

audit_dp and audit_concentration only count, and a count of i.i.d.
draws has an exact law: a histogram of N draws is Multinomial(N, bin
masses) and an exceedance count is Binomial(N, p), each mass or p a
difference of the closed-form cdf. So they draw each count from that law,
one call per graph or grid point, from a seeded generator in a fixed
order, and never run the sampler. audit_expectations checks means, which
are not counts, so it runs the shipped sampler end to end: it draws in
blocks of 2^15 and keeps a running mean and sum of squared deviations per
quantity, merged block by block as in Chan, Golub & LeVeque ("Algorithms
for computing the sample variance", 1983), so its memory is O(block)
whatever the number of trials.

The attack side shows why the noise is needed: exact_value_attack lists
every graph consistent with partial edge knowledge and a published
connectivity value and reports which edges that pins down;
attack_under_noise repeats the enumeration against a private release,
where the candidate set swells back to near-uselessness.

Both keep a completion when its lambda2 lies in the window
(v - tol, v + tol] around the published value v, and decide that by
Sylvester's law of inertia instead of computing lambda2. With
M = L + ((n + 1)/n) 11^T, whose least eigenvalue is lambda2 (the all-ones
eigenvalue 0 of L moves to n + 1), lambda2 > s exactly when M - s I has a
Cholesky factor. So a completion is kept when that factor exists at
v - tol and does not at v + tol. The lower test is skipped when
v - tol <= 0 (L is positive semidefinite), the upper one when
v + tol >= n (no Laplacian eigenvalue exceeds n), and with both skipped
no matrix is built. At n <= 6, ||M|| <= n + 1 = 7, so the
factorization's backward error, about 1e-14, is far below any tolerance
worth asking for: the selection is certified by index up to that error,
with no computed eigenvalue involved. The completions are tested in
blocks of 2^12 that differ only in their low 12 slots, whose Laplacians
are built once; a block adds the Laplacian of its shared high slots.
Only the kept completions are counted and recorded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .consensus_analysis import concentration_bound, expected_rate_error
# spectrum is unused here; bench/tracer.py rebinds validation.spectrum
from .graph_core import Graph, algebraic_connectivity, laplacians, spectrum  # noqa: F401
from .privacy_mechanism import (
    BoundedLaplaceDist,
    PrivacyParams,
    _check_scale,
    sensitivity_bound,
    solve_scale_b,
)
from .property_bounds import expected_inv_sqrt_lambda2, expected_lambda2

__all__ = [
    "AuditReport",
    "AttackResult",
    "NoisyAttackResult",
    "audit_sensitivity",
    "audit_dp",
    "audit_concentration",
    "audit_expectations",
    "exact_value_attack",
    "attack_under_noise",
]

# The sensitivity audit compares every graph against every neighbor, so it
# is kept one node smaller than the plain enumerations.
_MAX_SENSITIVITY_N = 5
_MAX_ENUMERATION_N = 6
# Draws per block of the expectation audit, and the log2 of the completions
# per block of the attacks' inertia tests. Each bounds what a block
# allocates, and each was as fast as one shot or faster in process.
_DRAW_BLOCK = 1 << 15
_MASK_BLOCK_BITS = 12
# The DP audit's histogram bins over [0, n]; the bin edges are allocated
# before any draw.
_MAX_BINS = 10_000
# The counted audits' trials per graph or grid point: every count up to
# 2^53 is an exact double, and numpy's multinomial and binomial take int64.
_MAX_TRIALS = 2**53


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: the worst margin found and how hard it looked.

    worst_violation is signed slack against the claimed inequality;
    negative means the claim held with room to spare, positive means it
    was broken beyond what sampling noise explains. trials records the
    per-unit sampling effort (draws per graph, draws per grid point, or
    pairs compared for the exhaustive scan).
    """

    audit_name: str
    trials: int
    worst_violation: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _draws(dist: BoundedLaplaceDist, rng: np.random.Generator, count: int):
    """count draws of dist, in blocks of at most _DRAW_BLOCK."""
    for start in range(0, count, _DRAW_BLOCK):
        yield dist.sample(rng, min(_DRAW_BLOCK, count - start))


def audit_sensitivity(n: int, A: int = 1, slack: float = 1e-9) -> AuditReport:
    """Exhaustively confirm |lambda2(G) - lambda2(G')| <= 2A over all
    pairs of n-node graphs differing in at most A edges.

    The observed maximum is reported alongside the bound; it is tight
    (complete versus complete-minus-an-edge realizes exactly 2A = 2 for
    A = 1), so passing means the bound holds up to the roundoff slack,
    not that it is loose.
    """
    if not 2 <= n <= _MAX_SENSITIVITY_N:
        raise ValueError(f"exhaustive sensitivity audit supports 2 <= n <= {_MAX_SENSITIVITY_N}")
    bound = sensitivity_bound(A)
    slots = _edge_slots(n)
    m = len(slots)
    idx = np.arange(1 << m)
    Ls = _completion_laplacians(n, slots, frozenset(), idx)
    lam2 = np.linalg.eigvalsh(np.moveaxis(Ls, -1, 0))[:, 1]
    observed = 0.0
    worst = (0, 0)
    compared = 0
    if A >= m:
        # every pair is adjacent; the extreme gap is empty vs complete
        observed = float(np.ptp(lam2))
        worst = (int(np.argmin(lam2)), int(np.argmax(lam2)))
        compared = (1 << m) * ((1 << m) - 1) // 2
    else:
        for k in range(1, A + 1):
            for flips in itertools.combinations(range(m), k):
                xor = 0
                for j in flips:
                    xor |= 1 << j
                diffs = np.abs(lam2[idx] - lam2[idx ^ xor])
                compared += diffs.size
                j_max = int(np.argmax(diffs))
                if diffs[j_max] > observed:
                    observed = float(diffs[j_max])
                    worst = (j_max, j_max ^ xor)
    violation = observed - bound
    return AuditReport(
        audit_name="sensitivity",
        trials=compared,
        worst_violation=violation,
        passed=violation <= slack,
        details={
            "n": n,
            "A": A,
            "bound": bound,
            "observed_max": observed,
            "graphs_scanned": 1 << m,
            "worst_pair_edges": [
                [list(s) for s, bit in zip(slots, row) if bit]
                for row in _mask_bits(worst, m).tolist()
            ],
        },
    )


def _lambda2_of_edges(n: int, edges: frozenset) -> float:
    # lambda2 is certified by index and snapped onto [0, n], which the
    # sampler's domain check insists on
    return algebraic_connectivity(Graph(n=n, edges=edges))


def _adjacent_pairs(n: int, A: int, pairs: int, rng: np.random.Generator):
    """Deterministic pairs first, then seeded random (graph, A-flip) pairs.

    The identical pair calibrates the detector: no event may separate a
    distribution from itself. The complete / complete-minus-edge pair
    realizes the full sensitivity and is where an under-scaled mechanism
    actually leaks; random pairs alone would miss it most runs. The
    empty / one-edge pair exercises the mechanism centered on the support
    boundary.
    """
    slots = _edge_slots(n)
    m = len(slots)
    full = frozenset(slots)
    yield full, full
    yield full, full - {slots[0]}
    yield frozenset(), frozenset({slots[0]})
    for _ in range(pairs):
        bits = rng.integers(0, 2, size=m).astype(bool)
        edges = frozenset(s for s, keep in zip(slots, bits) if keep)
        flips = rng.choice(m, size=min(A, m), replace=False)
        edges2 = edges.symmetric_difference(slots[int(j)] for j in flips)
        yield edges, edges2


def _distinguish(p_counts: np.ndarray, q_counts: np.ndarray, eps: float, delta: float, trials: int) -> float:
    """Violation score for the best histogram event separating p from q.

    Greedy optimal event: the bins where p already beats e^eps q. The
    score subtracts delta and three standard errors, so positive means
    the privacy inequality fails beyond what sampling noise explains.
    The event's probabilities are its summed counts over trials, exact
    integers divided once, so neither exceeds 1 by rounding.
    """
    sel = p_counts > math.exp(eps) * q_counts
    P = int(p_counts[sel].sum()) / trials
    Q = int(q_counts[sel].sum()) / trials
    sigma = math.sqrt(
        P * (1.0 - P) / trials + math.exp(2.0 * eps) * Q * (1.0 - Q) / trials
    )
    return P - math.exp(eps) * Q - delta - 3.0 * sigma


def audit_dp(
    n: int,
    params: PrivacyParams,
    pairs: int = 20,
    samples_per_graph: int = 200_000,
    bins: int = 50,
    seed: int = 0,
    scale_factor: float = 1.0,
) -> AuditReport:
    """Draw the mechanism's histograms on adjacent graph pairs and hunt
    for a distinguishing event.

    For each pair the release law is estimated with samples_per_graph
    draws per graph on a `bins`-bin histogram over [0, n] (at most
    10,000 bins), and the best separating event is scored in both
    directions. scale_factor multiplies the solved scale: 1.0 audits the
    mechanism as shipped, values below 1 build the negative control the
    audit is expected to catch.

    Each graph's bin counts are one Multinomial(samples_per_graph, bin
    masses) draw, the exact law of a histogram of that many draws, with
    each mass a difference of the cdf at the bin edges. One generator,
    seeded by seed, draws everything in a fixed order: each random pair,
    then its two graphs' counts.

    Raises:
        ValueError: on an argument _check_dp_audit refuses.
    """
    _check_dp_audit(n, samples_per_graph, pairs, bins, scale_factor)
    b = solve_scale_b(params, float(n)) * scale_factor
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    bin_edges = np.linspace(0.0, float(n), bins + 1)

    def counts(center: float) -> np.ndarray:
        dist = BoundedLaplaceDist(center=center, scale_b=b, domain_upper_n=float(n))
        # multinomial refuses a mass below 0; the cdf is nondecreasing only
        # as far as numpy's exp and expm1 round monotonically
        masses = np.clip(np.diff(dist.cdf(bin_edges)), 0.0, None)
        return rng.multinomial(samples_per_graph, masses)

    per_pair = []
    worst = -math.inf
    for pair in _adjacent_pairs(n, params.A, pairs, rng):
        c_g, c_h = (_lambda2_of_edges(n, graph_edges) for graph_edges in pair)
        p_counts, q_counts = counts(c_g), counts(c_h)
        fwd = _distinguish(p_counts, q_counts, params.epsilon, params.delta, samples_per_graph)
        rev = _distinguish(q_counts, p_counts, params.epsilon, params.delta, samples_per_graph)
        worst = max(worst, fwd, rev)
        per_pair.append(
            {
                "lambda2_pair": [c_g, c_h],
                "violation_forward": fwd,
                "violation_reverse": rev,
            }
        )
    return AuditReport(
        audit_name="dp_distinguisher",
        trials=samples_per_graph,
        worst_violation=worst,
        passed=worst <= 0.0,
        details={
            "n": n,
            "epsilon": params.epsilon,
            "delta": params.delta,
            "A": params.A,
            "b": b,
            "scale_factor": scale_factor,
            "bins": bins,
            "pairs": per_pair,
        },
    )


def _check_dp_audit(n: int, samples_per_graph: int, pairs: int, bins: int, scale_factor: float) -> None:
    """Raise what audit_dp would raise on these arguments, before any work;
    validate calls it before any audit."""
    if not 2 <= n <= _MAX_ENUMERATION_N:
        raise ValueError(f"audit supports 2 <= n <= {_MAX_ENUMERATION_N}")
    if samples_per_graph < 100_000:
        raise ValueError("need at least 1e5 samples per graph to resolve the histograms")
    if samples_per_graph > _MAX_TRIALS:
        raise ValueError(f"samples per graph must be at most 2**53, got {samples_per_graph}")
    if pairs < 0:
        raise ValueError(f"extra random pair count must be >= 0, got {pairs}")
    if not 2 <= bins <= _MAX_BINS:
        raise ValueError(f"histogram bins must lie in [2, {_MAX_BINS}], got {bins}")
    if not 0.0 < scale_factor < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {scale_factor}")


def _check_tail_audits(lambda2: float, n: float, t_grid, a: float, conc_trials: int, exp_trials: int) -> None:
    """Raise what audit_concentration and audit_expectations would raise on
    these arguments, without a draw; validate calls it before any audit.

    Their scale is left out, because audit_dp solves it; every check here
    passes or fails alike at any valid scale, so a unit scale stands in.
    """
    _concentration_bounds(lambda2, 1.0, n, t_grid, a, conc_trials)
    _check_expectation_trials(exp_trials)


def _concentration_bounds(lambda2: float, b: float, n: float, t_grid, a: float, trials: int):
    """audit_concentration's argument checks, then the times as an array
    and the bound at each time as a list."""
    if trials < 10_000:
        raise ValueError("need at least 1e4 draws per grid point")
    if trials > _MAX_TRIALS:
        raise ValueError(f"draws per grid point must be at most 2**53, got {trials}")
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.ndim != 1 or t_arr.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence of times")
    # checks a, lambda2 and every time
    return t_arr, concentration_bound(t_arr, a, lambda2, b, float(n)).tolist()


def _check_expectation_trials(trials: int) -> None:
    if trials < 1_000_000:
        raise ValueError("need at least 1e6 draws to resolve the means")


def audit_concentration(
    lambda2: float,
    b: float,
    n: float,
    t_grid,
    a: float,
    trials: int = 10_000,
    seed: int = 0,
) -> AuditReport:
    """Measure the rate-error tail against its certified bound on a time grid.

    At each time t the empirical exceedance frequency
    P(|exp(-X t) - exp(-lambda2 t)| >= a) over fresh draws of X is
    compared with the Markov bound; the violation subtracts three
    binomial standard errors, so positive means the certificate is wrong,
    not unlucky. Each time's exceedance count is one Binomial(trials, p)
    draw, the exact law of that count over trials draws, with p from the
    cdf; the times are drawn in grid order from one seeded generator.
    details carries the full curve, including the certified success floor
    1 - bound (negative where the bound is vacuous; reported as computed).
    """
    t_arr, bounds = _concentration_bounds(lambda2, b, n, t_grid, a, trials)
    dist = BoundedLaplaceDist(center=lambda2, scale_b=b, domain_upper_n=float(n))
    # exp(-X t) falls as X grows, so with f = exp(-lambda2 t) the event is
    # X <= -ln(f + a)/t (empty once f + a >= 1) or X >= -ln(f - a)/t (empty
    # while f <= a); a tiny t sends an end to -inf or inf, where cdf is 0 or 1
    flat = np.exp(-lambda2 * t_arr)
    upper = flat > a
    with np.errstate(over="ignore"):
        p = dist.cdf(-np.log(flat + a) / t_arr)
        p[upper] += 1.0 - dist.cdf(-np.log(flat[upper] - a) / t_arr[upper])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # cdf(n) can round to 1 + 2^-52, so p can come out just below 0
    exceed = rng.binomial(trials, np.clip(p, 0.0, 1.0)).tolist()
    rows = []
    worst = -math.inf
    for t, bound, count in zip(t_arr, bounds, exceed):
        p_hat = count / trials
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        violation = p_hat - bound - 3.0 * sigma
        worst = max(worst, violation)
        rows.append(
            {
                "t": float(t),
                "bound": bound,
                "empirical": p_hat,
                "std_error": sigma,
                "success_floor": 1.0 - bound,
            }
        )
    return AuditReport(
        audit_name="concentration",
        trials=trials,
        worst_violation=worst,
        passed=worst <= 0.0,
        details={
            "lambda2": lambda2,
            "b": b,
            "n": float(n),
            "a": a,
            "grid": rows,
        },
    )


def audit_expectations(
    lambda2: float,
    b: float,
    n: float,
    trials: int = 1_000_000,
    seed: int = 0,
) -> AuditReport:
    """Monte-Carlo check of the closed-form means the planner relies on.

    One stream of draws feeds three comparisons: the mean draw, the mean
    inverse square root, and the mean absolute rate error at t = 1, each
    against its closed form with a three-standard-error allowance. A mean
    has no count law to draw from, so the draws come from the shipped
    sampler, which makes this the audit that runs it end to end. Each
    quantity keeps a running mean and sum of squared deviations, merged
    block by block by Chan's update, so memory does not grow with trials;
    the mean and standard error agree with numpy's one-shot mean and
    std(ddof=1) to rounding (a few 1e-16 relative).
    """
    _check_expectation_trials(trials)
    dist = BoundedLaplaceDist(center=lambda2, scale_b=b, domain_upper_n=float(n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t_probe = 1.0
    flat = math.exp(-lambda2 * t_probe)
    count, mean, m2 = 0, np.zeros(3), np.zeros(3)
    for draws in _draws(dist, rng, trials):
        samples = np.stack([draws, 1.0 / np.sqrt(draws), np.abs(np.exp(-draws * t_probe) - flat)])
        size = samples.shape[1]
        block_mean = samples.mean(axis=1)
        shift = block_mean - mean
        count += size
        mean += shift * (size / count)
        block_m2 = ((samples - block_mean[:, None]) ** 2).sum(axis=1)
        m2 += block_m2 + shift**2 * ((count - size) * size / count)
    quantities = [
        ("mean_draw", expected_lambda2(lambda2, b, float(n))),
        ("mean_inv_sqrt", expected_inv_sqrt_lambda2(lambda2, b, float(n))),
        ("mean_rate_error_at_t1", float(expected_rate_error(t_probe, lambda2, b, float(n)))),
    ]
    rows = []
    worst = -math.inf
    for (name, closed), mc, ss in zip(quantities, mean.tolist(), m2.tolist()):
        se = math.sqrt(ss / (trials - 1)) / math.sqrt(trials)
        violation = abs(mc - closed) - 3.0 * se
        worst = max(worst, violation)
        rows.append(
            {
                "quantity": name,
                "closed_form": closed,
                "monte_carlo": mc,
                "std_error": se,
                "violation": violation,
            }
        )
    return AuditReport(
        audit_name="expectations",
        trials=trials,
        worst_violation=worst,
        passed=worst <= 0.0,
        details={"lambda2": lambda2, "b": b, "n": float(n), "quantities": rows},
    )


def _mask_bits(masks: np.ndarray, k: int) -> np.ndarray:
    """Row i holds the k slot bits of masks[i], lowest slot first, as uint8."""
    return ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(k)) & 1).astype(np.uint8)


def _completion_laplacians(
    n: int, unknown: list, known_present: frozenset, masks: np.ndarray
) -> np.ndarray:
    """Laplacians of the completions numbered by masks, shape
    (n, n, len(masks)), batch axis last.

    Completion i has unknown[j] exactly when bit j of i is set, plus every
    known-present edge; with no knowledge that is every graph on n
    labelled nodes.
    """
    k = len(unknown)
    # known-present edges are slots whose bit is set in every completion
    pairs = unknown + list(known_present)
    always = ((1 << len(known_present)) - 1) << k
    return laplacians(n, pairs, _mask_bits(masks | always, len(pairs)).T)


def _cholesky_succeeds(M: np.ndarray, shift: float) -> np.ndarray:
    """Whether each member M[:, :, i] - shift I has a Cholesky factor.

    numpy's stacked cholesky raises at the first member that has none,
    so the textbook column steps run here over the whole batch at once,
    each factor entry one contiguous row. A member fails at its first
    pivot that is not positive (NaN included), as in LAPACK's potrf;
    after that its steps divide by 1 and are ignored.
    """
    n = M.shape[0]
    ok = np.ones(M.shape[2:], dtype=bool)
    L = [[] for _ in range(n)]  # L[i][j]: factor entry (i, j), j < i
    for j in range(n):
        pivot = M[j, j] - shift - sum(x * x for x in L[j])
        ok &= pivot > 0.0
        root = np.sqrt(np.where(ok, pivot, 1.0))
        for i in range(j + 1, n):
            L[i].append((M[i, j] - sum(a * b for a, b in zip(L[i], L[j]))) / root)
    return ok


def _consistent_masks(
    n: int, known_present, known_absent, lambda2_observed: float, tol: float
) -> tuple[list[tuple[int, int]], frozenset, np.ndarray, np.ndarray, int]:
    """(unknown slots, known-present edges, the numbers of the completions
    whose lambda2 lies in (v - tol, v + tol], how many of those contain
    each unknown slot, completions enumerated).

    Completion i holds unknown[j] exactly when bit j of i is set. The
    window is decided by two inertia tests (see the module docstring),
    each skipped where the spectrum's range [0, n] already settles it.
    The completions are tested and counted in blocks of 2^12 that share
    their high bits, so memory is O(block) plus 8 bytes per kept
    completion, and no 2^k-row matrix is built.
    """
    if not 2 <= n <= _MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 2 <= n <= {_MAX_ENUMERATION_N}")
    if not math.isfinite(lambda2_observed):
        raise ValueError(f"observed value must be finite, got {lambda2_observed}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    kp = Graph.from_edges(n, known_present).edges
    ka = Graph.from_edges(n, known_absent).edges
    if kp & ka:
        raise ValueError(f"edges claimed both present and absent: {sorted(kp & ka)}")
    unknown = [s for s in _edge_slots(n) if s not in kp and s not in ka]
    k = len(unknown)
    lower, upper = lambda2_observed - tol, lambda2_observed + tol
    test = lower > 0.0 or upper < n
    low = min(k, _MASK_BLOCK_BITS)
    if test:
        # a Laplacian is the sum of its edges' Laplacians, so completion
        # (high << low) | j has the j-th of these plus one per block
        low_laplacians = _completion_laplacians(n, unknown[:low], frozenset(), np.arange(1 << low))
        M = np.empty_like(low_laplacians)
    kept = []
    slot_counts = np.zeros(k, dtype=np.int64)
    for high in range(1 << (k - low)):
        masks = np.arange(high << low, (high + 1) << low)
        if test:
            # M = L + ((n + 1)/n) 11^T: its least eigenvalue is lambda2; L
            # is integral, so each entry is rounded once, as in one shot
            high_laplacian = _completion_laplacians(n, unknown[low:], kp, np.array([high]))
            np.add(low_laplacians, high_laplacian, out=M)
            M += (n + 1) / n
            keep = np.ones(len(masks), dtype=bool)
            if lower > 0.0:
                keep &= _cholesky_succeeds(M, lower)
            if upper < n:
                keep &= ~_cholesky_succeeds(M, upper)
            masks = masks[keep]
        kept.append(masks)
        slot_counts += _mask_bits(masks, k).sum(0, dtype=np.int64)
    return unknown, kp, np.concatenate(kept), slot_counts, 1 << k


def _completions(unknown, kp: frozenset, masks: np.ndarray) -> list[frozenset]:
    bits = _mask_bits(masks, len(unknown))
    return [kp | {slot for slot, bit in zip(unknown, row) if bit} for row in bits.tolist()]


def _slot_frequencies(unknown, slot_counts: np.ndarray, kept: int) -> dict:
    """Share of the kept completions containing each unknown slot (nan if
    none is kept)."""
    if not kept:
        return dict.fromkeys(unknown, math.nan)
    return dict(zip(unknown, (slot_counts / kept).tolist()))


def _disclosed(freqs: dict) -> tuple[tuple, tuple]:
    """Slots present in every candidate, and slots present in none."""
    present = tuple(s for s, f in freqs.items() if f == 1.0)
    absent = tuple(s for s, f in freqs.items() if f == 0.0)
    return present, absent


@dataclass(frozen=True)
class AttackResult:
    """What an adversary with partial knowledge learns from an exact value."""

    n: int
    value: float
    tol: float
    candidate_count: int
    inferred_present: tuple
    inferred_absent: tuple
    edge_frequencies: dict
    candidates: tuple

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "tol": self.tol,
            "candidate_count": self.candidate_count,
            "inferred_present": [list(e) for e in self.inferred_present],
            "inferred_absent": [list(e) for e in self.inferred_absent],
            "edge_frequencies": {f"{u}-{v}": f for (u, v), f in self.edge_frequencies.items()},
            "candidate_edge_sets": [[list(e) for e in sorted(c)] for c in self.candidates],
        }


def exact_value_attack(
    n: int,
    value: float,
    known_present=(),
    known_absent=(),
    tol: float = 1e-6,
) -> AttackResult:
    """Enumerate every graph consistent with partial edge knowledge and an
    exactly published connectivity value, and summarize the disclosure.

    A candidate is a knowledge-consistent graph whose lambda2 lies in
    (value - tol, value + tol], certified by index by two Cholesky inertia
    tests (see the module docstring), not read off a computed eigenvalue.
    The candidates are edge sets, and depend only on the knowledge sets,
    not on the order their edges were given in; tol = inf drops the value
    constraint and keeps the whole knowledge-consistent family. Any
    unknown edge slot present in every candidate (or in none) has been
    disclosed to the adversary outright; the remaining slots get a
    candidate frequency. An empty candidate set means the claimed value
    contradicts the claimed knowledge.

    Raises:
        ValueError: if value is not finite or tol is not positive, or on
            bad or contradictory knowledge.
    """
    unknown, kp, masks, slot_counts, _ = _consistent_masks(n, known_present, known_absent, value, tol)
    candidates = _completions(unknown, kp, masks)
    freqs = _slot_frequencies(unknown, slot_counts, len(masks))
    inferred_present, inferred_absent = _disclosed(freqs)
    return AttackResult(
        n=n,
        value=value,
        tol=tol,
        candidate_count=len(candidates),
        inferred_present=inferred_present,
        inferred_absent=inferred_absent,
        edge_frequencies=freqs,
        candidates=tuple(candidates),
    )


@dataclass(frozen=True)
class NoisyAttackResult:
    """The same enumeration run against a private release instead."""

    n: int
    release_value: float
    window_halfwidth: float
    plausible_count: int
    knowledge_consistent_count: int
    inferred_present: tuple
    inferred_absent: tuple

    def as_dict(self) -> dict:
        return asdict(self)


def attack_under_noise(
    n: int,
    release_value: float,
    b: float,
    coverage: float = 0.9,
    known_present=(),
    known_absent=(),
) -> NoisyAttackResult:
    """Rerun the consistency attack against a noisy release.

    The adversary cannot rule out any graph whose exact value lies within
    the noise window w = b * log(1/(1 - coverage)) of the release (the
    untruncated Laplace puts at least `coverage` of its mass within w of
    its center; truncation only concentrates it further). The plausible
    graphs are those with lambda2 in (release - w, release + w],
    certified by index as in exact_value_attack; a window that
    covers all of [0, n] keeps every completion without building a
    matrix. Whatever edges are still common to every window graph remain
    disclosed; with a properly scaled mechanism that set is typically
    empty.

    Raises:
        ValueError: if release_value is not finite, b is not positive and
            finite, or coverage lies outside (0, 1).
    """
    if not (0.0 < coverage < 1.0):
        raise ValueError(f"coverage must lie in (0, 1), got {coverage}")
    _check_scale(b)
    w = b * math.log(1.0 / (1.0 - coverage))
    unknown, _, masks, slot_counts, total = _consistent_masks(
        n, known_present, known_absent, release_value, w
    )
    inferred_present, inferred_absent = _disclosed(_slot_frequencies(unknown, slot_counts, len(masks)))
    return NoisyAttackResult(
        n=n,
        release_value=release_value,
        window_halfwidth=w,
        plausible_count=len(masks),
        knowledge_consistent_count=total,
        inferred_present=inferred_present,
        inferred_absent=inferred_absent,
    )
