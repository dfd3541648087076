import functools
import json
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from privconn import validation
from privconn import (
    AttackResult,
    BoundedLaplaceDist,
    NoisyAttackResult,
    PrivacyParams,
    attack_under_noise,
    audit_concentration,
    audit_dp,
    audit_expectations,
    audit_sensitivity,
    exact_value_attack,
    solve_scale_b,
)

import oracles as oc

P = PrivacyParams(epsilon=0.4, delta=0.05, A=1)


class TestSensitivityAudit:
    def test_exhaustive_n4_is_tight_and_passes(self):
        r = audit_sensitivity(4, A=1)
        assert r.passed
        assert r.trials == 384  # every graph on 6 slots times every slot flip
        assert r.details["observed_max"] == pytest.approx(2.0, abs=1e-9)
        assert r.worst_violation <= 1e-9

    def test_exhaustive_n5_passes(self):
        r = audit_sensitivity(5, A=1)
        assert r.passed
        assert r.trials == 10240
        assert r.details["observed_max"] == pytest.approx(2.0, abs=1e-9)

    def test_wide_radius_skips_the_pair_scan(self):
        """2A >= n caps |change| by the whole spectral range, so graphs
        are compared in aggregate rather than pairwise by edge flips."""
        r = audit_sensitivity(3, A=3)
        assert r.passed
        assert r.trials == 28
        assert r.worst_violation == pytest.approx(-3.0)

    def test_single_slot_graph(self):
        r = audit_sensitivity(2, A=1)
        assert r.passed
        assert r.trials == 1
        assert r.worst_violation == 0.0

    def test_size_limits(self):
        with pytest.raises(ValueError):
            audit_sensitivity(6)
        with pytest.raises(ValueError):
            audit_sensitivity(1)

    def test_dict_layout(self):
        d = audit_sensitivity(3).as_dict()
        assert list(d) == [
            "audit_name", "trials", "worst_violation", "passed", "details",
        ]
        assert d["audit_name"] == "sensitivity"


class TestDpAudit:
    def test_deterministic_under_a_seed(self):
        kwargs = dict(pairs=2, samples_per_graph=100_000, seed=7)
        r1 = audit_dp(4, P, **kwargs)
        r2 = audit_dp(4, P, **kwargs)
        assert r1.worst_violation == r2.worst_violation
        assert r1.details["pairs"] == r2.details["pairs"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_honest_mechanism_passes(self, seed):
        r = audit_dp(5, P, pairs=0, samples_per_graph=100_000, seed=seed)
        assert r.passed
        assert r.worst_violation < 0.0
        assert r.details["b"] == pytest.approx(solve_scale_b(P, 5.0), abs=1e-12)

    def test_identity_pair_is_first_and_silent(self):
        r = audit_dp(5, P, pairs=0, samples_per_graph=100_000, seed=0)
        first = r.details["pairs"][0]
        assert first["lambda2_pair"][0] == first["lambda2_pair"][1]
        assert first["violation_forward"] < 0.0
        assert first["violation_reverse"] < 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_half_scale_control_is_caught(self, seed):
        r = audit_dp(
            5, P, pairs=0, samples_per_graph=300_000, seed=seed, scale_factor=0.5
        )
        assert not r.passed
        assert r.worst_violation > 0.0
        assert r.details["scale_factor"] == 0.5

    def test_requested_extra_pairs_are_run(self):
        r = audit_dp(4, P, pairs=3, samples_per_graph=100_000, seed=5)
        assert len(r.details["pairs"]) == 3 + 3  # deterministic trio plus extras

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pairs=0, samples_per_graph=50_000),
            dict(pairs=-1),
            dict(bins=1),
            dict(bins=validation._MAX_BINS + 1),
            dict(scale_factor=0.0),
            dict(scale_factor=math.inf),
            dict(scale_factor=math.nan),
        ],
    )
    def test_parameter_validation(self, kwargs):
        base = dict(pairs=0, samples_per_graph=100_000)
        base.update(kwargs)
        with pytest.raises(ValueError):
            audit_dp(5, P, **base)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            audit_dp(7, P, pairs=0, samples_per_graph=100_000)


class TestDpAuditPool:
    """audit_dp runs each graph's stream on a worker thread."""

    KWARGS = dict(pairs=3, samples_per_graph=100_003, seed=11)

    def test_report_does_not_depend_on_the_cpu_count(self, monkeypatch):
        reports = []
        for cpus in (1, 3):
            monkeypatch.setattr(validation, "_usable_cpus", lambda: cpus)
            reports.append(audit_dp(5, P, **self.KWARGS).as_dict())
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    def test_usable_cpus_falls_back_to_the_machine_count(self, monkeypatch):
        assert validation._usable_cpus() >= 1
        monkeypatch.delattr(validation.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(validation.os, "cpu_count", lambda: None)
        assert validation._usable_cpus() == 1

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(validation, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        audit_dp(4, P, **self.KWARGS)
        assert threading.active_count() == before

    def test_a_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(validation, "_usable_cpus", lambda: 3)
        calls = 0
        sorted_sample = BoundedLaplaceDist._sorted_sample
        error = RuntimeError("fifth draw block")
        lock = threading.Lock()

        def failing(self, rng, size):
            nonlocal calls
            with lock:
                calls += 1
                fifth = calls == 5
            if fifth:
                raise error
            return sorted_sample(self, rng, size)

        monkeypatch.setattr(BoundedLaplaceDist, "_sorted_sample", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            audit_dp(4, P, **self.KWARGS)
        assert caught.value is error
        assert threading.active_count() == before


class TestConcentrationAudit:
    GRID = np.linspace(1.0, 100.0, 25)

    def test_bound_holds_empirically(self):
        r = audit_concentration(1.0, 7.39, 10.0, self.GRID, 0.2, trials=10_000)
        assert r.passed
        assert r.worst_violation <= 0.0
        rows = r.details["grid"]
        assert len(rows) == 25
        assert set(rows[0]) == {"t", "bound", "empirical", "std_error", "success_floor"}

    def test_success_floor_is_reported_unclamped(self):
        r = audit_concentration(1.0, 7.39, 10.0, self.GRID, 0.2, trials=10_000)
        row = r.details["grid"][0]
        # the bound is vacuous at t = 1 for this tolerance; the report
        # must say so via a negative floor, not hide it
        assert row["bound"] > 1.0
        assert row["success_floor"] == pytest.approx(1.0 - row["bound"], rel=1e-12)
        assert row["success_floor"] < 0.0

    def test_deterministic_under_a_seed(self):
        a = audit_concentration(1.0, 7.39, 10.0, self.GRID, 0.2, trials=10_000, seed=3)
        b = audit_concentration(1.0, 7.39, 10.0, self.GRID, 0.2, trials=10_000, seed=3)
        assert a.worst_violation == b.worst_violation

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials=9_999),
            dict(a=0.0),
            dict(t_grid=np.array([])),
            dict(t_grid=np.array([1.0, -2.0])),
        ],
    )
    def test_parameter_validation(self, kwargs):
        base = dict(lambda2=1.0, b=7.39, n=10.0, t_grid=self.GRID, a=0.2, trials=10_000)
        base.update(kwargs)
        with pytest.raises(ValueError):
            audit_concentration(**base)


class TestExpectationsAudit:
    def test_closed_forms_match_monte_carlo(self):
        r = audit_expectations(1.0, 7.39, 10.0, trials=1_000_000, seed=0)
        assert r.passed
        names = [row["quantity"] for row in r.details["quantities"]]
        assert names == ["mean_draw", "mean_inv_sqrt", "mean_rate_error_at_t1"]
        for row in r.details["quantities"]:
            assert abs(row["monte_carlo"] - row["closed_form"]) <= 3.0 * row["std_error"]

    def test_needs_a_million_draws(self):
        with pytest.raises(ValueError):
            audit_expectations(1.0, 7.39, 10.0, trials=999_999)


# partial-knowledge setting shared by the enumeration tests: the
# adversary knows two edges at node 0 are present and one is absent
KP = ((0, 1), (0, 2))
KA = ((0, 3),)


class TestEnumeration:
    def test_low_value_pins_two_candidates(self):
        found = exact_value_attack(4, 1.0, known_present=KP, known_absent=KA).candidates
        assert len(found) == 2
        assert all(isinstance(edges, frozenset) for edges in found)
        assert all((1, 2) in edges for edges in found)
        sets = set(found)
        assert sets == {
            frozenset({(0, 1), (0, 2), (1, 2), (1, 3)}),
            frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}),
        }

    def test_high_value_pins_the_last_nodes_neighborhood(self):
        found = exact_value_attack(4, 2.0, known_present=KP, known_absent=KA).candidates
        assert len(found) == 2
        for edges in found:
            # 3 is the last node, so it is the larger end of its edges
            neighbors = frozenset(u for u, v in edges if v == 3)
            assert neighbors == frozenset({1, 2})

    def test_input_order_does_not_matter(self):
        a = exact_value_attack(4, 1.0, known_present=KP, known_absent=KA).candidates
        b = exact_value_attack(
            4, 1.0, known_present=((0, 2), (1, 0)), known_absent=((3, 0),)
        ).candidates
        assert set(a) == set(b)

    def test_infinite_tolerance_returns_every_completion(self):
        found = exact_value_attack(
            4, 0.0, known_present=KP, known_absent=KA, tol=math.inf
        ).candidates
        assert len(found) == 2 ** 3  # three undetermined slots

    def test_unattainable_value_returns_nothing(self):
        found = exact_value_attack(4, 3.7, known_present=KP, known_absent=KA).candidates
        assert found == ()

    def test_contradictory_knowledge_raises(self):
        with pytest.raises(ValueError):
            exact_value_attack(4, 0.0, known_present=((0, 1),), known_absent=((1, 0),))

    @pytest.mark.parametrize("edge", [(2, 2), (0, 4), (-1, 2)])
    @pytest.mark.parametrize("side", ["known_present", "known_absent"])
    def test_bad_knowledge_edge_raises(self, side, edge):
        with pytest.raises(ValueError):
            exact_value_attack(4, 1.0, **{side: [edge]})
        with pytest.raises(ValueError):
            attack_under_noise(4, 1.0, 6.8, **{side: [edge]})

    def test_size_limit(self):
        with pytest.raises(ValueError):
            exact_value_attack(7, 0.0)


class TestExactValueAttack:
    def test_leaks_certain_edges_from_an_exact_value(self):
        r = exact_value_attack(4, 2.0, known_present=KP, known_absent=KA)
        assert r.candidate_count == 2
        assert (1, 3) in r.inferred_present
        assert (2, 3) in r.inferred_present
        assert r.edge_frequencies[(1, 3)] == 1.0
        assert r.edge_frequencies[(2, 3)] == 1.0

    def test_reports_split_evidence_as_frequencies(self):
        r = exact_value_attack(4, 1.0, known_present=KP, known_absent=KA)
        assert r.candidate_count == 2
        assert r.edge_frequencies[(1, 2)] == 1.0
        assert r.edge_frequencies[(1, 3)] == 0.5
        assert r.edge_frequencies[(2, 3)] == 0.5
        assert (1, 2) in r.inferred_present
        assert (1, 3) not in r.inferred_present
        assert (1, 3) not in r.inferred_absent

    def test_frequencies_match_a_count_over_the_candidates(self):
        # loop reference for the vectorized slot counting, exact/noisy alike
        rng = np.random.default_rng(5)
        slots = oc.edge_slots(6)
        for _ in range(12):
            kp = [s for s in slots[:9] if rng.random() < 0.5]
            ka = [s for s in slots[:9] if s not in kp]
            value = float(rng.uniform(0.0, 4.0))
            noisy = attack_under_noise(6, value, 0.3, 0.5, kp, ka)
            w = noisy.window_halfwidth
            r = exact_value_attack(6, value, kp, ka, tol=w)
            unknown = slots[9:]
            for slot in unknown:
                hits = sum(slot in c for c in r.candidates)
                want = hits / len(r.candidates) if r.candidates else math.nan
                got = r.edge_frequencies[slot]
                assert got == want or (math.isnan(got) and math.isnan(want))
            window = list(r.candidates)
            assert noisy.plausible_count == len(window)
            assert noisy.inferred_present == tuple(
                s for s in unknown if window and all(s in e for e in window)
            )
            assert noisy.inferred_absent == tuple(
                s for s in unknown if window and not any(s in e for e in window)
            )

    def test_dict_is_json_shaped(self):
        import json

        d = exact_value_attack(4, 1.0, known_present=KP, known_absent=KA).as_dict()
        json.dumps(d)
        assert d["candidate_count"] == 2


class TestNoisyAttack:
    def test_window_comes_from_the_coverage_level(self):
        b = 6.86
        r = attack_under_noise(4, 1.3, b, coverage=0.9, known_present=KP, known_absent=KA)
        assert r.window_halfwidth == pytest.approx(b * math.log(10.0), rel=1e-12)

    def test_noise_washes_out_the_inference(self):
        """With the scale solved for this n, a 90% window spans the whole
        spectral range, so every completion stays plausible."""
        b = solve_scale_b(P, 4.0)
        r = attack_under_noise(4, 1.3, b, coverage=0.9, known_present=KP, known_absent=KA)
        assert r.plausible_count == r.knowledge_consistent_count == 8
        assert r.inferred_present == ()
        assert r.inferred_absent == ()

    def test_narrow_noise_leaks_again(self):
        r = attack_under_noise(
            4, 2.0, 0.001, coverage=0.9, known_present=KP, known_absent=KA
        )
        assert r.plausible_count == 2
        assert (1, 3) in r.inferred_present

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            attack_under_noise(4, 1.0, 1.0, coverage=1.0)
        with pytest.raises(ValueError):
            attack_under_noise(4, 1.0, 1.0, coverage=0.0)


@functools.lru_cache(maxsize=None)
def _laplacian_charpoly(n: int, edges: frozenset) -> tuple:
    """Exact characteristic polynomial of a graph's Laplacian, once per graph."""
    return tuple(oc.charpoly_coefficients(oc.laplacian_int(n, edges)))


def _window_by_oracle(n: int, v: float, tol: float) -> set:
    """Edge sets on n nodes whose exact lambda2 lies in (v - tol, v + tol].

    lambda2 > s exactly when at least n - 1 eigenvalues exceed s.
    """
    keep = set()
    for edges in oc.all_edge_sets(n):
        charpoly = _laplacian_charpoly(n, edges)
        above = [oc.roots_above(charpoly, Fraction(s)) for s in (v - tol, v + tol)]
        if above[0] >= n - 1 and above[1] < n - 1:
            keep.add(edges)
    return keep


class TestInertiaSelection:
    """The window test against exact inertia counts on every small graph."""

    # window ends are dyadic non-integers, so never an eigenvalue of an
    # n <= 5 Laplacian (its rational eigenvalues are integers)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("v, tol", [(0.5, 0.25), (1.25, 0.125), (2.75, 0.5), (3.0, 1.5)])
    def test_every_graph_at_generic_values(self, n, v, tol):
        found = set(exact_value_attack(n, v, tol=tol).candidates)
        assert found == _window_by_oracle(n, v, tol)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_keeps_exactly_the_disconnected_graphs(self, n):
        found = set(exact_value_attack(n, 0.0, tol=1e-6).candidates)
        want = {e for e in oc.all_edge_sets(n) if not oc.union_find_connected(n, e)}
        assert found == want == _window_by_oracle(n, 0.0, 1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_n_keeps_only_the_complete_graph(self, n):
        found = list(exact_value_attack(n, float(n), tol=1e-6).candidates)
        assert found == [frozenset(oc.edge_slots(n))]

    def test_noisy_window_over_the_whole_range_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Laplacian was built")

        monkeypatch.setattr(validation, "laplacians", refuse)
        b = solve_scale_b(P, 6.0)
        r = attack_under_noise(6, 2.0, b, coverage=0.9)
        assert r.window_halfwidth > 6.0
        assert r.plausible_count == r.knowledge_consistent_count == 2 ** 15
        # the patch is live: a narrow window has to build
        with pytest.raises(AssertionError, match="was built"):
            exact_value_attack(6, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_value_attack(4, math.nan),
        lambda: exact_value_attack(4, math.inf),
        # the whole knowledge-consistent family still needs a finite value
        lambda: exact_value_attack(4, math.nan, tol=math.inf),
        lambda: exact_value_attack(4, -math.inf, tol=math.inf),
        lambda: attack_under_noise(4, math.nan, 6.8),
        lambda: attack_under_noise(4, math.inf, 6.8),
        lambda: attack_under_noise(4, 1.0, math.inf),
        lambda: attack_under_noise(4, 1.0, math.nan),
        lambda: attack_under_noise(4, 1.0, 0.0),
    ],
    ids=[
        "exact-value-nan",
        "exact-value-inf",
        "enumerate-value-nan",
        "enumerate-value-minus-inf",
        "noisy-release-nan",
        "noisy-release-inf",
        "noisy-scale-inf",
        "noisy-scale-nan",
        "noisy-scale-zero",
    ],
)
def test_attacks_reject_non_finite_values_and_bad_scales(call):
    with pytest.raises(ValueError, match="must be finite|positive and finite"):
        call()


class TestBlocksMatchOneShot:
    """The block loops against one-shot references: summed counts exactly,
    running moments to rounding, and the attacks' picks exactly."""

    # several blocks of draws, the last one short
    N = 100_003

    def test_dp_histograms_equal_one_shot(self, monkeypatch):
        assert self.N > validation._DRAW_BLOCK and self.N % validation._DRAW_BLOCK
        n, bins, seed = 4, 50, 7
        seen = []
        distinguish = validation._distinguish

        def spy(p_hat, q_hat, *args):
            seen.append((p_hat, q_hat))
            return distinguish(p_hat, q_hat, *args)

        monkeypatch.setattr(validation, "_distinguish", spy)
        audit_dp(n, P, pairs=2, samples_per_graph=self.N, bins=bins, seed=seed)
        b = solve_scale_b(P, float(n))
        root = np.random.SeedSequence(seed)
        pair_rng = np.random.default_rng(root.spawn(1)[0])
        edges = np.linspace(0.0, float(n), bins + 1)
        want = []
        for pair in validation._adjacent_pairs(n, P.A, 2, pair_rng):
            rngs = [np.random.default_rng(s) for s in root.spawn(2)]
            dists = [BoundedLaplaceDist(validation._lambda2_of_edges(n, e), b, float(n)) for e in pair]
            p, q = (oc.one_shot_counts(d, rng, self.N, edges) / self.N for d, rng in zip(dists, rngs))
            want += [(p, q), (q, p)]
        assert len(seen) == len(want) == 10
        for (p, q), (p_want, q_want) in zip(seen, want):
            assert np.array_equal(p, p_want) and np.array_equal(q, q_want)

    def test_concentration_frequencies_equal_one_shot(self):
        lam, b, n, a, seed = 1.0, 7.39, 10.0, 0.2, 5
        grid = [1.0, 7.5, 40.0]
        r = audit_concentration(lam, b, n, grid, a, trials=self.N, seed=seed)
        dist = BoundedLaplaceDist(lam, b, n)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want = []
        for t in grid:
            draws = dist.sample(rng, size=self.N)
            want.append(float((np.abs(np.exp(-draws * t) - math.exp(-lam * t)) >= a).mean()))
        assert [row["empirical"] for row in r.details["grid"]] == want

    def test_expectations_match_one_shot_moments(self):
        lam, b, n, seed, trials = 1.0, 7.39, 10.0, 4, 1_000_003
        r = audit_expectations(lam, b, n, trials=trials, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        draws = BoundedLaplaceDist(lam, b, n).sample(rng, size=trials)
        samples = [draws, 1.0 / np.sqrt(draws), np.abs(np.exp(-draws) - math.exp(-lam))]
        for row, x in zip(r.details["quantities"], samples):
            mc, se = oc.one_shot_mean_and_error(x)
            assert row["monte_carlo"] == pytest.approx(mc, rel=1e-12, abs=0.0)
            assert row["std_error"] == pytest.approx(se, rel=1e-12, abs=0.0)
            # a difference of the two: its error is relative to their sizes
            violation = abs(mc - row["closed_form"]) - 3.0 * se
            assert abs(row["violation"] - violation) <= 1e-12 * (abs(mc) + 3.0 * se)

    @staticmethod
    def _kept(unknown, picks):
        """Kept completion numbers, their unknown-slot bits, each unknown
        slot's share of them (nan if none is kept), and the slots in every
        kept completion and in none."""
        kept = np.flatnonzero(picks)
        bits = (kept[:, None] >> np.arange(len(unknown))) & 1
        freqs = bits.sum(0) / len(kept) if len(kept) else np.full(len(unknown), math.nan)
        freqs = dict(zip(unknown, freqs.tolist()))
        present = tuple(s for s, f in freqs.items() if f == 1.0)
        absent = tuple(s for s, f in freqs.items() if f == 0.0)
        return kept, bits, freqs, present, absent

    def test_attacks_equal_per_completion_picks(self):
        n = 6
        slots = oc.edge_slots(n)
        rng = np.random.default_rng(17)
        for case in range(200):
            k = case % 15 + 1
            truth = {s for s in slots if rng.random() < 0.5}
            hidden = {slots[j] for j in rng.choice(len(slots), size=k, replace=False)}
            unknown = [s for s in slots if s in hidden]
            kp = [s for s in slots if s not in hidden and s in truth]
            ka = [s for s in slots if s not in hidden and s not in truth]
            value = float(np.linalg.eigvalsh(np.array(oc.laplacian_int(n, truth), dtype=float))[1])
            tol = 1e-6
            kept, bits, freqs, present, absent = self._kept(
                unknown, oc.window_picks(n, unknown, kp, value - tol, value + tol)
            )
            candidates = [
                frozenset(kp) | {s for s, bit in zip(unknown, row) if bit} for row in bits.tolist()
            ]
            want = AttackResult(
                n=n, value=value, tol=tol, candidate_count=len(kept),
                inferred_present=present, inferred_absent=absent, edge_frequencies=freqs,
                candidates=tuple(candidates),
            )
            got = exact_value_attack(n, value, kp, ka, tol=tol)
            assert json.dumps(got.as_dict()) == json.dumps(want.as_dict()), case
            b = math.exp(rng.uniform(math.log(0.02), math.log(3.0)))
            release = rng.uniform(-0.5, n + 0.5)
            w = b * math.log(10.0)
            kept, _, _, present, absent = self._kept(
                unknown, oc.window_picks(n, unknown, kp, release - w, release + w)
            )
            want = NoisyAttackResult(
                n=n, release_value=release, window_halfwidth=w, plausible_count=len(kept),
                knowledge_consistent_count=1 << k, inferred_present=present, inferred_absent=absent,
            )
            got = attack_under_noise(n, release, b, coverage=0.9, known_present=kp, known_absent=ka)
            assert json.dumps(got.as_dict()) == json.dumps(want.as_dict()), case


class TestMemoryIsBounded:
    """Traced peaks do not grow with the draws or the completions: the audits
    and the attacks hold one block at a time."""

    BUDGET = 8 * 2**20

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_expectations_peak_does_not_grow_with_trials(self):
        def run(trials):
            return audit_expectations(1.0, 7.39, 10.0, trials=trials)

        run(1_000_000)  # first-call caches are not the audit's memory
        small = self._peak(lambda: run(1_000_000))
        large = self._peak(lambda: run(4_000_000))
        assert large <= small + 8 * validation._DRAW_BLOCK

    def test_dp_audit_peak_grows_only_by_the_extra_report_rows(self, monkeypatch):
        # one worker, so the peak does not depend on how the workers'
        # blocks overlap in time; the submission window is the same code
        monkeypatch.setattr(validation, "_usable_cpus", lambda: 1)

        def held_and_peak(pairs):
            # traced memory the report still holds, and the peak
            tracemalloc.start()
            try:
                report = audit_dp(4, P, pairs=pairs, samples_per_graph=100_000)
                return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        audit_dp(4, P, pairs=40, samples_per_graph=100_000)  # first-call caches
        held_small, peak_small = held_and_peak(10)
        held_large, peak_large = held_and_peak(40)
        # the 30 extra rows hold some 10 kB; a job list or future per
        # stream would add about 2 kB a pair
        assert 0 < held_large - held_small < 20_000
        assert peak_large - peak_small <= held_large - held_small

    def test_dp_audit_at_a_million_draws_per_graph(self):
        audit_dp(4, P, pairs=0, samples_per_graph=100_000)
        assert self._peak(lambda: audit_dp(4, P, pairs=0, samples_per_graph=1_000_000)) <= self.BUDGET

    @pytest.mark.parametrize(
        "attack",
        [lambda: exact_value_attack(6, 2.0), lambda: attack_under_noise(6, 2.0, 0.5)],
        ids=["exact", "noisy"],
    )
    def test_fifteen_slot_attacks(self, attack):
        attack()
        assert self._peak(attack) <= self.BUDGET
