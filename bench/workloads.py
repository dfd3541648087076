"""The four benchmark workloads: release, certify, audit and structure.

Each workload is one closed-loop client: a fixed round of ops, built from
the seed, is replayed in order until the measured window is over, and the
next op starts when the previous one returns. An op is a plain dict that
survives a JSON round trip, so the set-up probe (a fresh interpreter) can
replay the warm-up ops without regenerating anything.

A workload class provides:
  * ``__init__(seed, workdir)``: builds the round (standard library only);
  * ``prepare(pc)``: untimed, after privconn is imported: values the
    checks need and checks made outside the timed loop. Returns a list
    of problems found (empty when every check held);
  * ``execute(pc, op, rnd)``: the timed call into privconn, in round
    ``rnd`` (RNG seeds passed to the program advance with the round, so
    replayed rounds do the same work on fresh draws);
  * ``check(op, out, tally)``: raises CheckFailed when the output is
    wrong. It calls no privconn function, so a traced run records only
    the program's own work.

``pc`` is a namespace holding the privconn modules. Ops call privconn
through module attributes (``pc.graph_core.spectrum``), which is what lets
the tracer rebind them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import graphs

DELTA = 0.05
# The CLI's default budget; the audit's attack windows use it too.
DEFAULT_EPS = 0.4


class CheckFailed(Exception):
    """An op returned, but its output is wrong or malformed."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """privconn's ``main`` as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report(out: tuple[int, str, str], expect_codes=(0,)) -> dict:
    code, text, err = out
    _require(code in expect_codes, f"exit code {code}: {err.strip()[-200:]}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"malformed report: {exc}") from None
    _require(isinstance(report, dict), "report is not a JSON object")
    for key in ("inputs", "public_statistics", "results", "generated_at"):
        _require(key in report, f"report lacks {key!r}")
    return report


def first_of_each_kind(ops: list[dict]) -> list[dict]:
    seen = {}
    for op in ops:
        seen.setdefault(op["kind"], op)
    return list(seen.values())


class Release:
    """The curator: ``privatize`` over edge-list files with closed-form lambda2."""

    name = "release"
    # Sizes are fixed so an op costs the same under every seed. Sparse members
    # load the dense eigensolve (cycle 2048 is ~99% eigensolve); the complete
    # graphs carry ~1e5 edges, where parsing and the Laplacian's Python loop
    # dominate. The 15 members keep p75 at 40+ samples even in a 3-round run,
    # and put both percentiles inside groups of similar members: p50 among
    # the n ~ 1024 graphs (~0.2 s), p75 among the n ~ 1536 ones (~0.65 s).
    # The cheap star comes first: it is the warm-up op.
    MIX = (
        ("star", 512),
        ("cycle", 2048),
        ("grid", 32),
        ("complete", 400),
        ("path", 1536),
        ("hypercube", 9),
        ("cycle", 768),
        ("hypercube", 10),
        ("complete", 600),
        ("grid", 39),
        ("grid", 24),
        ("path", 1024),
        ("star", 1536),
        ("path", 768),
        ("cycle", 512),
    )
    EPS = (0.2, 0.4, 0.8, 1.6)

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"release:{seed}")
        self.ops = []
        for i, (family, size) in enumerate(self.MIX):
            n, edges, lambda2 = graphs.FAMILIES[family](size)
            path = workdir / f"release-{i}-{family}-{n}.txt"
            path.write_text(graphs.edge_list_text(n, graphs.relabel(n, edges, rng)))
            self.ops.append(
                {
                    "kind": "privatize",
                    "family": family,
                    "n": n,
                    "lambda2": lambda2,
                    "path": str(path),
                    "eps": rng.choice(self.EPS),
                    "seed": rng.randrange(2**31),
                }
            )
        self.warmups = first_of_each_kind(self.ops)

    def prepare(self, pc) -> list[str]:
        problems = []
        pm = pc.privacy_mechanism
        for op in self.ops:
            with open(op["path"], encoding="utf-8") as fh:
                graph = pc.graph_core.from_edge_list(fh.read())
            got = pc.graph_core.spectrum(graph).lambda2
            if not abs(got - op["lambda2"]) <= 1e-9:
                problems.append(
                    f"{op['family']} n={op['n']}: spectrum lambda2 {got!r}, closed form {op['lambda2']!r}"
                )
            op["b"] = pm.solve_scale_b(pm.PrivacyParams(epsilon=op["eps"], delta=DELTA), float(op["n"]))
        return problems

    @staticmethod
    def execute(pc, op, rnd):
        argv = ["privatize", "--input", op["path"], "--seed", str(op["seed"] + rnd), "--eps", repr(op["eps"])]
        return run_cli(pc.cli, argv)

    @staticmethod
    def check(op, out, tally) -> None:
        report = _report(out)
        n = op["n"]
        value = report["results"].get("lambda2_tilde")
        _require(_finite(value) and 0.0 <= value <= n, f"lambda2_tilde {value!r} outside [0, {n}]")
        public = report["public_statistics"]
        _require(public.get("n") == n, f"public n {public.get('n')!r} != {n}")
        _require(public.get("b") == op["b"], f"public b {public.get('b')!r} != solve_scale_b {op['b']!r}")


class Certify:
    """The analyst: consensus and distance guarantees for one released value."""

    name = "certify"
    SLOTS = 16

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"certify:{seed}")
        self.ops = []
        for i in range(self.SLOTS):
            # n log-spaced over 10..1e4, one draw per stratum
            n = round(10.0 ** (1.0 + 3.0 * (i + rng.random()) / self.SLOTS))
            self.ops.append(
                {
                    "kind": "certify",
                    "n": n,
                    "lambda2": n * rng.uniform(0.005, 1.0),
                    "eps": rng.uniform(0.1, 2.0),
                }
            )
        # one op runs each of the three commands once
        self.warmups = first_of_each_kind(self.ops)

    def prepare(self, pc) -> list[str]:
        return []

    @staticmethod
    def execute(pc, op, rnd):
        lam, n = repr(op["lambda2"]), str(op["n"])
        return (
            run_cli(pc.cli, ["consensus", "--lambda2", lam, "--n", n, "--eps", repr(op["eps"])]),
            run_cli(pc.cli, ["bounds", "--lambda2", lam, "--n", n]),
            run_cli(pc.cli, ["bounds", "--lambda2", lam, "--n", n, "--sweep-eps", "0.1:2:20"]),
        )

    @staticmethod
    def check(op, out, tally) -> None:
        consensus, single, sweep = (_report(o) for o in out)
        res = consensus["results"]
        for key in ("settle_time", "worst_case_settle_time"):
            _require(_finite(res.get(key)) and res[key] > 0.0, f"{key} {res.get(key)!r} not finite and positive")
        curve = res.get("curve")
        _require(isinstance(curve, list) and len(curve) == 100, "consensus curve is not 100 points")
        for row in curve:
            _require(_finite(row["bound"]) and row["bound"] >= 0.0, f"curve bound {row['bound']!r}")
        bounds = single["results"]["bounds"]
        _require(bounds["d_lower"] <= bounds["d_upper"], f"diameter bounds cross: {bounds}")
        _require(bounds["rho_lower"] <= bounds["rho_upper"], f"mean-distance bounds cross: {bounds}")
        floor = single["results"]["min_degree_at_least"]
        _require(isinstance(floor, int) and floor >= 0, f"min_degree_at_least {floor!r}")
        rows = sweep["results"]["sweep"]
        _require(len(rows) == 20, f"sweep has {len(rows)} rows, not 20")
        for row in rows:
            _require(_finite(row["b"]) and row["b"] > 0.0, f"sweep b {row['b']!r}")
            for mode in ("exact", "expected"):
                _require(row[f"{mode}_d_lower"] <= row[f"{mode}_d_upper"], f"{mode} diameter bounds cross: {row}")
                _require(row[f"{mode}_rho_lower"] <= row[f"{mode}_rho_upper"], f"{mode} mean-distance bounds cross: {row}")


_AUDIT_SECTIONS = ("sensitivity", "dp_distinguisher", "concentration", "expectations")


class Audit:
    """The auditor: the CLI's statistical audits and the library's attacks.

    A statistical audit's verdict is not an op failure: the audits allow
    three standard errors, so a correct program still fails one now and
    then, and the half-scale negative control at n = 6 is often missed.
    Those verdicts are tallied as unexpected_verdicts over audits_run.
    An op fails only on a crash, an exit code other than 0 or 5, or a
    malformed report.
    """

    name = "audit"
    N = 6
    # validate at the shipped scale (n = 4, 5, 6), the negative control at
    # n = 4 (caught) and n = 6 (often missed: kept so that shows), and the
    # attack pair hiding 10..15 of the 15 edge slots of a 6-node graph
    ROUND = (
        ("validate", 4),
        ("attack", 10),
        ("validate", 5),
        ("attack", 11),
        ("negative_control", 4),
        ("attack", 12),
        ("validate", 6),
        ("attack", 13),
        ("negative_control", 6),
        ("attack", 14),
        ("attack", 15),
    )

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"audit:{seed}")
        slots = list(itertools.combinations(range(self.N), 2))
        self.ops = []
        for kind, size in self.ROUND:
            if kind == "attack":
                edges = [s for s in slots if rng.random() < 0.5]
                hidden = set(rng.sample(slots, size))
                known = [s for s in slots if s not in hidden]
                self.ops.append(
                    {
                        "kind": kind,
                        "unknown": size,
                        "edges": edges,
                        "known_present": [s for s in known if s in edges],
                        "known_absent": [s for s in known if s not in edges],
                        "seed": rng.randrange(2**31),
                    }
                )
            else:
                self.ops.append(
                    {
                        "kind": kind,
                        "n": size,
                        "scale_factor": 0.5 if kind == "negative_control" else 1.0,
                        "seed": rng.randrange(2**31),
                    }
                )
        self.warmups = first_of_each_kind(self.ops)

    def prepare(self, pc) -> list[str]:
        import numpy as np

        pm = pc.privacy_mechanism
        b = pm.solve_scale_b(pm.PrivacyParams(epsilon=DEFAULT_EPS, delta=DELTA), float(self.N))
        for op in self.ops:
            if op["kind"] != "attack":
                continue
            # the exact value comes from numpy, not privconn; the release
            # is one draw of the shipped mechanism around it
            lap = np.zeros((self.N, self.N))
            for u, v in op["edges"]:
                lap[u, v] = lap[v, u] = -1.0
            lap[np.diag_indices(self.N)] = -lap.sum(axis=1)
            lambda2 = float(min(max(np.linalg.eigvalsh(lap)[1], 0.0), float(self.N)))
            dist = pm.BoundedLaplaceDist(center=lambda2, scale_b=b, domain_upper_n=float(self.N))
            op.update(lambda2=lambda2, b=b, release=float(dist.sample(np.random.default_rng(op["seed"]))))
        return []

    @staticmethod
    def execute(pc, op, rnd):
        if op["kind"] == "attack":
            n, kp, ka = Audit.N, op["known_present"], op["known_absent"]
            exact = pc.validation.exact_value_attack(n, op["lambda2"], kp, ka)
            noisy = pc.validation.attack_under_noise(
                n, op["release"], op["b"], known_present=kp, known_absent=ka
            )
            return exact, noisy
        argv = ["validate", "--n", str(op["n"]), "--seed", str(op["seed"] + rnd), "--scale-factor", repr(op["scale_factor"])]
        return run_cli(pc.cli, argv)

    @staticmethod
    def check(op, out, tally) -> None:
        if op["kind"] == "attack":
            Audit._check_attack(op, *out)
            return
        report = _report(out, expect_codes=(0, 5))
        passed = report["results"].get("passed")
        _require(isinstance(passed, bool), f"results.passed is {passed!r}")
        _require((out[0] == 5) == (not passed), f"exit code {out[0]} disagrees with passed={passed}")
        audit = report.get("audit")
        _require(isinstance(audit, dict) and set(audit) == set(_AUDIT_SECTIONS), "audit sections missing")
        for name in _AUDIT_SECTIONS:
            section = audit[name]
            if section.get("skipped"):
                _require(name == "sensitivity" and op["n"] > 5, f"{name} skipped at n={op['n']}")
                continue
            _require(isinstance(section.get("passed"), bool), f"{name}.passed is {section.get('passed')!r}")
            _require(_finite(section.get("worst_violation")), f"{name}.worst_violation not finite")
            expected = not (op["kind"] == "negative_control" and name == "dp_distinguisher")
            tally["audits_run"] += 1
            tally["unexpected_verdicts"] += section["passed"] != expected

    @staticmethod
    def _check_attack(op, exact, noisy) -> None:
        truth = frozenset(tuple(e) for e in op["edges"])
        total = 1 << op["unknown"]
        _require(truth in exact.candidates, "the true graph is not among the exact-value candidates")
        _require(exact.candidate_count == len(exact.candidates) >= 1, "candidate count disagrees with candidates")
        _require(set(exact.inferred_present) <= truth, "exact attack infers a present edge the graph lacks")
        _require(not set(exact.inferred_absent) & truth, "exact attack infers an absent edge the graph has")
        _require(noisy.knowledge_consistent_count == total, f"noisy attack enumerated {noisy.knowledge_consistent_count}, not {total}")
        _require(0 <= noisy.plausible_count <= total, f"plausible count {noisy.plausible_count} outside [0, {total}]")
        if abs(op["release"] - op["lambda2"]) <= noisy.window_halfwidth:
            _require(noisy.plausible_count >= 1, "the true graph is outside its own noise window")
            _require(set(noisy.inferred_present) <= truth, "noisy attack infers a present edge the graph lacks")
            _require(not set(noisy.inferred_absent) & truth, "noisy attack infers an absent edge the graph has")


class Structure:
    """Exact structure next to the bounds from the exact spectrum.

    The only workload that reaches the all-pairs BFS (diameter and mean
    distance), which the CLI never calls.
    """

    name = "structure"
    # connected G(n, p) with mean degree MEAN_DEGREE, and k x k grids
    MIX = (
        ("gnp", 250),
        ("grid", 16),
        ("gnp", 280),
        ("grid", 17),
        ("gnp", 310),
        ("grid", 18),
        ("gnp", 340),
        ("grid", 19),
        ("gnp", 370),
        ("grid", 20),
        ("gnp", 400),
    )
    MEAN_DEGREE = 8.0

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"structure:{seed}")
        self.ops = []
        for family, size in self.MIX:
            op = {"kind": "structure", "family": family}
            if family == "gnp":
                n, edges = graphs.gnp_connected(size, self.MEAN_DEGREE / (size - 1), rng)
            else:
                n, edges, lambda2 = graphs.grid(size)
                op.update(lambda2=lambda2, diameter=2 * (size - 1))
            op.update(n=n, text=graphs.edge_list_text(n, graphs.relabel(n, edges, rng)))
            self.ops.append(op)
        self.warmups = first_of_each_kind(self.ops)

    def prepare(self, pc) -> list[str]:
        return []

    @staticmethod
    def execute(pc, op, rnd):
        gc, pb = pc.graph_core, pc.property_bounds
        graph = gc.from_edge_list(op["text"])
        spec = gc.spectrum(graph)
        return {
            "n": graph.n,
            "lambda2": spec.lambda2,
            "bounds": pb.exact_bounds(spec.lambda2, spec.lambda_n, graph.n),
            "degree_floor": pb.min_degree_inference(spec.lambda2, graph.n),
            "diameter": gc.diameter_exact(graph),
            "mean_distance": gc.mean_distance_exact(graph),
            "min_degree": gc.min_degree(graph),
        }

    @staticmethod
    def check(op, out, tally) -> None:
        b, d, rho = out["bounds"], out["diameter"], out["mean_distance"]
        _require(out["n"] == op["n"], f"parsed n={out['n']}, wrote n={op['n']}")
        _require(b.d_lower <= d <= b.d_upper, f"diameter {d} outside [{b.d_lower}, {b.d_upper}]")
        _require(b.rho_lower <= rho <= b.rho_upper, f"mean distance {rho} outside [{b.rho_lower}, {b.rho_upper}]")
        _require(out["min_degree"] >= out["degree_floor"], f"min degree {out['min_degree']} below floor {out['degree_floor']}")
        if "lambda2" in op:
            _require(abs(out["lambda2"] - op["lambda2"]) <= 1e-9, f"grid lambda2 {out['lambda2']!r} != {op['lambda2']!r}")
            _require(d == op["diameter"], f"grid diameter {d} != {op['diameter']}")


WORKLOADS = {cls.name: cls for cls in (Release, Certify, Audit, Structure)}
