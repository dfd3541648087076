"""Command-line front end.

Subcommands mirror the library: privatize a graph, solve the mechanism
scale, turn a released value into consensus-rate or distance bounds, run
the empirical audits, and demo the exact-release reconstruction attack.

Reports are JSON (sections: inputs, public_statistics, results, audit,
plus a generated_at timestamp; keys sorted, so output is reproducible up
to the timestamp); the tabular outputs (consensus curve, bounds sweep)
can be CSV instead. A report's inputs are the parsed arguments but
--output and --format, with --eps as epsilon; bounds lists its own. A
report that would hold a NaN or an infinity exits 2 and names the field. --output takes a path or - for stdout. Exit codes:
0 success, 2 bad input, 3 infeasible privacy parameters, 4 numerical
failure, 5 audit failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .consensus_analysis import expected_rate_error, settle_time, worst_case_settle_time
from .errors import InfeasibleParamsError, NumericalError
# spectrum is unused here; bench/tracer.py rebinds cli.spectrum
from .graph_core import algebraic_connectivity, from_edge_list, spectrum  # noqa: F401
from .privacy_mechanism import PrivacyParams, _release, privatize, solve_scale_b
from .property_bounds import exact_bounds, expected_bounds, min_degree_inference
from .validation import (
    _MAX_BINS,
    _MAX_ENUMERATION_N,
    _MAX_SENSITIVITY_N,
    _check_dp_audit,
    _check_tail_audits,
    attack_under_noise,
    audit_concentration,
    audit_dp,
    audit_expectations,
    audit_sensitivity,
    exact_value_attack,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_AUDIT_FAILED = 5


def _read_graph(path: str):
    if path == "-":
        return from_edge_list(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return from_edge_list(fh.read())


def _parse_grid(text: str, what: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must look like start:stop:points, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    points = int(parts[2])
    if points < 2 or not 0.0 < start < stop < math.inf:
        raise ValueError(f"bad {what} {text!r}: need finite 0 < start < stop and points >= 2")
    return np.linspace(start, stop, points)


def _parse_alpha(text: str):
    if text == "auto":
        return None
    alpha = float(text)
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 or 'auto', got {text!r}")
    return alpha


def _params(args) -> PrivacyParams:
    return PrivacyParams(epsilon=args.eps, delta=args.delta, A=args.A)


# the parsed arguments a report's inputs leave out: the dispatch and the
# options that say where and how a report is written, not what it holds
_NOT_INPUTS = ("command", "run", "output", "format")


def _inputs(args) -> dict:
    """The report's inputs: every parsed argument but _NOT_INPUTS, with
    --eps shown as epsilon."""
    inputs = {key: value for key, value in vars(args).items() if key not in _NOT_INPUTS}
    inputs["epsilon"] = inputs.pop("eps")
    return inputs


def _json_report(inputs: dict, public: dict, results: dict, audit: dict | None = None) -> str:
    payload = {
        "inputs": inputs,
        "public_statistics": public,
        "results": results,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    if audit is not None:
        payload["audit"] = audit
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        # the walk runs only to name the field
        _require_finite(payload, "")
        raise


def _require_finite(value, field: str) -> None:
    """Raise ValueError naming field, or its member, that holds a NaN or an
    infinity: JSON (RFC 8259) has no such number, nor has a numeric CSV cell."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _require_finite(item, f"{field}.{key}" if field else key)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field} is {value!r}; a report holds finite numbers only")


def _csv_table(header: list[str], rows: list[list]) -> str:
    for i, row in enumerate(rows, start=1):
        _require_finite(dict(zip(header, row)), f"row {i}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_privatize(args) -> tuple[int, str]:
    graph = _read_graph(args.input)
    release = privatize(graph, _params(args), np.random.default_rng(args.seed))
    return EXIT_OK, _json_report(
        inputs=_inputs(args),
        public={"n": release.n, "b": release.scale_b},
        results={"lambda2_tilde": release.lambda2_tilde},
    )


def _cmd_solve_b(args) -> tuple[int, str]:
    b = solve_scale_b(_params(args), float(args.n))
    return EXIT_OK, _json_report(inputs=_inputs(args), public={"b": b}, results={"b": b})


def _cmd_consensus(args) -> tuple[int, str]:
    n = float(args.n)
    b = solve_scale_b(_params(args), n)
    grid = _parse_grid(args.t_grid, "t grid")
    # checks --a and --eta for both formats
    worst = worst_case_settle_time(b, n, args.a, args.eta)
    errors = expected_rate_error(grid, args.lambda2, b, n)
    bounds = errors / args.a
    rows = [[float(t), float(v), float(e)] for t, v, e in zip(grid, bounds, errors)]
    if args.format == "csv":
        return EXIT_OK, _csv_table(["t", "bound", "expected_error"], rows)
    return EXIT_OK, _json_report(
        inputs=_inputs(args),
        public={"b": b},
        results={
            "settle_time": settle_time(args.lambda2, b, n, args.a, args.eta),
            "worst_case_settle_time": worst,
            "curve": [
                {"t": t, "bound": v, "expected_error": e, "vacuous": v > 1.0}
                for t, v, e in rows
            ],
        },
    )


_BOUND_FIELDS = ("d_lower", "d_upper", "rho_lower", "rho_upper")


def _cmd_bounds(args) -> tuple[int, str]:
    lambda_n = args.lambda_n if args.lambda_n is not None else float(args.n)
    alpha = _parse_alpha(args.alpha)
    if args.sweep_eps is not None:
        if alpha is not None:
            raise ValueError("--alpha applies to the single report only; the sweep optimizes each base")
        eps_values = _parse_grid(args.sweep_eps, "epsilon sweep")
        exact = exact_bounds(args.lambda2, lambda_n, args.n)
        header = ["epsilon", "b"]
        header += [f"{mode}_{field}" for mode in ("exact", "expected") for field in _BOUND_FIELDS]
        rows = []
        for eps in eps_values:
            params = PrivacyParams(epsilon=float(eps), delta=args.delta, A=args.A)
            b = solve_scale_b(params, float(args.n))
            expd = expected_bounds(args.lambda2, b, lambda_n, args.n)
            values = [getattr(rep, field) for rep in (exact, expd) for field in _BOUND_FIELDS]
            rows.append([float(eps), b, *values])
        if args.format == "csv":
            return EXIT_OK, _csv_table(header, rows)
        return EXIT_OK, _json_report(
            inputs={
                "lambda2": args.lambda2,
                "lambda_n": lambda_n,
                "n": args.n,
                "delta": args.delta,
                "A": args.A,
                "sweep_eps": args.sweep_eps,
            },
            public={},
            results={"sweep": [dict(zip(header, row)) for row in rows]},
        )
    if args.format == "csv":
        raise ValueError("csv output is only available for tabular results (use --sweep-eps)")
    bounds = exact_bounds(args.lambda2, lambda_n, args.n, alpha)
    return EXIT_OK, _json_report(
        inputs={
            "lambda2": args.lambda2,
            "lambda_n": lambda_n,
            "n": args.n,
            "alpha": args.alpha,
        },
        public={},
        results={
            "bounds": bounds.as_dict(),
            "min_degree_at_least": min_degree_inference(args.lambda2, args.n),
        },
    )


def _cmd_validate(args) -> tuple[int, str]:
    params = _params(args)
    t_grid = _parse_grid(args.t_grid, "t grid")
    # a bad audit argument exits before the exhaustive scan and the draws
    _check_dp_audit(args.n, args.samples_per_graph, args.pairs, args.bins, args.scale_factor)
    _check_tail_audits(args.lambda2, float(args.n), t_grid, args.a, args.conc_trials, args.exp_trials)
    audit = {}
    if args.n <= _MAX_SENSITIVITY_N:
        audit["sensitivity"] = audit_sensitivity(args.n, params.A).as_dict()
    else:
        audit["sensitivity"] = {
            "skipped": True,
            "reason": f"exhaustive scan needs n <= {_MAX_SENSITIVITY_N}",
        }
    dp = audit_dp(
        args.n,
        params,
        pairs=args.pairs,
        samples_per_graph=args.samples_per_graph,
        bins=args.bins,
        seed=args.seed,
        scale_factor=args.scale_factor,
    )
    audit["dp_distinguisher"] = dp.as_dict()
    b = dp.details["b"]
    audit["concentration"] = audit_concentration(
        args.lambda2,
        b,
        float(args.n),
        t_grid,
        args.a,
        trials=args.conc_trials,
        seed=args.seed,
    ).as_dict()
    audit["expectations"] = audit_expectations(
        args.lambda2, b, float(args.n), trials=args.exp_trials, seed=args.seed
    ).as_dict()
    # the skipped sensitivity scan has no flag
    passed = all(section.get("passed", True) for section in audit.values())
    report = _json_report(inputs=_inputs(args), public={}, results={"passed": passed}, audit=audit)
    return EXIT_OK if passed else EXIT_AUDIT_FAILED, report


def _cmd_attack_demo(args) -> tuple[int, str]:
    graph = _read_graph(args.input)
    # before the O(n^2) knowledge lists and the eigensolve, not after them
    if graph.n > _MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 2 <= n <= {_MAX_ENUMERATION_N}")
    if not (0 <= args.node < graph.n):
        raise ValueError(f"node {args.node} out of range for n = {graph.n}")
    known_present = [e for e in graph.edges if args.node not in e]
    known_absent = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if args.node not in (u, v) and (u, v) not in graph.edges
    ]
    # one lambda2 feeds the exact attack and the release: privatize's
    # own, so the draw is privatize's
    lambda2 = algebraic_connectivity(graph)
    exact = exact_value_attack(graph.n, lambda2, known_present, known_absent, tol=args.tol)
    release = _release(lambda2, graph.n, _params(args), np.random.default_rng(args.seed))
    noisy = attack_under_noise(
        graph.n,
        release.lambda2_tilde,
        release.scale_b,
        coverage=args.coverage,
        known_present=known_present,
        known_absent=known_absent,
    )
    return EXIT_OK, _json_report(
        inputs=_inputs(args),
        public={"n": graph.n, "b": release.scale_b},
        results={
            "exact_release_leak": exact.as_dict(),
            "private_release": {"lambda2_tilde": release.lambda2_tilde},
            "attack_under_noise": noisy.as_dict(),
            "min_degree_from_release": min_degree_inference(
                release.lambda2_tilde, graph.n
            ),
        },
    )


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, default=0.4, help="privacy budget epsilon")
    parser.add_argument("--delta", type=float, default=0.05, help="privacy slack delta")
    parser.add_argument("--A", type=int, default=1, help="adjacency radius in edges")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privconn",
        description="Differentially private algebraic connectivity with certified bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("privatize", help="release lambda2 of an edge-list graph")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    _add_budget(p)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: OS entropy)")
    p.add_argument("--output", default=None, help="report path, or - for stdout (default)")
    p.set_defaults(run=_cmd_privatize)

    p = sub.add_parser("solve-b", help="minimal feasible noise scale for a node count")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    _add_budget(p)
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_solve_b)

    p = sub.add_parser("consensus", help="rate-error bounds from a released value")
    p.add_argument("--lambda2", type=float, required=True, help="released connectivity value")
    p.add_argument("--n", type=int, required=True)
    _add_budget(p)
    p.add_argument("--a", type=float, default=0.1, help="deviation threshold")
    p.add_argument("--eta", type=float, default=0.05, help="tail probability ceiling")
    p.add_argument("--t-grid", default="1:100:100", help="time grid start:stop:points")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_consensus)

    p = sub.add_parser("bounds", help="distance and degree bounds from a released value")
    p.add_argument("--lambda2", type=float, required=True, help="released connectivity value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda-n", type=float, default=None, help="largest eigenvalue (default n)")
    p.add_argument("--alpha", default="auto", help="log base > 1, or 'auto' to optimize")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--A", type=int, default=1)
    p.add_argument(
        "--sweep-eps",
        default=None,
        help="epsilon grid start:stop:points: tabulate exact vs expected bounds per budget",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("validate", help="run the empirical audits")
    p.add_argument("--n", type=int, required=True)
    _add_budget(p)
    p.add_argument("--samples-per-graph", type=int, default=200_000, help="draws per graph")
    p.add_argument("--pairs", type=int, default=20, help="random adjacent pairs")
    p.add_argument("--bins", type=int, default=50, help=f"histogram bins (2 to {_MAX_BINS:,})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scale-factor",
        type=float,
        default=1.0,
        help="multiply the solved scale (below 1: negative control, must fail)",
    )
    p.add_argument("--lambda2", type=float, default=1.0, help="center for the accuracy audits")
    p.add_argument("--a", type=float, default=0.2, help="deviation threshold")
    p.add_argument("--t-grid", default="1:100:25", help="time grid start:stop:points")
    p.add_argument("--conc-trials", type=int, default=10_000, help="draws per grid point")
    p.add_argument("--exp-trials", type=int, default=1_000_000, help="draws for the means")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("attack-demo", help="reconstruction attack on exact vs private release")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--node", type=int, required=True, help="whose edges the adversary misses")
    _add_budget(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6, help="exact-match tolerance")
    p.add_argument("--coverage", type=float, default=0.9, help="noise window mass")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_cmd_attack_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.run(args)
        if args.output is None or args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except InfeasibleParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: an array numpy cannot allocate, such as a --t-grid
        # of 10^12 points; numpy names the size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
