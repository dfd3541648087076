"""privconn benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload {release,certify,audit,structure} \
        --seed N --seconds S --trace {0,1}

Run from the root of a privconn checkout; the program is imported from
its ``src/`` directory, never from an installed copy. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced window (see README.md).
Lines before it are a human-readable table and a ``# details`` JSON line
with the machine facts, sample counts and the tail percentile used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("cli", "graph_core", "privacy_mechanism", "consensus_analysis", "property_bounds", "validation")
# fresh interpreters timed per run; setup_s is their median
SETUP_SAMPLES = 3
# Nearest-rank percentiles; the tail is the highest with >= 10 samples beyond
# it. The rungs are coarse so that a run's sample count (round size times
# rounds, which drifts with machine speed) stays between two thresholds on
# every workload: p75 needs 40 samples, p95 needs 200.
TAIL_LADDER = (95.0, 75.0, 50.0)
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 5

# per-layer time metric -> the span names whose self times it sums
LAYER_TIMES = {
    "cli.main_self_s": ("cli.main",),
    "graph_core.from_edge_list_s": ("graph_core.from_edge_list",),
    "graph_core.laplacian_s": ("graph_core.laplacian",),
    "graph_core.spectrum_self_s": ("graph_core.spectrum",),
    "graph_core.distances_s": ("graph_core.diameter_exact", "graph_core.mean_distance_exact"),
    "graph_core.min_degree_s": ("graph_core.min_degree",),
    "privacy_mechanism.privatize_s": ("privacy_mechanism.privatize",),
    "privacy_mechanism.solve_scale_b_s": ("privacy_mechanism.solve_scale_b",),
    "privacy_mechanism.sample_s": ("privacy_mechanism.sample",),
    "consensus_analysis.expected_rate_error_s": ("consensus_analysis.expected_rate_error",),
    "consensus_analysis.settle_time_s": ("consensus_analysis.settle_time",),
    "consensus_analysis.worst_case_settle_time_s": ("consensus_analysis.worst_case_settle_time",),
    "consensus_analysis.concentration_bound_s": ("consensus_analysis.concentration_bound",),
    "property_bounds.exact_bounds_s": ("property_bounds.exact_bounds",),
    "property_bounds.expected_bounds_s": ("property_bounds.expected_bounds",),
    "property_bounds.expected_inv_sqrt_lambda2_s": ("property_bounds.expected_inv_sqrt_lambda2",),
    "property_bounds.min_degree_inference_s": ("property_bounds.min_degree_inference",),
    "validation.audit_dp_s": ("validation.audit_dp",),
    "validation.audit_sensitivity_s": ("validation.audit_sensitivity",),
    "validation.audit_concentration_s": ("validation.audit_concentration",),
    "validation.audit_expectations_s": ("validation.audit_expectations",),
    "validation.exact_value_attack_s": ("validation.exact_value_attack",),
    "validation.attack_under_noise_s": ("validation.attack_under_noise",),
}
# per-layer call-count metric -> span name
LAYER_CALLS = {
    "cli.calls": "cli.main",
    "graph_core.eigensolves": "graph_core.spectrum",
    "privacy_mechanism.solve_scale_b_calls": "privacy_mechanism.solve_scale_b",
}
# per-layer counters kept by the tracer's hooks, with their units
LAYER_COUNTS = {
    "graph_core.eigensolve_n_max": "nodes",
    "graph_core.laplacian_bytes_computed": "B",
    "graph_core.bfs_sources": "count",
    "privacy_mechanism.delta_C_calls": "count",
    "privacy_mechanism.draws": "count",
    "validation.graphs_enumerated": "count",
}


def load_privconn():
    return types.SimpleNamespace(**{m: importlib.import_module(f"privconn.{m}") for m in MODULES})


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)]


def tail_percentile(count: int) -> float:
    for pct in TAIL_LADDER:
        if count - math.ceil(pct / 100.0 * count) >= TAIL_BEYOND:
            return pct
    return 50.0


def new_window() -> dict:
    return {
        "latencies": [],
        "by_member": defaultdict(list),
        "rounds_s": [],
        "attempted": 0,
        "failed": 0,
        "tally": Counter(),
        "errors": [],
    }


def play_round(wl, pc, window: dict, tracer: Tracer | None = None) -> None:
    """One round of the workload's ops, each timed and then checked."""
    rnd = len(window["rounds_s"])
    start = time.perf_counter()
    for member, op in enumerate(wl.ops):
        window["attempted"] += 1
        if tracer is not None:
            tracer.op = window["attempted"]
        t0 = time.perf_counter()
        try:
            out = wl.execute(pc, op, rnd)
            elapsed = time.perf_counter() - t0
            wl.check(op, out, window["tally"])
        except (Exception, SystemExit) as exc:  # an op that crashes is a failed op
            window["failed"] += 1
            if len(window["errors"]) < MAX_REPORTED_ERRORS:
                window["errors"].append(f"{op['kind']}: {type(exc).__name__}: {exc}")
            continue
        window["latencies"].append(elapsed)
        window["by_member"][member].append(elapsed)
    window["rounds_s"].append(time.perf_counter() - start)


def measure(wl, pc, seconds: float) -> dict:
    """Replay whole rounds of the workload until ``seconds`` have passed.

    Stopping only at round boundaries keeps every member equally often in
    the sample, so the percentiles land on the same members run to run.
    """
    window = new_window()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        play_round(wl, pc, window)
    return window


def measure_traced(wl, pc, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds until ``seconds`` have passed.

    Paired rounds run the same ops on the same seeds, and alternating them
    cancels the drift in machine speed, so the two windows' throughputs
    differ by the tracing overhead.
    """
    untraced, traced = new_window(), new_window()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        play_round(wl, pc, untraced)
        tracer.install(pc)
        try:
            play_round(wl, pc, traced, tracer)
        finally:
            tracer.remove()
    return untraced, traced


def latency_summary(run: dict) -> dict:
    """Throughput and latency percentiles; latencies read 0 when no op succeeded.

    The median is taken over the round's members, each at its mean over
    the run. On a shared host the CPU can switch between a fast and a slow
    phase every few seconds; a median over single ops then jumps from one
    phase to the other when they split the run about evenly, while a
    member's mean moves smoothly with the share of time spent in each.
    """
    lat = sorted(run["latencies"]) or [0.0]
    member_means = sorted(statistics.fmean(v) for v in run["by_member"].values()) or [0.0]
    pct = tail_percentile(len(run["latencies"]))
    return {
        "ops_per_s": (run["attempted"] - run["failed"]) / sum(run["rounds_s"]),
        "latency_p50_s": nearest_rank(member_means, 50.0),
        "latency_tail_s": nearest_rank(lat, pct),
        "tail_percentile": pct,
        "samples": len(run["latencies"]),
        "mean_latency_s": statistics.fmean(lat),
    }


def setup_probe(spec_path: str) -> int:
    """Time a fresh interpreter's import of privconn.cli plus the warm-up ops."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[spec["workload"]]
    t0 = time.perf_counter()
    import privconn.cli  # noqa: F401  (timed: this is the set-up a user pays)

    pc = load_privconn()
    for op in spec["warmups"]:
        wl.execute(pc, op, 0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(wl, workdir: Path) -> list[float]:
    spec = workdir / "warmups.json"
    spec.write_text(json.dumps({"workload": wl.name, "warmups": wl.warmups}))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    self_s, calls = tracer.self_times()
    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = (sum(self_s[s] for s in spans), "s")
    for name, span in LAYER_CALLS.items():
        metrics[name] = (calls[span], "count")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.counts[name], unit)
    solves = calls["privacy_mechanism.solve_scale_b"]
    metrics["privacy_mechanism.delta_C_per_solve"] = (
        tracer.counts["privacy_mechanism.delta_C_calls"] / solves if solves else 0.0,
        "calls/solve",
    )
    metrics["validation.unexpected_verdicts"] = (traced["tally"]["unexpected_verdicts"], "count")
    metrics["validation.audits_run"] = (traced["tally"]["audits_run"], "count")
    span_sum = sum(self_s.values())
    traced_ok = latency_summary(traced)
    untraced_ok = latency_summary(untraced)
    op_time = sum(traced["latencies"])
    metrics["trace.ops"] = (len(traced["latencies"]), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_frac"] = (untraced_ok["ops_per_s"] / traced_ok["ops_per_s"] - 1.0, "frac")
    metrics["trace.unattributed_frac"] = (1.0 - span_sum / op_time if op_time else 0.0, "frac")
    metrics["trace.self_sum_vs_untraced_frac"] = (
        span_sum / max(len(traced["latencies"]), 1) / untraced_ok["mean_latency_s"] - 1.0 if op_time else 0.0,
        "frac",
    )
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict, details: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    print("# details: " + json.dumps(details, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run(args) -> int:
    wl_cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = wl_cls(args.seed, workdir)
        pc = load_privconn()
        problems = wl.prepare(pc)
        for op in wl.warmups:
            wl.execute(pc, op, 0)
        details = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "round_ops": len(wl.ops),
            "client": "closed loop, 1 client, whole rounds",
            "prepare_problems": problems,
        }
        print(f"# privconn benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            tracer = Tracer()
            origin = time.perf_counter()
            untraced, traced = measure_traced(wl, pc, float(args.seconds), tracer)
            spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
            tracer.write(spans_path, origin, {"workload": wl.name, "seed": args.seed})
            metrics = layer_metrics(tracer, traced, untraced)
            runs = (untraced, traced)
            details.update(
                spans_file=str(spans_path.relative_to(ROOT)),
                untraced=latency_summary(untraced) | {"ops": untraced["attempted"]},
                traced=latency_summary(traced) | {"ops": traced["attempted"]},
            )
            tallied = traced
        else:
            setup = measure_setup(wl, workdir)
            tallied = measure(wl, pc, float(args.seconds))
            summary = latency_summary(tallied)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted, failed = tallied["attempted"], tallied["failed"]
            metrics = {
                "ops_per_s": (summary["ops_per_s"], "1/s"),
                "latency_p50_s": (summary["latency_p50_s"], "s"),
                "latency_tail_s": (summary["latency_tail_s"], "s"),
                "ok_frac": ((attempted - failed) / attempted, "frac"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
            runs = (tallied,)
            details.update(
                latency=summary | {"rounds_s": tallied["rounds_s"]},
                tail=f"p{summary['tail_percentile']:g} of {summary['samples']} samples",
                fail_frac=failed / attempted,
                setup_samples_s=setup,
                setup_includes="fresh interpreter: import privconn.cli + first op of each kind (cold)",
                timed_ops="warm",
            )
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        details.update(
            machine=machine_facts(),
            errors=[e for r in runs for e in r["errors"]],
            unexpected_verdicts=tallied["tally"]["unexpected_verdicts"],
            audits_run=tallied["tally"]["audits_run"],
        )
        emit(failed == 0 and not problems, attempted, failed, metrics, details)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "privconn" / "__init__.py").is_file():
        print(f"error: no privconn sources under {SRC}; run from a privconn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
