"""Spans around privconn's public functions, recorded from outside.

Nothing under ``src/`` changes. A caller looks a function up in its own
module's globals, so each public function is rebound in every module
namespace that calls it (``privacy_mechanism.spectrum`` is what
``privatize`` calls, ``cli.spectrum`` is what the CLI calls). Spans are
kept in memory and written out when the run ends; a layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter

# (module, attribute, span name). One span name per public function; it
# appears once per module that calls the function.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "from_edge_list", "graph_core.from_edge_list"),
    ("graph_core", "from_edge_list", "graph_core.from_edge_list"),
    ("graph_core", "laplacian", "graph_core.laplacian"),
    ("cli", "spectrum", "graph_core.spectrum"),
    ("graph_core", "spectrum", "graph_core.spectrum"),
    ("privacy_mechanism", "spectrum", "graph_core.spectrum"),
    ("validation", "spectrum", "graph_core.spectrum"),
    ("graph_core", "diameter_exact", "graph_core.diameter_exact"),
    ("graph_core", "mean_distance_exact", "graph_core.mean_distance_exact"),
    ("graph_core", "min_degree", "graph_core.min_degree"),
    ("cli", "privatize", "privacy_mechanism.privatize"),
    ("cli", "solve_scale_b", "privacy_mechanism.solve_scale_b"),
    ("privacy_mechanism", "solve_scale_b", "privacy_mechanism.solve_scale_b"),
    ("validation", "solve_scale_b", "privacy_mechanism.solve_scale_b"),
    ("privacy_mechanism.BoundedLaplaceDist", "sample", "privacy_mechanism.sample"),
    ("cli", "expected_rate_error", "consensus_analysis.expected_rate_error"),
    ("validation", "expected_rate_error", "consensus_analysis.expected_rate_error"),
    ("cli", "settle_time", "consensus_analysis.settle_time"),
    ("cli", "worst_case_settle_time", "consensus_analysis.worst_case_settle_time"),
    ("validation", "concentration_bound", "consensus_analysis.concentration_bound"),
    ("cli", "exact_bounds", "property_bounds.exact_bounds"),
    ("property_bounds", "exact_bounds", "property_bounds.exact_bounds"),
    ("cli", "expected_bounds", "property_bounds.expected_bounds"),
    ("property_bounds", "expected_inv_sqrt_lambda2", "property_bounds.expected_inv_sqrt_lambda2"),
    ("validation", "expected_inv_sqrt_lambda2", "property_bounds.expected_inv_sqrt_lambda2"),
    ("cli", "min_degree_inference", "property_bounds.min_degree_inference"),
    ("property_bounds", "min_degree_inference", "property_bounds.min_degree_inference"),
    ("cli", "audit_dp", "validation.audit_dp"),
    ("cli", "audit_sensitivity", "validation.audit_sensitivity"),
    ("cli", "audit_concentration", "validation.audit_concentration"),
    ("cli", "audit_expectations", "validation.audit_expectations"),
    ("cli", "exact_value_attack", "validation.exact_value_attack"),
    ("validation", "exact_value_attack", "validation.exact_value_attack"),
    ("cli", "attack_under_noise", "validation.attack_under_noise"),
    ("validation", "attack_under_noise", "validation.attack_under_noise"),
)

# delta_C runs ~40 times per scale solve at ~1 us each; a span apiece
# would cost more than the call, so it is only counted.
COUNTED = (("privacy_mechanism", "delta_C", "privacy_mechanism.delta_C_calls"),)


def _graph_n(args, kwargs) -> int:
    return args[0].n if args else kwargs["graph"].n


def _on_spectrum(counts, args, kwargs, result):
    n = _graph_n(args, kwargs)
    counts["graph_core.eigensolve_n_max"] = max(counts["graph_core.eigensolve_n_max"], n)


def _on_laplacian(counts, args, kwargs, result):
    # computed, not measured: one dense float64 n x n matrix per call
    counts["graph_core.laplacian_bytes_computed"] += 8 * _graph_n(args, kwargs) ** 2


def _on_distances(counts, args, kwargs, result):
    # each call runs one BFS from every node
    counts["graph_core.bfs_sources"] += _graph_n(args, kwargs)


def _on_sample(counts, args, kwargs, result):
    # sample(self, rng, size=None): no size means one scalar draw
    size = args[2] if len(args) > 2 else kwargs.get("size")
    counts["privacy_mechanism.draws"] += 1 if size is None else math.prod(size) if isinstance(size, tuple) else int(size)


def _on_sensitivity(counts, args, kwargs, result):
    counts["validation.graphs_enumerated"] += result.details["graphs_scanned"]


def _enumeration_hook(fn):
    signature = inspect.signature(fn)

    def hook(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = bound.arguments["n"]
        known = {tuple(sorted(map(int, e))) for e in bound.arguments["known_present"]}
        known |= {tuple(sorted(map(int, e))) for e in bound.arguments["known_absent"]}
        counts["validation.graphs_enumerated"] += 1 << (n * (n - 1) // 2 - len(known))

    return hook


_HOOKS = {
    "graph_core.spectrum": _on_spectrum,
    "graph_core.laplacian": _on_laplacian,
    "graph_core.diameter_exact": _on_distances,
    "graph_core.mean_distance_exact": _on_distances,
    "privacy_mechanism.sample": _on_sample,
    "validation.audit_sensitivity": _on_sensitivity,
}


def _owner(pc, path: str):
    module, _, attr = path.partition(".")
    owner = getattr(pc, module)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """Records spans and counts while installed; restores everything on remove."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._saved = []

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, pc) -> None:
        for path, attr, name in SPANS:
            owner = _owner(pc, path)
            fn = getattr(owner, attr)
            hook = _HOOKS.get(name)
            if name in ("validation.exact_value_attack", "validation.attack_under_noise"):
                hook = _enumeration_hook(fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, hook))
        for path, attr, name in COUNTED:
            owner = _owner(pc, path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path, origin: float, meta: dict) -> None:
        rows = [[n, s - origin, e - origin, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh)
