"""The benchmark's tracer rebinds public names in privconn's modules from
outside (bench/tracer.py). A name it pins that a module no longer has would
crash a traced benchmark run, so the rebinding is checked here."""

import importlib
import importlib.util
import types
from pathlib import Path

MODULES = ("cli", "graph_core", "privacy_mechanism", "consensus_analysis", "property_bounds", "validation")


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_and_restores_every_pinned_name():
    tracer = _load_tracer()
    pc = types.SimpleNamespace(**{m: importlib.import_module(f"privconn.{m}") for m in MODULES})
    pinned = {
        (path, attr): getattr(tracer._owner(pc, path), attr)
        for path, attr, _ in tracer.SPANS + tracer.COUNTED
    }
    t = tracer.Tracer()
    t.install(pc)
    try:
        for (path, attr), fn in pinned.items():
            assert getattr(tracer._owner(pc, path), attr) is not fn, (path, attr)
        # validation's lambda2 is algebraic_connectivity's dense route, not
        # spectrum: no lambda_n certificate, but the Laplacian is traced
        assert abs(pc.validation._lambda2_of_edges(3, {(0, 1), (1, 2)}) - 1.0) <= 1e-9
        assert [span[0] for span in t.spans] == ["graph_core.laplacian"]
        pc.validation.spectrum(pc.graph_core.Graph(n=3, edges={(0, 1), (1, 2)}))
        assert t.counts["graph_core.eigensolve_n_max"] == 3
        # the attack rebound in validation records its span and its hook
        pc.validation.attack_under_noise(3, 1.0, 1.0)
        assert t.spans[-1][0] == "validation.attack_under_noise"
        assert t.counts["validation.graphs_enumerated"] == 8
    finally:
        t.remove()
    for (path, attr), fn in pinned.items():
        assert getattr(tracer._owner(pc, path), attr) is fn, (path, attr)


def test_traced_commands_record_every_consensus_and_bounds_span(capsys):
    """certify's three commands and a small validate, traced: each layer a
    per-layer metric reads must show up, or that metric reads 0 silently
    when a call stops going through a rebound global."""
    tracer = _load_tracer()
    pc = types.SimpleNamespace(**{m: importlib.import_module(f"privconn.{m}") for m in MODULES})
    runs = (
        ["consensus", "--lambda2", "3.0", "--n", "40", "--eps", "0.4"],
        ["bounds", "--lambda2", "3.0", "--n", "40"],
        ["bounds", "--lambda2", "3.0", "--n", "40", "--sweep-eps", "0.1:2:20"],
        [
            "validate", "--n", "4", "--pairs", "0", "--samples-per-graph", "100000",
            "--conc-trials", "10000", "--exp-trials", "1000000",
        ],
    )
    t = tracer.Tracer()
    t.install(pc)
    try:
        codes = [pc.cli.main(argv) for argv in runs]
    finally:
        t.remove()
    capsys.readouterr()
    assert codes[:3] == [0, 0, 0] and codes[3] in (0, 5), codes
    recorded = {span[0] for span in t.spans}
    want = {
        "consensus_analysis.expected_rate_error",
        "consensus_analysis.settle_time",
        "consensus_analysis.worst_case_settle_time",
        "consensus_analysis.concentration_bound",
        "property_bounds.exact_bounds",
        "property_bounds.expected_bounds",
        "validation.audit_dp",
        "validation.audit_concentration",
        # the expectations audit's draws; the DP and concentration audits
        # draw their counts from the exact law and never call the sampler
        "privacy_mechanism.sample",
    }
    assert sorted(want - recorded) == []
    assert t.counts["privacy_mechanism.delta_C_calls"] > 0
    assert t.counts["privacy_mechanism.draws"] > 0
