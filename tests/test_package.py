"""The package's public names: each module's __all__ is their only list."""

import ast
import importlib
from pathlib import Path

import privconn

ROOT = Path(__file__).resolve().parent.parent

# the program and the benchmark code that drives it; tests do not count
CALLERS = (
    *sorted((ROOT / "src" / "privconn").glob("*.py")),
    ROOT / "bench" / "workloads.py",
    ROOT / "bench" / "tracer.py",
)

MODULES = ("errors", "graph_core", "privacy_mechanism", "consensus_analysis", "property_bounds", "validation")

EXPORTED = {
    "__version__",
    "EdgeListError",
    "InfeasibleParamsError",
    "NumericalError",
    "Graph",
    "SpectralSummary",
    "from_edge_list",
    "laplacian",
    "spectrum",
    "algebraic_connectivity",
    "diameter_exact",
    "mean_distance_exact",
    "min_degree",
    "PrivacyParams",
    "BoundedLaplaceDist",
    "PrivateRelease",
    "sensitivity_bound",
    "normalizer_C",
    "delta_C",
    "solve_scale_b",
    "privatize",
    "rho_terms",
    "expected_rate_error",
    "concentration_bound",
    "settle_time",
    "worst_case_settle_time",
    "PropertyBoundReport",
    "exact_bounds",
    "expected_bounds",
    "expected_lambda2",
    "expected_inv_sqrt_lambda2",
    "min_degree_inference",
    "AuditReport",
    "AttackResult",
    "NoisyAttackResult",
    "audit_sensitivity",
    "audit_dp",
    "audit_concentration",
    "audit_expectations",
    "exact_value_attack",
    "attack_under_noise",
}


def test_exports_the_forty_one_public_names_once():
    assert len(EXPORTED) == 41
    assert len(privconn.__all__) == len(set(privconn.__all__))
    assert set(privconn.__all__) == EXPORTED


def test_each_name_is_its_defining_modules_object():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"privconn.{name}")
        for attr in module.__all__:
            assert attr not in owners, f"{attr} listed by {owners[attr]} and {name}"
            owners[attr] = name
            assert getattr(privconn, attr) is getattr(module, attr)
    assert set(owners) == EXPORTED - {"__version__"}


def test_batched_laplacians_stay_internal():
    assert "laplacians" not in privconn.__all__
    assert not hasattr(privconn, "laplacians")
    assert callable(privconn.graph_core.laplacians)


def _names_read(paths) -> set:
    """Every name the files read as a Name or an Attribute, outside a
    function or class of that name (its own definition)."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in inside:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    return read


def test_every_public_name_is_used_by_the_program_or_the_benchmark():
    # __version__ is metadata for callers; everything else must be reached
    # from a command or a workload, not only from tests
    public = set(privconn.__all__) - {"__version__"}
    assert sorted(public - _names_read(CALLERS)) == []


# pytest.approx keeps its default abs=1e-12 beside any rel, so a rel
# tighter than this checks only 1e-12 absolute on values of order 1
_TIGHTEST_REL_ALONE = 1e-12


def test_no_tight_rel_without_abs():
    loose = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("test_*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            keywords = {kw.arg: kw.value for kw in node.keywords}
            rel = keywords.get("rel")
            if name == "approx" and "abs" not in keywords and isinstance(rel, ast.Constant):
                if rel.value < _TIGHTEST_REL_ALONE:
                    loose.append(f"{path.name}:{node.lineno} rel={rel.value}")
    assert loose == []
