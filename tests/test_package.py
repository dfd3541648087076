"""The package's public names: each module's __all__ is their only list."""

import importlib

import privconn

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
    "is_connected",
    "diameter_exact",
    "mean_distance_exact",
    "min_degree",
    "symmetric_difference_size",
    "PrivacyParams",
    "BoundedLaplaceDist",
    "PrivateRelease",
    "sensitivity_bound",
    "normalizer_C",
    "delta_C",
    "solve_scale_b",
    "privatize",
    "RateErrorQuery",
    "ConcentrationBound",
    "true_rate",
    "rho_terms",
    "expected_rate_error",
    "concentration_bound",
    "settle_time",
    "worst_case_settle_time",
    "PropertyBoundReport",
    "diameter_bounds_exact",
    "mean_distance_bounds_exact",
    "optimize_alpha",
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
    "enumerate_consistent_graphs",
    "exact_value_attack",
    "attack_under_noise",
}


def test_exports_the_fifty_public_names_once():
    assert len(EXPORTED) == 50
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
