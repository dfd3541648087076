"""Differentially private release of graph algebraic connectivity.

Release the second-smallest Laplacian eigenvalue of an undirected graph
under (epsilon, delta) edge privacy, then certify consensus convergence
rates and diameter / mean-distance bounds from the released value alone.
"""

from .errors import EdgeListError, InfeasibleParamsError, NumericalError
from .graph_core import (
    Graph,
    SpectralSummary,
    algebraic_connectivity,
    diameter_exact,
    from_edge_list,
    is_connected,
    laplacian,
    mean_distance_exact,
    min_degree,
    spectrum,
    symmetric_difference_size,
)
from .privacy_mechanism import (
    BoundedLaplaceDist,
    PrivacyParams,
    PrivateRelease,
    delta_C,
    normalizer_C,
    privatize,
    sensitivity_bound,
    solve_scale_b,
)
from .consensus_analysis import (
    ConcentrationBound,
    RateErrorQuery,
    concentration_bound,
    expected_rate_error,
    rho_terms,
    settle_time,
    true_rate,
    worst_case_settle_time,
)
from .property_bounds import (
    PropertyBoundReport,
    diameter_bounds_exact,
    exact_bounds,
    expected_bounds,
    expected_inv_sqrt_lambda2,
    expected_lambda2,
    mean_distance_bounds_exact,
    min_degree_inference,
    optimize_alpha,
)
from .validation import (
    AttackResult,
    AuditReport,
    NoisyAttackResult,
    attack_under_noise,
    audit_concentration,
    audit_dp,
    audit_expectations,
    audit_sensitivity,
    enumerate_consistent_graphs,
    exact_value_attack,
)

__version__ = "0.1.0"

__all__ = [
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
]
