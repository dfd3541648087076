"""Differentially private release of graph algebraic connectivity.

Release the second-smallest Laplacian eigenvalue of an undirected graph
under (epsilon, delta) edge privacy, then certify consensus convergence
rates and diameter / mean-distance bounds from the released value alone.
"""

from . import consensus_analysis, errors, graph_core, privacy_mechanism, property_bounds, validation
from .errors import *  # noqa: F403
from .graph_core import *  # noqa: F403
from .privacy_mechanism import *  # noqa: F403
from .consensus_analysis import *  # noqa: F403
from .property_bounds import *  # noqa: F403
from .validation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graph_core.__all__,
    *privacy_mechanism.__all__,
    *consensus_analysis.__all__,
    *property_bounds.__all__,
    *validation.__all__,
]
