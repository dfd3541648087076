"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so library code
should raise the most specific type that applies.
"""

__all__ = ["EdgeListError", "InfeasibleParamsError", "NumericalError"]


class EdgeListError(ValueError):
    """Malformed edge-list input (bad header, token, range, or duplicate)."""


class InfeasibleParamsError(ValueError):
    """Privacy parameters admit no valid mechanism for the requested release."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or lost required accuracy."""
