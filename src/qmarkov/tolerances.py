"""Global numerical tolerance policy.

All floating-point decisions in the library go through a single Tolerance
record so there are no scattered magic numbers.  Every threshold is relative:
a quantity q is "zero" at scale s when |q| <= tol * max(1, s).
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances threaded through every module.

    eq    -- matrix/scalar equality
    psd   -- allowed negative slack when deciding positive semidefiniteness
    herm  -- allowed anti-self-adjoint part when requiring Hermiticity
    rank  -- eigenvalues <= rank * lambda_max are treated as zero
    """

    eq: float = 1e-9
    psd: float = 1e-9
    herm: float = 1e-10
    rank: float = 1e-10

    @staticmethod
    def scale(norm: float) -> float:
        return max(1.0, norm)


DEFAULT_TOL = Tolerance()
