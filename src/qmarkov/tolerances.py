"""Global numerical tolerance policy.

All floating-point decisions in the library go through a single Tolerance
record so there are no scattered magic numbers.  Every threshold is relative:
a quantity q is "zero" at scale s when |q| <= tol * max(1, s).
"""
import math
from dataclasses import dataclass, fields


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

    def __post_init__(self):
        # a NaN or infinite threshold would pass every check; a rank cutoff of 1 or more
        # would drop the largest eigenvalue itself
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"tolerance {f.name} must be finite and positive, got {v!r}")
        if not self.rank < 1:
            raise ValueError(f"tolerance rank must be below 1, got {self.rank!r}")

    @staticmethod
    def scale(norm: float) -> float:
        return max(1.0, norm)


DEFAULT_TOL = Tolerance()
