"""Gap probabilities of the Airy, Pearcey and tacnode point processes.

Fredholm determinants of the relevant operator kernels are evaluated by
Nystrom discretization on Gauss-Legendre rules on the real line, with
semi-infinite domains handled through a smooth parameter map.
"""

__version__ = "0.1.0"

from .errors import (
    DivisionInstabilityError,
    DomainError,
    GapdetError,
    KernelEvaluationError,
    NonConvergenceError,
    SanityCheckError,
    SingularRestrictionError,
)
from .gapprob import (
    airy_gap,
    pearcey_gap,
    tacnode_gap_direct,
    tacnode_gap_ratio,
    tracy_widom_F2,
)
from .kernels import GapSpec, PearceyParams, TacnodeParams
from .specfun import (
    airy_ai,
    airy_ai_prime,
    airy_shifted,
    heat_kernel,
    load_airy_golden,
    pearcey_phase,
)

__all__ = [
    "__version__",
    "tracy_widom_F2",
    "airy_gap",
    "pearcey_gap",
    "tacnode_gap_ratio",
    "tacnode_gap_direct",
    "PearceyParams",
    "TacnodeParams",
    "GapSpec",
    "airy_ai",
    "airy_ai_prime",
    "airy_shifted",
    "heat_kernel",
    "pearcey_phase",
    "load_airy_golden",
    "GapdetError",
    "DomainError",
    "KernelEvaluationError",
    "NonConvergenceError",
    "SingularRestrictionError",
    "DivisionInstabilityError",
    "SanityCheckError",
]
