"""Exception types shared across the package."""


class GapdetError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GapdetError, ValueError):
    """An argument lies outside the documented validity window."""


class KernelEvaluationError(GapdetError, RuntimeError):
    """A kernel entry could not be evaluated.

    Carries the block indices and the offending node coordinates when they
    could be located.
    """

    def __init__(self, message, block_row=None, block_col=None, x=None, y=None):
        super().__init__(message)
        self.block_row = block_row
        self.block_col = block_col
        self.x = x
        self.y = y


class NonConvergenceError(GapdetError, RuntimeError):
    """Doubling the quadrature size left the result above tolerance.

    ``values`` holds the determinants at the last two resolutions so the
    caller can judge how bad the situation is.
    """

    def __init__(self, message, values=(), err_estimate=None):
        super().__init__(message)
        self.values = tuple(values)
        self.err_estimate = err_estimate


class SingularRestrictionError(GapdetError, RuntimeError):
    """A restricted operator is singular to working precision; raised only
    by :class:`gapdet.kernels.ConditionedKernel`."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class DivisionInstabilityError(GapdetError, RuntimeError):
    """A determinant ratio cannot be trusted (denominator accuracy lost).

    ``rounding_floor`` is the relative m0 rounding floor of a
    :func:`gapdet.fredholm.ladder` rung, and ``tol`` the tolerance it
    exceeds, when the ladder raised it for want of a higher precision.
    """

    def __init__(self, message, rounding_floor=None, tol=None):
        super().__init__(message)
        self.rounding_floor = rounding_floor
        self.tol = tol


class SanityCheckError(GapdetError, RuntimeError):
    """An internal engine consistency bound was violated."""
