"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised for invalid scalar inputs (signs, lengths checked elsewhere)."""


class ShapeError(ValueError):
    """Raised when a vector or policy has the wrong length/shape."""


class InvalidUtilityError(ValueError):
    """Raised for slot utilities outside the closed-form families, or with
    parameters that would make them non-concave."""


class ConvergenceError(RuntimeError):
    """Raised when a solver exhausts its iteration budget.

    Carries the best iterate found so far and its residual, so callers can
    inspect or salvage the partial result.
    """

    def __init__(self, message, best_policy=None, residual=None):
        super().__init__(message)
        self.best_policy = best_policy
        self.residual = residual


class InfeasiblePolicyError(ValueError):
    """Raised when a certificate is requested for an infeasible policy."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OracleSizeError(ValueError):
    """Raised when the brute-force search space exceeds the enumeration cap."""

    def __init__(self, message, size_estimate=None):
        super().__init__(message)
        self.size_estimate = size_estimate
