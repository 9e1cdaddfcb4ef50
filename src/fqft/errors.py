"""Shared exception types."""


class SpaceMismatchError(ValueError):
    """Operands built over different truncated spaces."""


class GeometryError(ValueError):
    """Invalid surface data or geometrically incompatible gluing."""


class ResourceLimitError(RuntimeError):
    """Requested truncation level exceeds the configured hard cap."""


class GoodnessError(ValueError):
    """A family failed the r -> 0 goodness test.

    Carries the most singular surviving term so callers can diagnose
    which power/log of the cut radius obstructs the limit.
    """

    def __init__(self, message, power=None, log_power=None, coeff_norm=None):
        super().__init__(message)
        self.power = power
        self.log_power = log_power
        self.coeff_norm = coeff_norm


class ExtractionError(ValueError):
    """OPE extraction could not match a coefficient against known observables."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class RecombinationError(ValueError):
    """Bilinear coupling part not symmetric; cannot rewrite in the combined coupling."""


class TruncationOverflowError(RuntimeError):
    """A mode word pushed components above the truncation level."""


class ValidationError(ValueError):
    """Theory data violates a standing assumption (dimensions, marginality)."""


class QuadratureError(RuntimeError):
    """The Taylor-series oracle did not converge within its term budget."""
