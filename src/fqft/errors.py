"""Shared exception types."""


class SpaceMismatchError(ValueError):
    """Operands built over different truncated spaces."""


class GeometryError(ValueError):
    """Invalid surface data or geometrically incompatible gluing."""


class ResourceLimitError(RuntimeError):
    """Requested truncation level exceeds the configured hard cap."""


class RecombinationError(ValueError):
    """Bilinear coupling part not symmetric; cannot rewrite in the combined coupling."""


class ValidationError(ValueError):
    """Theory data violates a standing assumption (dimensions, marginality)."""


class QuadratureError(RuntimeError):
    """The Taylor-series oracle did not converge within its term budget."""
