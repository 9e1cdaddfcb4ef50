"""Functorial QFT at finite truncation level.

Level-truncated free boson Fock modules, partition functions satisfying the
cutting axiom, local observables as r -> 0 limits of boundary-state families,
OPE extraction by coordinate read-off, and conformal perturbation theory
up to the second-order beta function, with a one-dimensional (quantum
mechanics) backend checked against an exact matrix-exponential oracle.
"""

__version__ = "0.1.0"

from .errors import (
    ExtractionError,
    GeometryError,
    GoodnessError,
    RecombinationError,
    ResourceLimitError,
    SpaceMismatchError,
    TruncationOverflowError,
    ValidationError,
)

__all__ = [
    "ExtractionError",
    "GeometryError",
    "GoodnessError",
    "RecombinationError",
    "ResourceLimitError",
    "SpaceMismatchError",
    "TruncationOverflowError",
    "ValidationError",
]
