"""Functorial QFT at finite truncation level.

Level-truncated free boson Fock modules, annulus and disk partition
functions satisfying the cutting axiom, local observables kept as their
one-point correlators on the unit disk, two-point series and OPE extraction
by coordinate read-off, and conformal perturbation theory up to the
second-order beta function, with a one-dimensional (quantum mechanics)
backend checked against an exact matrix-exponential oracle.
"""

__version__ = "0.1.0"

from .errors import (
    GeometryError,
    RecombinationError,
    ResourceLimitError,
    SpaceMismatchError,
    ValidationError,
)

__all__ = [
    "GeometryError",
    "RecombinationError",
    "ResourceLimitError",
    "SpaceMismatchError",
    "ValidationError",
]
