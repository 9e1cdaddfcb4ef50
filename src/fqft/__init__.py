"""Functorial QFT at finite truncation level.

Level-truncated free boson Fock modules, annulus and disk partition
functions satisfying the cutting axiom, local observables kept as their
one-point correlators on the unit disk, two-point series and OPE extraction
by coordinate read-off, and conformal perturbation theory up to the
second-order beta function, with a one-dimensional (quantum mechanics)
backend checked against an exact matrix-exponential oracle.
"""

__version__ = "0.1.0"

import sys

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


def _logger(level):
    """The "fqft" logger when it is enabled for `level` (a logging level
    number: 10 debug, 20 info), else None.  A process that never imported
    logging cannot have enabled a logger, so this never imports it: logging
    loads only where the CLI reads FQFT_LOG, or where the host imported it."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("fqft")
    return log if log.isEnabledFor(level) else None
