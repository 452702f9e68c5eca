"""Exception types shared across the package, and the one test of integer arguments.

Every domain error derives from :class:`PovmError`.  The CLI maps the class
name to the ``error.kind`` field of its JSON error report, so class names are
part of the tool's surface and should stay stable.
"""

from __future__ import annotations

import numpy as np


class PovmError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class NonSquare(PovmError):
    pass


class NonHermitian(PovmError):
    pass


class NotPsd(PovmError):
    pass


class NotNormalized(PovmError):
    pass


class DimensionMismatch(PovmError):
    pass


class DuplicateLabel(PovmError):
    pass


class LabelMismatch(PovmError):
    pass


class UnknownLabel(PovmError):
    pass


class InvalidMixWeight(PovmError):
    pass


class NotPvm(PovmError):
    pass


class NotDominated(PovmError):
    pass


class IsPure(PovmError):
    """Raised when a convex split is requested for an extremal measurement."""


class NotTracePreserving(PovmError):
    pass


class IndexOutOfRange(PovmError):
    pass


class EmptyFamily(PovmError):
    pass


class GridTooCoarse(PovmError):
    pass


class InvalidBudget(PovmError):
    """Raised for an iteration budget that is not a non-negative integer."""


class InvalidTolerance(PovmError, ValueError):
    """Raised for a tolerance that is not a finite number in (0, 1), or whose
    eigenvalue cut leaves a dilation smaller than the space it dilates."""


class InvalidRatio(PovmError, ValueError):
    """Raised for a geometric tail ratio that is not a number in (0, 1)."""


class NonFinite(PovmError, ValueError):
    """Raised for a NaN, infinite or out-of-range entry of an input, or for
    finite inputs whose results pass the double range."""


class NonIntegerIndex(PovmError, ValueError):
    """Raised for a frequency key, excluded index, size or order that is not an integer."""


class SchemaError(PovmError):
    """Malformed JSON input; ``path`` is a JSON-pointer-style location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# Python counts True as the integer 1, but no index, size, budget or coefficient is a bool.
_BOOLS = (bool, np.bool_)


def _is_integer(v) -> bool:
    """An int or numpy integer; a bool is neither, though Python counts True as 1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, _BOOLS)


def _require_integers(**values) -> None:
    """Refuse each named size or order that is not an integer, before anything is built."""
    for name, v in values.items():
        if not _is_integer(v):
            raise NonIntegerIndex(f"{name} must be an integer, got {v!r}")
