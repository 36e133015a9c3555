"""Exception hierarchy and count-argument check shared by all bdlimits modules.

Two branches matter for callers (and for CLI exit codes): ValidationError
for rejected inputs, NumericError for computations that failed or refused
to proceed at runtime.
"""

import numpy as np

# exp() is finite up to ~709.7; the chain's jump rates and the fluid field
# refuse any exponent past this magnitude well before that
MAX_EXPONENT = 700.0


class BdlimitsError(Exception):
    """Base class for all library errors."""


class ValidationError(BdlimitsError, ValueError):
    """Invalid input: bad graph, matrix pattern, configuration, or config file."""


class NumericError(BdlimitsError, ArithmeticError):
    """A numeric computation failed or would produce garbage."""


def require_integer(name: str, value) -> int:
    """value as an int if it is a Python or numpy integer; bools, floats
    (integral ones too), strings and None raise ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


class InvalidEdgeError(ValidationError):
    """Edge is a self-loop, out of range, or duplicated."""


class DisconnectedGraphError(ValidationError):
    """Graph has no path between some pair of vertices."""


class PatternViolationError(ValidationError):
    """Matrix has a nonzero entry at a non-adjacent vertex pair."""

    def __init__(self, x: int, y: int, value: float):
        self.x = x
        self.y = y
        self.value = value
        super().__init__(
            f"nonzero entry {value!r} at non-adjacent pair ({x}, {y})"
        )


class StateSpaceTooLargeError(ValidationError):
    """Enumeration of all configurations would exceed the state cap."""


class AsymmetricMatrixError(ValidationError):
    """Operation requires a symmetric net interaction matrix."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix dimensions do not agree."""


class NotSymmetricError(ValidationError):
    """Symmetric eigensolver got a matrix that is not symmetric."""


class SupportNotCoveredError(ValidationError):
    """Test function support sticks out of the scaled spin box."""


class ConfigError(ValidationError):
    """Config file is malformed; message names the offending field."""


class RateOverflowError(NumericError):
    """A jump-rate exponent left the safe range for exp()."""

    def __init__(self, vertex: int, exponent: float):
        self.vertex = vertex
        self.exponent = exponent
        super().__init__(
            f"rate exponent {exponent!r} at vertex {vertex} "
            f"exceeds safe magnitude {MAX_EXPONENT:g}"
        )


class ExponentOverflowError(NumericError):
    """A vector-field exponent left the safe range for exp()."""

    def __init__(self, vertex: int, exponent: float, time: float | None = None):
        self.vertex = vertex
        self.exponent = exponent
        self.time = time
        at = "" if time is None else f" at t={time!r}"
        super().__init__(
            f"field exponent {exponent!r} at vertex {vertex}{at} "
            f"exceeds safe magnitude {MAX_EXPONENT:g}"
        )


class SingularSystemError(NumericError):
    """Balance equations were singular; the chain should be irreducible."""


class NotHurwitzError(NumericError):
    """Drift matrix has a nonnegative real eigenvalue; no stationary law."""


class InconclusiveSpectrumError(NumericError):
    """Neither spectral certificate resolves the eigenvalue sign at tolerance."""


class BudgetExceededError(NumericError):
    """Projected or actual event count exceeds the experiment budget."""
