"""Error taxonomy shared by every curvlab module.

All errors derive from ValueError so callers that only care about "bad input"
can catch one type, while tests can pin the precise failure mode.
"""


class ArgumentError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDimensionError(ArgumentError):
    """The requested dimension is outside the supported range."""


class PreconditionError(ArgumentError):
    """Input data fails a structural precondition (e.g. not diagonal)."""


class DegenerateInputError(ArgumentError):
    """Input is too close to zero for the operation to be meaningful."""
