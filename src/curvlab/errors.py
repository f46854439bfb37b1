"""The one error class curvlab raises for a bad argument, and the one rule for
integer arguments.

Every public function that refuses its input raises ArgumentError, a
ValueError, with a message naming the violated precondition; the curvlab
command turns it into a usage error (exit code 2).  Internal faults, such as
a basis of the wrong dimension, raise RuntimeError instead.

Every dimension or count passes through need_int before anything reads it:
a whole number at or above its least value, given as a Python or numpy
integer or as an integral float such as 6.0, comes back as an int, so no
cached builder ever sees a float key.
"""


class ArgumentError(ValueError):
    """An argument violates a documented precondition."""


def need_int(value, least: int, name: str = "n") -> int:
    """value as an int, if it is a whole number >= least; ArgumentError
    otherwise (NaN, +-inf and 6.5 included)."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < least:
        raise ArgumentError(f"need {name} >= {least}, got {value}")
    return whole
