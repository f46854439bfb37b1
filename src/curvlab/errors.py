"""The one error class curvlab raises for a bad argument.

Every public function that refuses its input raises ArgumentError, a
ValueError, with a message naming the violated precondition; the curvlab
command turns it into a usage error (exit code 2).  Internal faults, such as
a basis of the wrong dimension, raise RuntimeError instead.
"""


class ArgumentError(ValueError):
    """An argument violates a documented precondition."""
