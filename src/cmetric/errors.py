"""Exception hierarchy.

Every failure mode has its own catchable type so callers (and the CLI exit-code
mapping) can tell input mistakes, violated mathematical hypotheses, numerical
blowups and iteration failures apart.
"""

__all__ = [
    "CmetricError",
    "ParseError",
    "DomainError",
    "StructuralError",
    "HypothesisError",
    "BoundednessError",
    "NumericError",
    "NonConvergenceError",
]


class CmetricError(Exception):
    """Base class for all errors raised by this package.

    ``trace`` holds the steps an iteration recorded before it failed, if any.
    """

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class ParseError(CmetricError, ValueError):
    """An input specification (JSON file, CLI payload) could not be parsed
    or validated against the expected schema."""


class DomainError(CmetricError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (point on or outside an open set, atanh argument at the singularity, ...)."""


class StructuralError(CmetricError, ValueError):
    """Malformed object: dimension mismatch, bad map composition, invalid
    field value in a constructor."""


class HypothesisError(CmetricError):
    """A hypothesis required by the underlying theory fails to hold
    (nesting, containment of images, witness bounds)."""


class BoundednessError(HypothesisError):
    """The inner domain is not boundedly nested: its diameter in the ambient
    metric is infinite, or so large that the contraction constant is
    indistinguishable from 1 at double precision."""


class NumericError(CmetricError, ArithmeticError):
    """A computation produced a non-finite intermediate value."""


class NonConvergenceError(CmetricError):
    """Fixed-point iteration exhausted its budget.

    Carries the recorded step trace for post-mortem inspection; hitting this
    error signals a violated hypothesis, since a valid contractive setup is
    guaranteed to converge.
    """
