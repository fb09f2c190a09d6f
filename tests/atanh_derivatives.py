"""The first two derivatives of atanh, the analytic side of the derivative checks.

Only tests use them: the convexity they show (a positive second derivative on
(0, 1)) is what ``convexity_margin`` relies on.
"""

from cmetric.errors import DomainError
from cmetric.metric_core import _real


def atanh_derivative(x: float) -> float:
    """First derivative of atanh: 1 / (1 - x^2), for x in [0, 1)."""
    x = _real(x, "atanh derivative argument", DomainError)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"derivative of atanh evaluated outside [0, 1): {x!r}")
    return 1.0 / (1.0 - x * x)


def atanh_second_derivative(x: float) -> float:
    """Second derivative of atanh: 2x / (1 - x^2)^2, for x in (0, 1)."""
    x = _real(x, "atanh second derivative argument", DomainError)
    if not 0.0 < x < 1.0:
        raise DomainError(f"second derivative of atanh evaluated outside (0, 1): {x!r}")
    u = 1.0 - x * x
    return 2.0 * x / (u * u)
