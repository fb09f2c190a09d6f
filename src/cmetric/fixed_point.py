"""Certified fixed-point iteration for contractive holomorphic self-maps.

A holomorphic self-map of a domain whose image sits strictly inside a nested
inner domain contracts the ambient Caratheodory distance by the certificate
constant k < 1 on every step.  Iterating therefore converges geometrically to
the unique fixed point, and the recorded step sizes yield certified error
bounds: after stopping, the returned point is within
``last_step * k / (1 - k)`` of the true fixed point (a posteriori), and
within ``k^n * d0 / (1 - k)`` after n steps from the start (a priori).

A certificate is derived from the problem's own nesting, or checked against
it: it must not undercut that nesting's closed-form k.  Distances are measured
in the ambient metric, which is the metric the contraction statement lives in.
The loop carries the ambient model coordinates of its iterate: each new
iterate is pulled once through the inner chart, for the containment
hypothesis, and once through the ambient chart, for the step distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .contraction import ContractionCertificate, _require_certificate, diameter
from .domains import (
    Domain,
    Point,
    PointLike,
    SampleStream,
    _inside,
    _model_distance,
    _real,
    _sample_pairs,
    _typed,
    as_point,
)
from .errors import (
    DomainError,
    HypothesisError,
    NonConvergenceError,
    StructuralError,
)
from .holomaps import HoloMap

__all__ = [
    "FixedPointProblem",
    "FixedPointResult",
    "required_iterations",
    "step_contraction_check",
    "solve",
    "uniqueness_probe",
    "MAX_ITER_GUARD",
]

# Extra steps granted beyond the theoretical count when max_iter is derived
# automatically; absorbs rounding in the stopping rule.
MAX_ITER_GUARD = 16


@dataclass(frozen=True)
class FixedPointProblem:
    """A contractive iteration setup.

    ``mapping`` must be a self-map of ``ambient`` whose image lies in
    ``inner`` (guaranteed by construction for generated maps); ``tolerance``
    is the target bound, in ambient-metric units, on the distance between the
    returned point and the true fixed point.  ``max_iter=None`` derives the
    budget from the certificate: the theoretical step count plus a guard.
    """

    ambient: Domain
    inner: Domain
    mapping: HoloMap
    start: PointLike
    tolerance: float
    max_iter: int | None = None

    def __post_init__(self):
        _typed(self)
        if self.mapping.in_dim != self.ambient.dim or self.mapping.out_dim != self.ambient.dim:
            raise StructuralError(
                f"mapping must be a self-map of the ambient domain (dimension {self.ambient.dim})"
            )
        if self.inner.dim != self.ambient.dim:
            raise StructuralError("inner and ambient domains must share a dimension")
        if not self.tolerance > 0.0:
            raise StructuralError(f"tolerance must be > 0: {self.tolerance!r}")
        if self.max_iter is not None and self.max_iter < 1:
            raise StructuralError(f"max_iter must be >= 1: {self.max_iter!r}")
        object.__setattr__(self, "start", as_point(self.start, self.ambient.dim, what="start"))

    # the k of this nesting's closed-form certificate, derived on the first solve
    _own_k = functools.cached_property(lambda self: diameter(self.ambient, self.inner).k)


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a converged iteration.

    ``point`` is the final iterate (never an extrapolation, so every reported
    bound follows from recorded quantities).  ``trace[n]`` is the ambient
    distance between iterates n and n+1; ``iterations == len(trace)`` is the
    number of map applications performed.  ``certified_bound`` bounds the
    ambient distance from ``point`` to the true fixed point.
    """

    point: Point
    iterations: int
    last_step: float
    certified_bound: float
    apriori_bound: float
    k_used: float
    trace: tuple[float, ...]


def required_iterations(k: float, d0: float, tol: float) -> int:
    """Smallest n with k^n * d0 / (1 - k) <= tol.

    Returns 0 when the bound already holds with no step; k = 0 returns 1
    (a single step lands exactly on the fixed point in the degenerate case).
    """
    k = _real(k, "contraction constant", DomainError)
    d0 = _real(d0, "initial step", DomainError)
    tol = _real(tol, "tolerance", DomainError)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"contraction constant must lie in [0, 1): {k!r}")
    if not d0 > 0.0:
        raise DomainError(f"initial step must be finite and > 0: {d0!r}")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be > 0: {tol!r}")
    if tol * (1.0 - k) >= d0:
        return 0
    if k == 0.0:
        return 1
    ratio = math.log(tol * (1.0 - k) / d0) / math.log(k)
    # back off one ulp-scale before ceiling so exact powers don't round up
    return max(0, math.ceil(ratio - 1e-12))


def step_contraction_check(
    mapping: HoloMap,
    ambient: Domain,
    inner: Domain,
    cert: ContractionCertificate | None,
    stream: SampleStream,
) -> float:
    """Max over sampled pairs of c(f(x), f(y)) - k * c(x, y) in the ambient metric.

    Nonpositive up to rounding for a valid setup.  ``cert`` is handled as in
    :func:`solve`; it and image points leaving ``inner`` raise :class:`HypothesisError`.
    """
    if mapping.in_dim != ambient.dim or mapping.out_dim != ambient.dim:
        raise StructuralError("contraction check needs a self-map of the ambient domain")
    k = _require_certificate(diameter(ambient, inner).k, cert)
    largest = -math.inf
    for first, xs, ys in _sample_pairs(ambient, stream):
        fxs = mapping.evaluate_many(xs)
        fys = mapping.evaluate_many(ys)
        for arr in (fxs, fys):
            ok = inner.contains_many(arr, 0.0)
            if not ok.all():
                i = int(np.argmin(ok))
                raise HypothesisError(
                    f"image point {tuple(arr[i])!r} escapes the inner domain; "
                    "the containment hypothesis fails"
                )
        images = ambient.caratheodory_many(fxs, fys, first_row=first)
        gaps = images - k * ambient.caratheodory_many(xs, ys, first_row=first)
        largest = max(largest, float(gaps.max()))
    return largest


def solve(
    problem: FixedPointProblem, cert: ContractionCertificate | None = None
) -> FixedPointResult:
    """Iterate to the unique fixed point with certified error control.

    Stops once ``step * k / (1 - k) <= tolerance`` (the a posteriori tail
    bound of the geometric series) and returns the next iterate.  ``None``
    uses the closed-form certificate of the problem's own nesting, derived on
    its first solve; a ``cert`` passed in must be closed-form with a k no
    smaller than that one's.
    Raises :class:`NonConvergenceError` when the budget runs out, and
    :class:`HypothesisError` when a hypothesis fails, each with the trace so far.
    """
    return _iterate(problem, _require_certificate(problem._own_k, cert))


def _iterate(problem: FixedPointProblem, k: float) -> FixedPointResult:
    """:func:`solve` with the contraction constant ``k`` of a certificate already checked."""
    ambient, inner, f = problem.ambient, problem.inner, problem.mapping
    x = problem.start
    if not ambient.contains(x, 0.0):
        raise DomainError(f"start {x!r} is not inside the ambient domain")
    factor = k / (1.0 - k)
    tol = problem.tolerance
    trace: list[float] = []
    max_iter = problem.max_iter
    mx = ambient._pull_point(x)  # the ambient model coordinates of the iterate
    while True:
        x_next = f._evaluate_point(x)
        if not _inside(inner._pull_point(x_next), 1.0):
            raise HypothesisError(
                f"iterate {x_next!r} left the inner domain at step {len(trace)}; "
                "the image containment hypothesis fails",
                trace,
            )
        my = ambient._pull_point(x_next)
        if not _inside(my, 1.0):  # inner lies inside ambient, up to rounding
            raise DomainError(f"iterate {x_next!r} is not inside {ambient!r}")
        step = _model_distance(mx, my)
        trace.append(step)
        if max_iter is None:
            # theory fixes the count from the first step; the guard absorbs rounding
            max_iter = required_iterations(k, step, tol) + MAX_ITER_GUARD if step > 0.0 else 1
        if step * factor <= tol:
            break
        if len(trace) >= max_iter:
            raise NonConvergenceError(
                f"no convergence within {max_iter} iterations "
                f"(last step {step!r}, required bound {tol * (1.0 - k) / k if k else tol!r})",
                trace,
            )
        x, mx = x_next, my
    residual = ambient.caratheodory(x_next, f.evaluate(x_next))
    if residual > tol:
        raise HypothesisError(
            f"fixed-point residual {residual!r} exceeds the tolerance {tol!r}; "
            "the contraction hypothesis fails for this setup",
            trace,
        )
    n = len(trace)
    return FixedPointResult(
        point=x_next,
        iterations=n,
        last_step=trace[-1],
        certified_bound=trace[-1] * factor,
        apriori_bound=k**n * trace[0] / (1.0 - k),
        k_used=k,
        trace=tuple(trace),
    )


def uniqueness_probe(
    problem: FixedPointProblem,
    cert: ContractionCertificate | None,
    starts,
) -> float:
    """Max pairwise ambient distance between fixed points from several starts.

    All starts must converge to the same point up to the certified slack
    (2 * tolerance * k / (1 - k) plus rounding); a single start returns 0.
    ``cert`` is derived from or checked against the problem's own nesting, as in :func:`solve`,
    once for all starts.
    """
    k = _require_certificate(problem._own_k, cert)
    points = [_iterate(replace(problem, start=s), k).point for s in starts]
    spread = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            spread = max(spread, problem.ambient.caratheodory(points[i], points[j]))
    return spread
