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
The whole loop is one function, compiled for the problem on its first solve
from the charts' pulls (``Domain._emit``) and ``metric_core``'s membership test
and step, so problems of one shape share its code.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from .contraction import ContractionCertificate, _require_certificate, diameter
from .domains import (
    Domain,
    Point,
    PointLike,
    SampleStream,
    _instance,
    _map_chunks,
    _real,
    _sample_pairs,
    _sequence,
    _typed,
    as_point,
)
from .errors import (
    DomainError,
    HypothesisError,
    NonConvergenceError,
    NumericError,
    StructuralError,
)
from .holomaps import HoloMap, _map_between
from .metric_core import _bind, _const, _emit_inside, _emit_step, _function

__all__ = [
    "FixedPointProblem",
    "FixedPointResult",
    "required_iterations",
    "step_contraction_check",
    "solve",
    "uniqueness_probe",
]

# Extra steps granted beyond the theoretical count when max_iter is derived
# automatically; absorbs rounding in the stopping rule.
MAX_ITER_GUARD = 16


@dataclass(frozen=True)
class FixedPointProblem:
    """A contractive iteration setup.

    ``mapping`` must be a self-map of ``ambient`` whose image lies in
    ``inner``.  That holds by construction for ``random_selfmap(ambient, seed,
    bias)`` when ``inner`` contains ``bias * ambient``, the ambient chart A·Δⁿ + b
    scaled about its centre b to A·(bias·Δⁿ) + b; for any other map it is
    the caller's hypothesis, which :func:`solve` checks only at the iterates it
    visits.  ``tolerance`` is the target bound, in ambient-metric units, on the
    distance between the returned point and the true fixed point.
    ``max_iter=None`` derives the budget from the certificate: the theoretical
    step count plus a guard.
    """

    ambient: Domain
    inner: Domain
    mapping: HoloMap
    start: PointLike
    tolerance: float
    max_iter: int | None = None

    def __post_init__(self):
        _typed(self)
        _map_between(self.mapping, self.ambient.dim, self.ambient.dim, "FixedPointProblem.mapping")
        if self.inner.dim != self.ambient.dim:
            raise StructuralError("inner and ambient domains must share a dimension")
        if not self.tolerance > 0.0:
            raise StructuralError(f"tolerance must be > 0: {self.tolerance!r}")
        if self.max_iter is not None and self.max_iter < 1:
            raise StructuralError(f"max_iter must be >= 1: {self.max_iter!r}")
        object.__setattr__(self, "start", as_point(self.start, self.ambient.dim, what="start"))

    __reduce__ = Domain.__reduce__  # ``_solver`` is derived

    @functools.cached_property
    def _solver(self):
        """``(k, loop)``, derived on the first solve: the k of this nesting's closed-form
        certificate, and :func:`solve`'s whole iteration loop as one function.

        ``loop(x, m, k, factor, tol, max_iter, trace)`` iterates from ``x``, whose ambient
        model coordinates are ``m``, appends each step to ``trace`` and stops once
        ``step * factor <= tol``; ``max_iter=None`` derives the budget from the first step.
        It returns ``(None, y)`` at the stopping iterate ``y``, or the name of a failed
        test and the iterate ``x`` whose image failed it: ``"inner"`` when the map fails at
        ``x``, a test overflows, or ``f(x)`` is not inside ``inner`` (a non-finite image
        never is, since its pull is non-finite too), ``"ambient"`` when ``f(x)`` is not
        inside ``ambient``, and ``"budget"`` when ``len(trace)`` reaches the budget.

        Ambient model coordinates are carried as float pairs, the operands of
        ``metric_core._emit_step``; the map's compiled function and every constant are
        parameter defaults, so the source depends only on the dimension and the charts'
        shapes.  (One cached value, not two: a second would add ~400 bytes per problem.)
        """
        k = diameter(self.ambient, self.inner).k
        ys, ms, ns = ([f"{v}{i}" for i in range(self.ambient.dim)] for v in "ymn")
        olds, news = (", ".join(f"{z}r, {z}i" for z in names) for names in (ms, ns))
        consts = []
        body = [
            f" {', '.join(ms)}, = m\n {olds} = {', '.join(f'{z}.real, {z}.imag' for z in ms)}\n"
            " append = trace.append\n while True:\n"
        ]
        loop = len(body)
        body.append(" try:\n")
        tests = len(body)
        body.append(f" {', '.join(ys)}, = y = {_const(consts, self.mapping._fn)}(*x)\n")
        for name, domain in (("inner", self.inner), ("ambient", self.ambient)):
            pulled = [_bind(body, c) for c in domain._emit(ys, consts, body)]
            body.append(f" if not ({_emit_inside(pulled)}):\n  return {name!r}, x\n")
        body[tests:] = [textwrap.indent(line, " ") for line in body[tests:]]
        # ``pulled`` now names the new ambient model coordinates
        body.append(" except (ZeroDivisionError, OverflowError):\n  return 'inner', x\n"
                    f" {news} = {', '.join(f'{c}.real, {c}.imag' for c in pulled)}\n")
        body.append(_emit_step(ms, ns, consts))
        required, guard = _const(consts, required_iterations), _const(consts, MAX_ITER_GUARD)
        body.append(
            " append(step)\n"
            # theory fixes the count from the first step; the guard absorbs rounding
            " if max_iter is None:\n"
            f"  max_iter = {required}(k, step, tol) + {guard} if step > 0.0 else 1\n"
            " if step * factor <= tol:\n  break\n"
            " if len(trace) >= max_iter:\n  return 'budget', x\n"
            f" x = y\n {olds} = {news}\n"
        )
        body[loop:] = [textwrap.indent(line, " ") for line in body[loop:]]
        params = ["x", "m", "k", "factor", "tol", "max_iter", "trace"]
        return k, _function(params, consts, body, "None, y")


_problem = _instance(FixedPointProblem, "a FixedPointProblem")


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
    # in logs: tol * (1 - k) / d0 can underflow to 0 near the subnormal floor
    ratio = (math.log(tol) + math.log1p(-k) - math.log(d0)) / math.log(k)
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
    k = _require_certificate(diameter(ambient, inner).k, cert)
    mapping = _map_between(mapping, ambient.dim, ambient.dim, "mapping")

    def inside_images(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fxs = mapping.evaluate_many(xs)
        fys = mapping.evaluate_many(ys)
        for arr in (fxs, fys):
            ok = inner.contains_many(arr, 0.0)
            if not ok.all():
                i = int(np.argmin(ok))
                raise HypothesisError(
                    f"image point {tuple(arr[i].tolist())!r} escapes the inner domain; "
                    "the containment hypothesis fails"
                )
        return fxs, fys

    def part(chunk: SampleStream) -> float:
        xs, ys = _sample_pairs(ambient, chunk)
        # the images are freed before the second distance: a chunk holds less at a time
        gaps = ambient.caratheodory_many(*inside_images(xs, ys), first_row=chunk.start)
        gaps -= k * ambient.caratheodory_many(xs, ys, first_row=chunk.start)
        return float(gaps.max())

    mapping._fn  # compiled here, before any chunk runs on another thread
    return functools.reduce(max, _map_chunks(part, stream, ambient.dim), -math.inf)


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
    problem = _problem(problem, "problem")
    return _iterate(problem, _require_certificate(problem._solver[0], cert), problem.start)


def _iterate(problem: FixedPointProblem, k: float, x: Point) -> FixedPointResult:
    """:func:`solve` from the start ``x``, with the ``k`` of a certificate already checked."""
    ambient, f = problem.ambient, problem.mapping
    if not ambient.contains(x, 0.0):
        raise DomainError(f"start {x!r} is not inside the ambient domain")
    factor = k / (1.0 - k)
    tol = problem.tolerance
    trace: list[float] = []
    failed, x = problem._solver[1](
        x, ambient._pull_point(x), k, factor, tol, problem.max_iter, trace
    )
    if failed == "budget":  # the budget is first reached when len(trace) equals it
        raise NonConvergenceError(
            f"no convergence within {len(trace)} iterations "
            f"(last step {trace[-1]!r}, required bound {tol * (1.0 - k) / k if k else tol!r})",
            trace,
        )
    if failed is not None:  # a failed test at the image of x
        try:
            x_next = f._evaluate_point(x)  # raises the map's own error where it failed
        except NumericError as exc:
            raise NumericError(str(exc), trace) from None
        if failed == "inner":
            raise HypothesisError(
                f"iterate {x_next!r} left the inner domain at step {len(trace)}; "
                "the image containment hypothesis fails",
                trace,
            )
        # inner lies inside ambient, so only rounding can bring an iterate here
        raise DomainError(f"iterate {x_next!r} is not inside {ambient!r}")
    residual = ambient.caratheodory(x, f.evaluate(x))
    if residual > tol:
        raise HypothesisError(
            f"fixed-point residual {residual!r} exceeds the tolerance {tol!r}; "
            "the contraction hypothesis fails for this setup",
            trace,
        )
    n = len(trace)
    return FixedPointResult(
        point=x,
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
    problem = _problem(problem, "problem")
    k = _require_certificate(problem._solver[0], cert)
    starts = [
        as_point(s, problem.ambient.dim, what=f"starts[{i}]")
        for i, s in enumerate(_sequence(starts, "starts"))
    ]
    points = [_iterate(problem, k, s).point for s in starts]
    spread = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            spread = max(spread, problem.ambient.caratheodory(points[i], points[j]))
    return spread
