"""Contraction certificates for nested domains.

For an inner domain sitting strictly inside an ambient one, the diameter M of
the inner domain measured in the ambient Caratheodory metric is finite, and
k = tanh(M) < 1 improves the trivial comparison between the two metrics to

    c_ambient(x, y) <= k * c_inner(x, y)    for all x, y in the inner domain.

:func:`diameter` produces a certificate (M, k) either from a closed form
(every supported nesting) or from boundary-biased sampling;
:func:`verify_nesting` then checks the strengthened inequality and the
intermediate bound atanh(k * tanh(c_inner)) >= c_ambient pair by pair.
Only closed-form certificates certify: a sampled M under-estimates the sup,
so a sampled k could make the inequality fail spuriously.

:func:`witness_lower_bound` evaluates the rescaled-witness lower bound
atanh(|g(y)| / k) <= c_inner(x, y), where g is any holomorphic map of the
ambient domain into the unit disk normalized so that g(x) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .domains import (
    PRECOMPACT_MARGIN,
    Domain,
    Point,
    PointLike,
    SampleStream,
    _chunks,
    _polar,
    _real,
    _sample_pairs,
    _typed,
    as_point,
)
from .errors import (
    BoundednessError,
    DomainError,
    HypothesisError,
    StructuralError,
)
from .holomaps import HoloMap
from .metric_core import ATANH_GUARD, atanh_stable

__all__ = [
    "ContractionCertificate",
    "NestingReport",
    "diameter",
    "contraction_constant",
    "witness_lower_bound",
    "verify_nesting",
    "DIAMETER_CAP",
    "BOUNDARY_BIAS",
]

# Diameters beyond this are declared numerically unbounded: k = tanh(M) is
# then within 1e-17 of 1 and the strengthened inequality carries no content
# at double precision.
DIAMETER_CAP = 20.0

# Exponent biasing sampled pair moduli toward the rim (u -> u**(1/BIAS)); the
# sup of the distance is approached at antipodal near-boundary points, and
# uniform sampling converges far too slowly to the diameter.
BOUNDARY_BIAS = 2000.0


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ContractionCertificate:
    """Diameter M, contraction constant k = tanh(M), and their provenance.

    ``method`` is ``"closed_form"`` for exactly derived diameters (these are
    the only certifying ones) or ``"sampled"`` for sup-estimates from
    boundary-biased pairs; ``sample_count`` is 0 for closed forms.
    """

    M: float
    k: float
    method: str
    sample_count: int
    seed: int

    def __post_init__(self):
        _typed(self)
        if self.method not in ("closed_form", "sampled"):
            raise StructuralError(f"unknown certificate method: {self.method!r}")
        if not self.M >= 0.0:
            raise StructuralError(f"certificate diameter must be >= 0: {self.M!r}")
        if not 0.0 <= self.k < 1.0:
            raise StructuralError(f"contraction constant must lie in [0, 1): {self.k!r}")
        if abs(self.k - math.tanh(self.M)) > 1e-15:
            raise StructuralError(
                f"certificate is inconsistent: k={self.k!r} but tanh(M)={math.tanh(self.M)!r}"
            )
        if (self.method == "closed_form") != (self.sample_count == 0):
            raise StructuralError("sample_count must be 0 exactly for closed-form certificates")

    def to_json_dict(self) -> dict:
        """JSON form; reals as 17-significant-digit strings (bit-exact round trip)."""
        return {
            "M": _fmt17(self.M),
            "k": _fmt17(self.k),
            "method": self.method,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContractionCertificate":
        return cls(
            M=float(data["M"]),
            k=float(data["k"]),
            method=str(data["method"]),
            sample_count=int(data["sample_count"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class NestingReport:
    """Result of checking c_ambient <= k * c_inner over sampled pairs.

    ``max_violation`` is the largest value of both residuals
    ``c_ambient - k * c_inner`` and ``c_ambient - atanh(k * tanh(c_inner))``
    over all checked pairs (ties broken by first index); the theory predicts
    it is <= 0 up to rounding whenever k comes from a true (or over-)
    estimate of the diameter.  ``max_ratio`` records the observed sup of
    c_ambient / c_inner as an empirical sharpness indicator.
    """

    pairs_checked: int
    max_violation: float
    worst_pair: tuple[Point, Point]
    k_used: float
    max_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "max_violation": _fmt17(self.max_violation),
            "worst_pair": [_point_json(self.worst_pair[0]), _point_json(self.worst_pair[1])],
            "k_used": _fmt17(self.k_used),
            "max_ratio": None if math.isnan(self.max_ratio) else _fmt17(self.max_ratio),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NestingReport":
        ratio = data.get("max_ratio")
        return cls(
            pairs_checked=int(data["pairs_checked"]),
            max_violation=float(data["max_violation"]),
            worst_pair=(
                _point_from_json(data["worst_pair"][0]),
                _point_from_json(data["worst_pair"][1]),
            ),
            k_used=float(data["k_used"]),
            max_ratio=float("nan") if ratio is None else float(ratio),
        )


def _point_json(p: Point) -> list:
    return [[_fmt17(c.real), _fmt17(c.imag)] for c in p]


def _point_from_json(data) -> Point:
    return tuple(complex(float(re), float(im)) for re, im in data)


def contraction_constant(M: float) -> float:
    """tanh of a finite nonnegative diameter; lies in [0, 1), zero iff M = 0."""
    M = _real(M, "diameter", DomainError)
    if not M >= 0.0:
        raise DomainError(f"diameter must be finite and >= 0: {M!r}")
    return math.tanh(M)


# -- closed-form diameters ---------------------------------------------------


def _closed_form_tanh_diameter(ambient: Domain, inner: Domain, margin: float) -> float:
    """tanh(M) for the inner domain in the ambient metric, for any pair of charts.

    In ambient model coordinates the inner domain is T·Δⁿ + c with
    T = A_amb^-1 A_in and c = A_amb^-1 (b_in - b_amb).  The ambient distance
    is the coordinatewise maximum of Poincare distances and inner points vary
    independently, so M is the largest hyperbolic diameter of the coordinate
    projections: the disks of center c_i and radius R_i = sum_j |T_ij|.  Such
    a disk is a hyperbolic ball whose diameter is realized along the line
    through the origin, giving tanh(M_i) = 2 R_i / (1 - |c_i|^2 + R_i^2);
    concentric nesting reduces to tanh(2 atanh R_i), the double-angle identity.
    """
    transform, center = ambient._relative_chart(inner)
    coords = [(abs(c), sum(map(abs, row))) for c, row in zip(center.tolist(), transform.tolist())]
    reach = max(offset + radius for offset, radius in coords)
    if reach > 1.0:
        raise HypothesisError(
            f"inner domain is not contained in the ambient one (normalized reach {reach:.6g} > 1)"
        )
    if reach >= 1.0:
        raise BoundednessError(
            "inner domain touches the ambient boundary; its diameter is infinite"
        )
    if reach > 1.0 - margin:
        raise HypothesisError(
            f"inner domain is nested with margin {1.0 - reach:.3g}, below the "
            f"required precompactness margin {margin:.3g}"
        )
    return max(
        2.0 * radius / (1.0 - offset * offset + radius * radius) for offset, radius in coords
    )


# -- sampled diameters --------------------------------------------------------


def _boundary_biased_pairs(
    domain: Domain, stream: SampleStream
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Chunks of pairs with moduli biased toward (1 - margin) of the boundary.

    Draws are laid out one row per pair, so prefixes agree across counts and
    the running maximum of pair distances is reproducible and nondecreasing.
    Each chunk comes with the stream row of its first pair.
    """
    for chunk in _chunks(stream, 2 * domain.dim):
        model = _polar(chunk, domain.dim, 2, _rim_biased)
        yield chunk.start, domain._push(model[:, 0, :]), domain._push(model[:, 1, :])


def _rim_biased(u: np.ndarray) -> np.ndarray:
    return u ** (1.0 / BOUNDARY_BIAS)


def _sampled_diameter(
    ambient: Domain, inner: Domain, stream: SampleStream, margin: float
) -> float:
    """The largest ambient distance over the stream's boundary-biased inner pairs."""
    largest = -math.inf
    for first, xs, ys in _boundary_biased_pairs(inner, stream):
        try:
            distances = ambient._distances(xs, ys, ("inner samples",) * 2, margin, first)
        except DomainError as exc:
            raise HypothesisError(
                f"{exc} with margin {margin:g}; the nesting hypothesis fails"
            ) from exc
        largest = max(largest, float(distances.max()))
    return largest


def diameter(
    ambient: Domain,
    inner: Domain,
    stream: SampleStream | None = None,
    *,
    precompact_margin: float = PRECOMPACT_MARGIN,
) -> ContractionCertificate:
    """Diameter of ``inner`` in the ambient Caratheodory metric, as a certificate.

    With ``stream=None`` the exact closed form is used (every supported
    nesting); otherwise the maximum distance over ``stream.count``
    boundary-biased sampled pairs is reported with ``method="sampled"``.
    Sampled estimates approach the true diameter from below and never certify
    the nesting inequality.

    Raises :class:`HypothesisError` when the inner domain is not nested with
    at least ``precompact_margin``, and :class:`BoundednessError` when the
    diameter is infinite, exceeds ``DIAMETER_CAP``, or is so large that tanh(M)
    rounds to 1.
    """
    if ambient.dim != inner.dim:
        raise StructuralError(
            f"dimension mismatch: ambient has {ambient.dim}, inner has {inner.dim}"
        )
    if stream is None:
        q = _closed_form_tanh_diameter(ambient, inner, precompact_margin)
        if q >= 1.0 - ATANH_GUARD:
            raise BoundednessError(
                "contraction constant is indistinguishable from 1 at double precision"
            )
        M = atanh_stable(q)
        method, count, seed = "closed_form", 0, 0
    else:
        M = _sampled_diameter(ambient, inner, stream, precompact_margin)
        method, count, seed = "sampled", stream.count, stream.seed
    if M > DIAMETER_CAP:
        raise BoundednessError(
            f"diameter {M:.6g} exceeds the boundedness cap {DIAMETER_CAP:g}; the nesting is "
            "numerically unbounded"
        )
    k = math.tanh(M)
    if k >= 1.0:
        raise BoundednessError(
            "contraction constant is indistinguishable from 1 at double precision"
        )
    return ContractionCertificate(M=M, k=k, method=method, sample_count=count, seed=seed)


def _require_certificate(own_k: float, cert: ContractionCertificate | None) -> float:
    """``cert.k``, or for ``None`` the k of the nesting's own closed-form certificate.

    Raises :class:`HypothesisError` unless ``cert`` is closed-form with a k no
    smaller than the nesting's own: a smaller k would blame a correct nesting.
    """
    if cert is None:
        return own_k
    if cert.method != "closed_form" or cert.k < own_k:
        raise HypothesisError(
            f"the {cert.method} certificate with k={cert.k!r} does not certify this "
            f"nesting, whose closed-form contraction constant is k={own_k!r}"
        )
    return cert.k


# -- the witness lower bound ---------------------------------------------------


def witness_lower_bound(f: HoloMap, x: PointLike, y: PointLike, k: float) -> float:
    """Lower bound atanh(|g(y)| / k) for the inner-domain distance c(x, y).

    ``f`` is a holomorphic map of the ambient domain into the unit disk; it is
    normalized to vanish at ``x`` by post-composing with the Mobius centering
    at f(x).  A valid certificate constant k bounds |g(y)| for every such
    witness; a larger value indicates a bad certificate and raises
    :class:`HypothesisError`.
    """
    k = _real(k, "contraction constant", DomainError)
    if not 0.0 < k < 1.0:
        raise DomainError(f"contraction constant must lie in (0, 1): {k!r}")
    if f.out_dim != 1:
        raise StructuralError("witness maps must take values in the unit disk (out_dim 1)")
    fx = f.evaluate(as_point(x, f.in_dim, what="x"))[0]
    fy = f.evaluate(as_point(y, f.in_dim, what="y"))[0]
    for name, img in (("x", fx), ("y", fy)):
        if abs(img) >= 1.0:
            raise HypothesisError(
                f"witness map leaves the unit disk at {name}: |f({name})| = {abs(img)!r}"
            )
    t = abs((fy - fx) / (1.0 - fx.conjugate() * fy))
    if t > k:
        raise HypothesisError(
            f"witness value {t!r} exceeds the certificate constant k={k!r}; "
            "the certificate does not bound this configuration"
        )
    return atanh_stable(t / k)


# -- verification ----------------------------------------------------------------


def verify_nesting(
    ambient: Domain,
    inner: Domain,
    cert: ContractionCertificate,
    stream: SampleStream,
) -> NestingReport:
    """Check the strengthened inequality pair by pair over sampled points.

    For every sampled pair (x, y) in the inner domain this evaluates both
    residuals ``c_ambient - k * c_inner`` and
    ``c_ambient - atanh(k * tanh(c_inner))`` and reports the maximum over all
    pairs and both forms, together with the worst pair (first index wins on
    ties).  Pairs are drawn and reduced in fixed-size chunks of the stream, in
    stream order, so memory stays bounded whatever the pair count and the
    report equals that of one pass over all pairs.  ``cert`` must certify
    this nesting: closed-form, with a k no smaller than the nesting's own; a
    smaller k would produce false violations.
    """
    k = _require_certificate(diameter(ambient, inner).k, cert)
    max_violation, worst_pair, max_ratio = -math.inf, None, -math.inf
    for first, xs, ys in _sample_pairs(inner, stream):
        c_ambient = ambient.caratheodory_many(xs, ys, first_row=first)
        c_inner = inner.caratheodory_many(xs, ys, first_row=first)
        linear = c_ambient - k * c_inner
        chained = c_ambient - np.arctanh(k * np.tanh(c_inner))
        per_pair = np.maximum(linear, chained)
        worst = int(np.argmax(per_pair))
        if worst_pair is None or per_pair[worst] > max_violation:
            max_violation = float(per_pair[worst])
            worst_pair = (tuple(xs[worst].tolist()), tuple(ys[worst].tolist()))
        positive = c_inner > 0.0
        if positive.any():
            max_ratio = max(max_ratio, float((c_ambient[positive] / c_inner[positive]).max()))
    return NestingReport(
        pairs_checked=stream.count,
        max_violation=max_violation,
        worst_pair=worst_pair,
        k_used=k,
        max_ratio=max_ratio if max_ratio > -math.inf else float("nan"),
    )
