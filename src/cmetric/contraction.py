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

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (
    PRECOMPACT_MARGIN,
    Domain,
    Point,
    PointLike,
    SampleStream,
    _instance,
    _integer,
    _many,
    _map_chunks,
    _margin,
    _polar,
    _READERS,
    _real,
    _sample_pairs,
    _typed,
    as_point,
)
from .errors import BoundednessError, DomainError, HypothesisError, StructuralError
from .holomaps import HoloMap, _map_between
from .metric_core import _ATANH_CEILING, _inside, atanh_stable, pseudo_hyperbolic

__all__ = [
    "ContractionCertificate",
    "NestingReport",
    "diameter",
    "contraction_constant",
    "witness_lower_bound",
    "verify_nesting",
]

# Exponent biasing sampled pair moduli toward the rim (u -> u**(1/BIAS)); the
# sup of the distance is approached at antipodal near-boundary points, and
# uniform sampling converges far too slowly to the diameter.
BOUNDARY_BIAS = 2000.0


def _json(value):
    """A field's JSON form: reals as 17-significant-digit text, NaN as null, complex as [re, im]."""
    if isinstance(value, float):
        return None if math.isnan(value) else format(value, ".17g")
    if isinstance(value, complex):
        return [_json(value.real), _json(value.imag)]
    return [_json(v) for v in value] if isinstance(value, tuple) else value


def _real_from_text(value, what: str, nonfinite=StructuralError) -> float:
    try:
        if type(value) is str:
            return _real(float(value), what)
    except ValueError:  # a StructuralError too
        pass
    raise StructuralError(f"{what} must be a finite real number written as text: {value!r}")


def _pair_from_json(value, what: str) -> tuple[Point, Point]:
    pair = _many(_many(_many(_real_from_text)))(value, what)
    if len(pair) != 2 or len(pair[0]) != len(pair[1]) or {len(c) for p in pair for c in p} != {2}:
        raise StructuralError(f"{what} must be two points of one dimension: {value!r}")
    return tuple(tuple(complex(*c) for c in p) for p in pair)


_DECODERS = {  # a field's "json" metadata, else its annotation -> reader of its JSON form
    "int": _integer,
    "str": lambda value, what: value,  # the constructor checks ``method``
    "float": _real_from_text,
    "float | null": lambda value, what: math.nan if value is None else _real_from_text(value, what),
    "tuple[Point, Point]": _pair_from_json,
}


class _JsonForm:
    """The JSON form of a certificate or report: its fields as ``_json`` writes them."""

    def to_json_dict(self) -> dict:
        """JSON form; reals as 17-significant-digit strings (bit-exact round trip)."""
        return {f.name: _json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict):
        """The value whose JSON form is ``data``; StructuralError for any other form."""
        fields = dataclasses.fields(cls)
        try:
            raw = [data[f.name] for f in fields]
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"not a {cls.__name__} JSON object: {exc!r}") from None
        return cls(*[_DECODERS[f.metadata.get("json", f.type)](v, f"{cls.__name__}.{f.name}")
                     for f, v in zip(fields, raw)])


@dataclass(frozen=True)
class ContractionCertificate(_JsonForm):
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


@dataclass(frozen=True)
class NestingReport(_JsonForm):
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
    max_ratio: float = field(metadata={"json": "float | null"})  # NaN if no c_inner > 0


def contraction_constant(M: float) -> float:
    """tanh of a finite nonnegative diameter; lies in [0, 1), zero iff M = 0.  Raises
    :class:`BoundednessError` where tanh(M) rounds to 1 (M above about 19.06)."""
    M = _real(M, "diameter", DomainError)
    if not M >= 0.0:
        raise DomainError(f"diameter must be finite and >= 0: {M!r}")
    if (k := math.tanh(M)) == 1.0:
        raise BoundednessError(f"contraction constant tanh({M!r}) is indistinguishable from 1")
    return k


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


def _rim_biased(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.power(u, 1.0 / BOUNDARY_BIAS, out=out)


def _sampled_diameter(
    ambient: Domain, inner: Domain, stream: SampleStream, margin: float
) -> float:
    """The largest ambient distance over the stream's pairs of inner points.

    Each row draws one pair, with moduli biased toward (1 - margin) of the boundary, so
    prefixes agree across counts and the running maximum is reproducible and nondecreasing.
    """

    def part(chunk: SampleStream) -> float:
        model = _polar(chunk, inner.dim, 2, _rim_biased)
        xs, ys = inner._push(model[:, 0, :]), inner._push(model[:, 1, :])
        try:
            distances = ambient._distances(xs, ys, ("inner samples",) * 2, margin, chunk.start)
        except DomainError as exc:
            raise HypothesisError(
                f"{exc} with margin {margin:g}; the nesting hypothesis fails"
            ) from exc
        return float(distances.max())

    return functools.reduce(max, _map_chunks(part, stream, 2 * inner.dim), -math.inf)


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
    diameter is infinite or k is within ``ATANH_GUARD`` of 1; every M comes
    from a quotient below ``1 - ATANH_GUARD``, so M < 17.6 and tanh(M) < 1.
    """
    precompact_margin = _margin(precompact_margin, "precompact_margin")
    ambient, inner = _READERS["Domain"](ambient, "ambient"), _READERS["Domain"](inner, "inner")
    if ambient.dim != inner.dim:
        raise StructuralError(
            f"dimension mismatch: ambient has {ambient.dim}, inner has {inner.dim}"
        )
    if stream is None:
        q = _closed_form_tanh_diameter(ambient, inner, precompact_margin)
        if q >= _ATANH_CEILING:
            raise BoundednessError(
                "contraction constant is indistinguishable from 1 at double precision"
            )
        M = atanh_stable(q)
        method, count, seed = "closed_form", 0, 0
    else:
        M = _sampled_diameter(ambient, inner, stream, precompact_margin)
        method, count, seed = "sampled", stream.count, stream.seed
    return ContractionCertificate(M=M, k=math.tanh(M), method=method, sample_count=count, seed=seed)


_certificate = _instance(ContractionCertificate, "a ContractionCertificate")


def _require_certificate(own_k: float, cert: ContractionCertificate | None) -> float:
    """``cert.k``, or for ``None`` the k of the nesting's own closed-form certificate.

    Raises :class:`HypothesisError` unless ``cert`` is closed-form with a k no
    smaller than the nesting's own: a smaller k would blame a correct nesting.
    """
    if cert is None:
        return own_k
    cert = _certificate(cert, "cert")
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
    f = _map_between(f, None, 1, "f")
    fx = f.evaluate(as_point(x, f.in_dim, what="x"))[0]
    fy = f.evaluate(as_point(y, f.in_dim, what="y"))[0]
    for name, img in (("x", fx), ("y", fy)):
        if not _inside((img,), 1.0):
            raise HypothesisError(f"witness map leaves the unit disk: f({name}) = {img!r}")
    t = pseudo_hyperbolic(fy, fx)
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
    ties).  Pairs are drawn and reduced in fixed-size chunks of the stream, up
    to two at a time on threads, and combined in stream order, so memory stays
    bounded whatever the pair count and the report equals that of one pass
    over all pairs.  ``cert`` must certify
    this nesting: closed-form, with a k no smaller than the nesting's own; a
    smaller k would produce false violations.
    """
    k = _require_certificate(diameter(ambient, inner).k, cert)

    def part(chunk: SampleStream) -> tuple[float, tuple[Point, Point], float]:
        """The chunk's largest residual, its first pair with it, and its largest ratio."""
        xs, ys = _sample_pairs(inner, chunk)
        c_ambient = ambient.caratheodory_many(xs, ys, first_row=chunk.start)
        c_inner = inner.caratheodory_many(xs, ys, first_row=chunk.start)
        per_pair = np.multiply(k, c_inner)  # c_ambient - k * c_inner
        np.subtract(c_ambient, per_pair, out=per_pair)
        chained = np.tanh(c_inner)  # c_ambient - atanh(k * tanh(c_inner))
        np.multiply(k, chained, out=chained)
        np.arctanh(chained, out=chained)
        np.subtract(c_ambient, chained, out=chained)
        np.maximum(per_pair, chained, out=per_pair)
        worst = int(np.argmax(per_pair))
        positive = c_inner > 0.0
        ratios = np.divide(c_ambient, c_inner, out=chained, where=positive)
        return (
            float(per_pair[worst]),
            (tuple(xs[worst].tolist()), tuple(ys[worst].tolist())),
            float(np.max(ratios, where=positive, initial=-math.inf)),
        )

    max_violation, worst_pair, max_ratio = -math.inf, None, -math.inf
    for violation, pair, ratio in _map_chunks(part, stream, inner.dim):
        if worst_pair is None or violation > max_violation:
            max_violation, worst_pair = violation, pair
        max_ratio = max(max_ratio, ratio)
    return NestingReport(
        pairs_checked=stream.count,
        max_violation=max_violation,
        worst_pair=worst_pair,
        k_used=k,
        max_ratio=max_ratio if max_ratio > -math.inf else float("nan"),
    )
