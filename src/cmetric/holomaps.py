"""Structural representation of holomorphic maps between domains.

Maps are closed syntax trees over a fixed constructor set (Mobius transforms,
per-coordinate polynomials, affine maps, diagonal products, compositions,
positive scalar scalings).  Every constructor produces a holomorphic map by
construction, so holomorphy is a structural guarantee of the value rather
than a runtime property to be checked.  Map values are immutable and
evaluation is pure.

Each node states its formula once, as source, in ``_emit``; a map's first evaluation
compiles its tree into one function of the coordinates: Python ``complex`` numbers from
:meth:`HoloMap.evaluate`, or the 1-d columns of an (n, dim) array from
:meth:`HoloMap.evaluate_many` (the sampling-based checks).  Python arithmetic works on both.
"""

from __future__ import annotations

import abc
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    Domain,
    Point,
    PointLike,
    SampleStream,
    as_point,
    _full,
    _instance,
    _many,
    _map_chunks,
    _points_array,
    _READERS,
    _real,
    _seed,
    _typed,
)
from .errors import DomainError, NumericError, StructuralError
from .metric_core import _bind, _const, _function, _inside, poincare_distance

__all__ = [
    "HoloMap",
    "Identity",
    "Mobius",
    "Polynomial",
    "Affine",
    "DiagonalProduct",
    "Compose",
    "ScalarScale",
    "ImageBoundReport",
    "schwarz_pick_gap",
    "image_bound",
    "random_selfmap",
]

# Coefficient lists beyond this degree are rejected: high-degree monomials are
# badly conditioned near the disk boundary.
MAX_POLY_DEGREE = 16


class HoloMap(abc.ABC):
    """A holomorphic map C^in_dim -> C^out_dim, represented structurally."""

    #: Dimensions of the source and target spaces, stored at construction.
    in_dim: int
    out_dim: int

    _nonfinite = StructuralError  # raised by the field readers for a non-finite number

    def __post_init__(self):
        _typed(self, self._nonfinite)
        self._check()
        in_dim, out_dim = self._dims()
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)

    def _check(self) -> None:
        """Raise StructuralError unless the typed fields lie in their ranges and shapes."""

    @abc.abstractmethod
    def _dims(self) -> tuple[int, int]:
        """(in_dim, out_dim) from the fields and the children's stored dimensions."""

    def evaluate(self, p: PointLike) -> Point:
        """Evaluate at a single point; raises NumericError on non-finite output, and
        StructuralError, as :meth:`evaluate_many` does, for a tree nested past the stack."""
        return self._evaluate_point(as_point(p, self.in_dim))

    def _evaluate_point(self, pt: Point) -> Point:
        """:meth:`evaluate` at a point ``as_point`` has already read."""
        try:
            out = self._fn(*pt)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericError(f"{type(self).__name__} node blew up at {pt!r}: {exc}") from None
        for c in out:
            if not cmath.isfinite(c):
                raise NumericError(
                    f"non-finite value produced by {type(self).__name__} node at {pt!r}"
                )
        return out

    def evaluate_many(self, pts) -> np.ndarray:
        """Evaluate over an (n, in_dim) array, returning (n, out_dim)."""
        arr = _points_array(pts, self.in_dim, "points")
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cols = self._fn(*arr.T)
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericError(f"{type(self).__name__} node blew up: {exc}") from None
        out = np.empty((arr.shape[0], self.out_dim), dtype=complex)  # after the temporaries
        for j, col in enumerate(cols):
            out[:, j] = col  # a constant output broadcasts down its column
        if not np.isfinite(out.view(float)).all():
            raise NumericError(f"non-finite value produced by {type(self).__name__} node")
        return out

    __call__ = evaluate

    @functools.cached_property
    def _fn(self):
        """The map as one function, its constants bound as parameter defaults, not as
        text: the function refers to no map, and maps of equal source share code."""
        ins, consts, body = [f"z{i}" for i in range(self.in_dim)], [], []
        try:
            outs = self._emit(ins, consts, body)
        except RecursionError:  # the one walk of the tree, besides repr, ==, hash and pickle
            raise StructuralError(f"{type(self).__name__} map is nested too deeply") from None
        return _function(ins, consts, body, f"({', '.join(outs)},)")

    __reduce__ = Domain.__reduce__  # ``_fn`` and the dimensions are derived

    @abc.abstractmethod
    def _emit(self, ins: list[str], consts: list, body: list[str]) -> list[str]:
        """Source of each output from the input names, naming constants by ``_const``
        and binding locals (statements in ``body``) by ``_bind``."""


_READERS["HoloMap"] = _instance(HoloMap, "a map")
_READERS["tuple[HoloMap, ...]"] = _many(_READERS["HoloMap"])


def _map_between(f, in_dim: int | None, out_dim: int, what: str) -> HoloMap:
    """``f`` read as a map from C^in_dim (from any dimension for ``None``) to C^out_dim."""
    f = _READERS["HoloMap"](f, what)
    if f.out_dim != out_dim or in_dim not in (None, f.in_dim):
        raise StructuralError(
            f"{what} must map dimension {in_dim or 'n'} to {out_dim}, not {f.in_dim} to {f.out_dim}"
        )
    return f


@dataclass(frozen=True)
class Identity(HoloMap):
    """z -> z in the given dimension."""

    dim: int = 1

    def _check(self):
        if self.dim < 1:
            raise StructuralError(f"identity dimension must be >= 1: {self.dim!r}")

    def _dims(self):
        return self.dim, self.dim

    def _emit(self, ins, consts, body):
        return ins


@dataclass(frozen=True)
class Mobius(HoloMap):
    """Disk automorphism z -> (z - a) / (1 - conj(a) z), with |a| < 1."""

    a: complex

    _nonfinite = DomainError  # a non-finite parameter is outside the disk too

    def _check(self):
        if not _inside((self.a,), 1.0):
            raise DomainError(f"Mobius parameter must lie strictly inside the unit disk: {self.a!r}")

    def _dims(self):
        return 1, 1

    def _emit(self, ins, consts, body):
        (z,) = ins
        a, conj_a = _const(consts, self.a), _const(consts, self.a.conjugate())
        return [f"({z} - {a}) / (1.0 - {conj_a} * {z})"]


@dataclass(frozen=True)
class Polynomial(HoloMap):
    """Per-coordinate univariate polynomials.

    ``coeffs[i]`` lists the coefficients of output coordinate i in ascending
    powers of input coordinate i; the map acts diagonally.
    """

    coeffs: tuple[tuple[complex, ...], ...]

    def _check(self):
        if not self.coeffs or not all(self.coeffs):
            raise StructuralError("polynomial needs at least one coefficient per coordinate")
        for row in self.coeffs:
            if len(row) - 1 > MAX_POLY_DEGREE:
                raise StructuralError(
                    f"polynomial degree {len(row) - 1} exceeds the cap {MAX_POLY_DEGREE}"
                )

    def _dims(self):
        return len(self.coeffs), len(self.coeffs)

    def _emit(self, ins, consts, body):
        out = []
        for z, row in zip(ins, self.coeffs):
            acc = _const(consts, row[-1])  # Horner: the leading coefficient, then high to low power
            for c in row[-2::-1]:
                acc = f"({acc} * {z} + {_const(consts, c)})"
            out.append(acc)
        return out


@dataclass(frozen=True)
class Affine(HoloMap):
    """z -> A z + b for a complex matrix A (rows) and offset b."""

    matrix: tuple[tuple[complex, ...], ...]
    offset: tuple[complex, ...]

    def _check(self):
        rows = self.matrix
        if not rows or len(rows) != len(self.offset):
            raise StructuralError("affine map: offset length must equal the matrix row count")
        if not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise StructuralError("affine map: matrix rows must share a positive width")

    def _dims(self):
        return len(self.matrix[0]), len(self.offset)

    def _emit(self, ins, consts, body):
        return [
            f"sum([{', '.join(f'{_const(consts, a)} * {z}' for a, z in zip(row, ins))}])"
            f" + {_const(consts, b)}"
            for row, b in zip(self.matrix, self.offset)
        ]


@dataclass(frozen=True)
class DiagonalProduct(HoloMap):
    """(z_1, ..., z_n) -> (f_1(z_1), ..., f_n(z_n)) for 1-dim factors."""

    factors: tuple[HoloMap, ...]

    def _check(self):
        if not self.factors:
            raise StructuralError("diagonal product needs at least one factor")
        for f in self.factors:
            _map_between(f, 1, 1, "DiagonalProduct.factors")

    def _dims(self):
        return len(self.factors), len(self.factors)

    def _emit(self, ins, consts, body):
        return [_bind(body, f._emit([z], consts, body)[0]) for f, z in zip(self.factors, ins)]


@dataclass(frozen=True)
class Compose(HoloMap):
    """outer after inner: p -> outer(inner(p))."""

    outer: HoloMap
    inner: HoloMap

    def _check(self):
        if self.inner.out_dim != self.outer.in_dim:
            raise StructuralError(
                f"cannot compose: inner produces dimension {self.inner.out_dim}, "
                f"outer consumes {self.outer.in_dim}"
            )

    def _dims(self):
        return self.inner.in_dim, self.outer.out_dim

    def _emit(self, ins, consts, body):
        mid = [_bind(body, e) for e in self.inner._emit(ins, consts, body)]
        out = [_bind(body, e) for e in self.outer._emit(mid, consts, body)]
        # free the arrays only the outer read (``ins`` belong to the caller, ``out`` go to it)
        body.extend(f" del {v}\n" for v in mid if v[0] == "v" and v not in ins + out)
        return out


@dataclass(frozen=True)
class ScalarScale(HoloMap):
    """z -> factor * z coordinatewise, for a real factor > 0."""

    factor: float
    dim: int = 1

    def _check(self):
        if not self.factor > 0.0:
            raise StructuralError(f"scale factor must be > 0: {self.factor!r}")
        if self.dim < 1:
            raise StructuralError(f"scale dimension must be >= 1: {self.dim!r}")

    def _dims(self):
        return self.dim, self.dim

    def _emit(self, ins, consts, body):
        factor = _const(consts, self.factor)
        return [f"{factor} * {z}" for z in ins]


@dataclass(frozen=True)
class ImageBoundReport:
    """Sampling estimate of how deep a map's image sits inside a target.

    ``sup_modulus_estimate`` is the max boundary proximity of the image over
    exactly ``sample_count`` evaluated points (an under-estimate of the true
    sup), and ``margin_to_target = 1 - sup_modulus_estimate``.  A positive
    margin is evidence, not proof, that the image is relatively compact in
    the target; structural containment comes from map construction.
    """

    sup_modulus_estimate: float
    sample_count: int
    margin_to_target: float
    seed: int


def schwarz_pick_gap(f: HoloMap, z: complex, w: complex) -> float:
    """omega(z, w) - omega(f(z), f(w)) for a holomorphic self-map of the disk.

    Nonnegative up to rounding: holomorphic maps never increase the Poincare
    distance, with equality exactly for disk automorphisms.  A point or image outside
    the disk raises :class:`DomainError`.
    """
    f = _map_between(f, 1, 1, "f")
    return poincare_distance(z, w) - poincare_distance(f.evaluate((z,))[0], f.evaluate((w,))[0])


def image_bound(
    f: HoloMap, source: Domain, target: Domain, stream: SampleStream
) -> ImageBoundReport:
    """Estimate sup boundary-proximity of f(source) inside target by sampling.

    Image points falling outside the target produce a report with
    ``margin_to_target <= 0`` rather than an exception: callers decide how to
    treat the failed containment.
    """
    source, target = _READERS["Domain"](source, "source"), _READERS["Domain"](target, "target")
    f = _map_between(f, source.dim, target.dim, "f")

    def part(chunk: SampleStream) -> float:
        return float(target.boundary_proximity_many(f.evaluate_many(source.sample(chunk))).max())

    f._fn  # compiled here, before any chunk runs on another thread
    sup = functools.reduce(max, _map_chunks(part, stream, source.dim), -math.inf)
    return ImageBoundReport(
        sup_modulus_estimate=sup,
        sample_count=stream.count,
        margin_to_target=1.0 - sup,
        seed=stream.seed,
    )


def _random_disk_selfmap(rng: np.random.Generator) -> HoloMap:
    """A structurally holomorphic self-map of the unit disk with sup|f| <= 1."""
    kind = int(rng.integers(3))
    if kind == 1:
        return Mobius(_random_disk_param(rng))
    degree = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(degree + 1))
    phases = np.exp(2j * np.pi * rng.random(degree + 1))
    coeffs = weights * phases
    coeffs[0] *= 0.9  # keep sup strictly below 1 even for constant-heavy draws
    poly = Polynomial((tuple(complex(c) for c in coeffs),))
    if kind == 2:
        return Compose(Mobius(_random_disk_param(rng)), poly)
    return poly


def _random_disk_param(rng: np.random.Generator) -> complex:
    return 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def random_selfmap(domain: Domain, seed: int, contraction_bias: float) -> HoloMap:
    """Deterministic random self-map whose image lies in ``contraction_bias * domain``.

    On the chart A·Δⁿ + b of ``domain`` the map is z -> A (bias g(A^-1 (z - b))) + b, for
    ``g`` one random Mobius or polynomial disk self-map per coordinate, so its image lies in
    A·(bias·Δⁿ) + b, ``domain`` scaled about its chart centre b, by construction, not just
    by sampling.  Identical seeds, integers in [0, 2**64) as for :class:`SampleStream`,
    produce structurally identical maps.
    """
    domain = _READERS["Domain"](domain, "domain")
    bias = _real(contraction_bias, "contraction bias", DomainError)
    if not 0.0 < bias < 1.0:
        raise DomainError(f"contraction bias must lie in (0, 1): {contraction_bias!r}")
    rng = np.random.default_rng(_seed(seed))
    chart = domain._affine
    # A centred chart with a diagonal of radii r > 0 folds into each factor as
    # bias * r * g(z / r): a diagonal Affine would multiply by n^2 - n zeros.
    radii = chart.matrix[0]
    folded = (chart.centred and len(chart.matrix) == 1
              and not radii.imag.any() and min(radii.real) > 0)
    factors = []
    for r in radii.real.tolist() if folded else [1.0] * domain.dim:
        g = _random_disk_selfmap(rng)
        if r != 1.0:  # a unit scaling is exact, so it is left out
            g = Compose(g, ScalarScale(1.0 / r))
        factors.append(Compose(ScalarScale(bias * r), g))
    product = DiagonalProduct(tuple(factors))
    if folded:
        return product
    pull = Affine(_full(chart.inverse).tolist(), domain._pull(np.zeros((1, domain.dim)))[0])
    push = Affine(_full(chart.matrix).tolist(), chart.offset.tolist())
    return Compose(push, Compose(product, pull))
