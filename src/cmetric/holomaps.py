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
import types
import weakref
from dataclasses import dataclass

import numpy as np

from .domains import (
    Domain,
    Point,
    PointLike,
    Polydisk,
    SampleStream,
    UnitDisk,
    as_point,
    _chunks,
    _instance,
    _many,
    _points_array,
    _READERS,
    _real,
    _seed,
    _typed,
)
from .errors import CapabilityError, DomainError, NumericError, StructuralError
from .metric_core import poincare_distance

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
    "MAX_POLY_DEGREE",
]

# Coefficient lists beyond this degree are rejected: high-degree monomials are
# badly conditioned near the disk boundary.
MAX_POLY_DEGREE = 16


class HoloMap(abc.ABC):
    """A holomorphic map C^in_dim -> C^out_dim, represented structurally."""

    def __post_init__(self):
        _typed(self)
        self._check()

    def _check(self) -> None:
        """Raise StructuralError unless the typed fields lie in their ranges and shapes."""

    @property
    @abc.abstractmethod
    def in_dim(self) -> int: ...

    @property
    def out_dim(self) -> int:
        return self.in_dim

    def evaluate(self, p: PointLike) -> Point:
        """Evaluate at a single point; raises NumericError on non-finite output, and
        StructuralError, as :meth:`evaluate_many` does, for a tree nested past the stack."""
        try:
            return self._evaluate_point(as_point(p, self.in_dim))
        except RecursionError:
            raise StructuralError(f"{type(self).__name__} map is nested too deeply") from None

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
        try:
            arr = _points_array(pts, self.in_dim, "points")
            fn, out = self._fn, np.empty((arr.shape[0], self.out_dim), dtype=complex)
        except RecursionError:
            raise StructuralError(f"{type(self).__name__} map is nested too deeply") from None
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for j, col in enumerate(fn(*arr.T)):
                    out[:, j] = col  # a constant output broadcasts down its column
        except (ZeroDivisionError, OverflowError) as exc:
            raise NumericError(f"{type(self).__name__} node blew up: {exc}") from None
        if not np.isfinite(out.view(float)).all():
            raise NumericError(f"non-finite value produced by {type(self).__name__} node")
        return out

    __call__ = evaluate

    @functools.cached_property
    def _fn(self):
        """The map as one function, its constants bound as parameter defaults, not as
        text: the function refers to no map, and maps of equal source share code."""
        ins, consts, body = [f"z{i}" for i in range(self.in_dim)], [], []
        outs = self._emit(ins, consts, body)
        params = ", ".join(ins + [f"c{i}" for i in range(len(consts))])
        source = f"def f({params}):\n{''.join(body)} return ({', '.join(outs)},)\n"
        if (code := _CODE.get(source)) is None:
            code = _CODE[source] = compile(source, "<holomap>", "exec").co_consts[0]
        return types.FunctionType(code, globals(), "f", tuple(consts))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_fn"}  # ``_fn`` is derived

    @abc.abstractmethod
    def _emit(self, ins: list[str], consts: list, body: list[str]) -> list[str]:
        """Source of each output from the input names, naming constants by ``_const``
        and binding locals (statements in ``body``) by ``_bind``."""


_CODE = weakref.WeakValueDictionary()  # source -> code of the maps that use it


def _const(consts: list, value) -> str:
    consts.append(value)
    return f"c{len(consts) - 1}"


def _bind(body: list[str], expr: str) -> str:
    """A local holding ``expr``, so that it is evaluated here and once."""
    if expr.isidentifier():
        return expr
    body.append(f" v{len(body)} = {expr}\n")
    return f"v{len(body) - 1}"


_READERS["HoloMap"] = _instance(HoloMap, "a map")
_READERS["tuple[HoloMap, ...]"] = _many(_READERS["HoloMap"])


@dataclass(frozen=True)
class Identity(HoloMap):
    """z -> z in the given dimension."""

    dim: int = 1

    def _check(self):
        if self.dim < 1:
            raise StructuralError(f"identity dimension must be >= 1: {self.dim!r}")

    @property
    def in_dim(self):
        return self.dim

    def _emit(self, ins, consts, body):
        return ins


@dataclass(frozen=True)
class Mobius(HoloMap):
    """Disk automorphism z -> (z - a) / (1 - conj(a) z), with |a| < 1."""

    a: complex

    def __post_init__(self):
        _typed(self, DomainError)  # a non-finite parameter is outside the disk too
        if not abs(self.a) < 1.0:
            raise DomainError(f"Mobius parameter must lie strictly inside the unit disk: {self.a!r}")

    @property
    def in_dim(self):
        return 1

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

    @property
    def in_dim(self):
        return len(self.coeffs)

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

    @property
    def in_dim(self):
        return len(self.matrix[0])

    @property
    def out_dim(self):
        return len(self.offset)

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
            if f.in_dim != 1 or f.out_dim != 1:
                raise StructuralError("diagonal product factors must be 1-dimensional maps")

    @property
    def in_dim(self):
        return len(self.factors)

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

    @property
    def in_dim(self):
        return self.inner.in_dim

    @property
    def out_dim(self):
        return self.outer.out_dim

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

    @property
    def in_dim(self):
        return self.dim

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
    distance, with equality exactly for disk automorphisms.
    """
    if f.in_dim != 1 or f.out_dim != 1:
        raise StructuralError("Schwarz-Pick gap is defined for 1-dimensional self-maps")
    base = poincare_distance(z, w)
    fz = f.evaluate((z,))[0]
    fw = f.evaluate((w,))[0]
    for name, img in (("z", fz), ("w", fw)):
        if abs(img) >= 1.0:
            raise DomainError(
                f"image escapes the closed unit disk at {name}: |f({name})| = {abs(img)!r}"
            )
    return base - poincare_distance(fz, fw)


def image_bound(
    f: HoloMap, source: Domain, target: Domain, stream: SampleStream
) -> ImageBoundReport:
    """Estimate sup boundary-proximity of f(source) inside target by sampling.

    Image points falling outside the target produce a report with
    ``margin_to_target <= 0`` rather than an exception: callers decide how to
    treat the failed containment.
    """
    if f.in_dim != source.dim:
        raise StructuralError(
            f"map consumes dimension {f.in_dim}, source domain has {source.dim}"
        )
    if f.out_dim != target.dim:
        raise StructuralError(
            f"map produces dimension {f.out_dim}, target domain has {target.dim}"
        )
    sup = -math.inf
    for chunk in _chunks(stream, source.dim):
        images = f.evaluate_many(source.sample(chunk))
        sup = max(sup, float(target.boundary_proximity_many(images).max()))
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

    The construction post-scales a convex-type combination of Mobius and
    polynomial disk self-maps by ``contraction_bias``, so the containment is
    guaranteed structurally, not just sampled.  Identical seeds, integers in
    [0, 2**64) as for :class:`SampleStream`, produce structurally identical maps.
    """
    bias = _real(contraction_bias, "contraction bias", DomainError)
    if not 0.0 < bias < 1.0:
        raise DomainError(f"contraction bias must lie in (0, 1): {contraction_bias!r}")
    rng = np.random.default_rng(_seed(seed))
    if isinstance(domain, UnitDisk):
        return Compose(ScalarScale(bias), _random_disk_selfmap(rng))
    if isinstance(domain, Polydisk):
        # bias * r_i * f_i(z_i / r_i): a diagonal Affine would multiply by n^2 - n zeros.
        factors = []
        for r in domain.radii:
            f = _random_disk_selfmap(rng)
            if r != 1.0:  # a unit scaling is exact, so it is left out
                f = Compose(f, ScalarScale(1.0 / r))
            factors.append(Compose(ScalarScale(bias * r), f))
        return DiagonalProduct(tuple(factors))
    raise CapabilityError(
        f"random self-maps are generated for unit disks and polydisks, not {type(domain).__name__}"
    )
