"""Concrete open domains in C^n with exact Caratheodory distances.

Every supported kind is an affine image A·Δⁿ + b of the open unit polydisk
Δⁿ and declares nothing but this chart:

* unit disk                  A = 1              b = 0
* scaled disk (radius r)     A = r              b = 0
* affine disk image          A = radius         b = center
* polydisk (radii r_i)       A = diag(r_i)      b = 0
* affine image z -> M z + c  A = M A_base       b = M b_base + c
  of a base domain

The model coordinates m = A^-1 (z - b) underlie membership tests,
reproducible sampling, boundary proximity and the distance itself.  In model
coordinates the Caratheodory distance is the coordinatewise maximum of
Poincare distances (the product property of the polydisk); for an invertible
affine change of variables this is exact because biholomorphisms preserve the
distance.  Construction stores the chart once, read-only, in numpy for bulk
calls and in Python complex for scalar calls, which are bit-identical except
where a full matrix (an affine image) rounds differently in the last bits.
Domains are immutable and all operations are pure, so values are thread-safe.
"""

from __future__ import annotations

import abc
import cmath
import dataclasses
import functools
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError, StructuralError
from .metric_core import _complex, _real, atanh_stable, poincare_distance_many, pseudo_hyperbolic

__all__ = [
    "Point",
    "as_point",
    "SampleStream",
    "Domain",
    "UnitDisk",
    "ScaledDisk",
    "AffineDiskImage",
    "Polydisk",
    "AffineImage",
    "DEFAULT_BOUNDARY_MARGIN",
    "PRECOMPACT_MARGIN",
]

#: A point of C^n: one complex number per coordinate.
Point = tuple[complex, ...]

PointLike = Union[complex, float, int, Sequence[complex], np.ndarray]

# Sampling keeps this fraction of the radius away from the boundary by
# default, so distances of sampled pairs stay finite and sups well-behaved.
DEFAULT_BOUNDARY_MARGIN = 1e-3

# Default membership margin used when asserting that one domain sits strictly
# inside another (the checkable surrogate for relative compactness).
PRECOMPACT_MARGIN = 1e-6

# Sampled reductions walk their streams in row ranges of at most this many
# coordinates.  A chunk's arrays then stay at 64 KB, under glibc's default
# mmap threshold, so every chunk reuses the same heap memory.
CHUNK = 4096


def as_point(value: PointLike, dim: int | None = None, *, what: str = "point") -> Point:
    """Coerce ``value`` to a tuple of finite complex coordinates.

    Scalars are accepted as 1-dimensional points; text is not a point.  Each
    coordinate is read as a ``complex`` field is, but a non-finite one raises
    DomainError.  If ``dim`` is given, the coordinate count must match.
    """
    if type(value) is tuple and len(value) == dim:  # the scalar path's own points
        for c in value:
            if type(c) is not complex or not cmath.isfinite(c):
                break
        else:
            return value
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        value = (value,)
    elif isinstance(value, (str, bytes)):
        raise StructuralError(f"{what} is not a scalar or coordinate sequence: {value!r}")
    try:
        coords = tuple([_complex(c, what, DomainError) for c in value])
    except TypeError:
        raise StructuralError(f"{what} is not a scalar or coordinate sequence: {value!r}")
    if not coords:
        raise StructuralError(f"{what} has no coordinates")
    if dim is not None and len(coords) != dim:
        raise StructuralError(f"{what} has dimension {len(coords)}, expected {dim}")
    return coords


# -- field readers ----------------------------------------------------------------
#
# One reader per field annotation reads a value into the annotated Python type:
# numpy scalars and integral floats are accepted, bools, text, None, fractions for
# an int, complex values for a real and ints too large for a double raise
# StructuralError, and a non-finite float or complex raises ``nonfinite``.  The real
# and complex readers sit in ``metric_core``, whose scalar functions read with them.


def _integer(value, what: str, nonfinite=StructuralError) -> int:
    """``value`` as an int; bools, text and fractional numbers are not integers."""
    if type(value) is int:  # the common case; isinstance against an ABC costs microseconds
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise StructuralError(f"{what} must be an integer: {value!r}")


def _seed(value, what: str = "seed") -> int:
    """``value`` as a seed, an integer in [0, 2**64)."""
    seed = _integer(value, what)
    if not 0 <= seed < 2**64:
        raise StructuralError(f"{what} must be a 64-bit unsigned integer: {value!r}")
    return seed


def _sequence(value, what: str, nonfinite=StructuralError) -> tuple:
    """``value`` as a tuple; text and non-iterables are not sequences."""
    if isinstance(value, (str, bytes)):
        raise StructuralError(f"{what} must be a sequence: {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise StructuralError(f"{what} must be a sequence: {value!r}") from None


def _many(read):
    def read_many(value, what: str, nonfinite=StructuralError) -> tuple:
        return tuple([read(v, what, nonfinite) for v in _sequence(value, what)])

    return read_many


# keyed by ``field.type``, the annotation string (``from __future__ import annotations``)
_READERS = {
    "int": _integer,
    "int | None": lambda value, what, nonfinite: None if value is None else _integer(value, what),
    "float": _real,
    "complex": _complex,
    "tuple[float, ...]": _many(_real),
    "tuple[complex, ...]": _many(_complex),
    "tuple[tuple[complex, ...], ...]": _many(_many(_complex)),
}  # ``holomaps`` adds its map annotations, and ``Domain`` is added below its class


def _instance(kind: type, noun: str):
    def read(value, what: str, nonfinite=StructuralError):
        if not isinstance(value, kind):
            raise StructuralError(f"{what} must be {noun}: {value!r}")
        return value

    return read


_FIELD_READERS: dict[type, tuple] = {}  # class -> (name, reader, error prefix) per typed field


def _typed(obj, nonfinite: type = StructuralError) -> None:
    """Store each field of the dataclass ``obj`` as the reader of its annotation returns it."""
    readers = _FIELD_READERS.get(type(obj))
    if readers is None:
        readers = _FIELD_READERS[type(obj)] = tuple(
            (f.name, _READERS[f.type], f"{type(obj).__name__}.{f.name}")
            for f in dataclasses.fields(obj) if f.type in _READERS
        )
    for name, read, what in readers:  # not via obj.__dict__, which slows later attribute reads
        object.__setattr__(obj, name, read(getattr(obj, name), what, nonfinite))


@dataclass(frozen=True)
class SampleStream:
    """Reproducible sampling request: seed, row count, boundary margin and first row.

    A seed fixes one endless sequence of draw rows, one point (or one pair)
    per row; the stream names rows ``[start, start + count)`` of it.  The
    same (seed, domain, margin) always yields the same rows, so the first
    ``m`` points of a count-n stream equal the count-m stream, and a stream
    cut into row ranges draws exactly the points of the whole.
    """

    seed: int
    count: int
    boundary_margin: float = DEFAULT_BOUNDARY_MARGIN
    start: int = 0

    def __post_init__(self):
        _typed(self)
        _seed(self.seed)
        if self.count < 1:
            raise StructuralError(f"sample count must be >= 1: {self.count!r}")
        if self.start < 0:
            raise StructuralError(f"first sample row must be >= 0: {self.start!r}")
        if not 0.0 < self.boundary_margin < 1.0:
            raise StructuralError(
                f"boundary margin must lie in (0, 1): {self.boundary_margin!r}"
            )


def _chunks(stream: SampleStream, width: int) -> Iterator[SampleStream]:
    """Consecutive row ranges of ``stream``, each of at most CHUNK coordinates.

    ``width`` is the number of coordinates one row draws points for.
    """
    rows = max(1, CHUNK // width)
    end = stream.start + stream.count
    for first in range(stream.start, end, rows):
        yield SampleStream(stream.seed, min(rows, end - first), stream.boundary_margin, first)


def _polar(stream: SampleStream, dim: int, points: int, modulus) -> np.ndarray:
    """Model coordinates of the stream's rows, as a (count, points, dim) array.

    Each row draws, per point, ``dim`` moduli ``modulus(u) * (1 - margin)``
    and then ``dim`` uniform angles, so row r starts at double number
    ``r * points * 2 * dim`` of the seed's sequence.  The bit generator is
    advanced there: a range of rows is drawn without the rows before it.
    """
    bits = np.random.PCG64(_hashed_seed(stream.seed))
    bits.advance(stream.start * points * 2 * dim)
    draws = np.random.Generator(bits).random((stream.count, points, 2, dim))
    radial = modulus(draws[:, :, 0, :])
    radial *= 1.0 - stream.boundary_margin
    angle = draws[:, :, 1, :]
    angle *= 2.0 * np.pi
    model = np.empty(radial.shape, dtype=complex)
    np.cos(angle, out=model.real)
    model.real *= radial
    np.sin(angle, out=model.imag)
    model.imag *= radial
    return model


class _HashedSeed(ISeedSequence):
    """``SeedSequence(seed)`` that hashes each requested state only once.

    Hashing is most of the cost of ``PCG64(seed)`` (about 19 of 20 us on a
    2-vCPU Xeon).  A stream walked in chunks seeds one generator per chunk,
    so the hashed words are kept, read-only, for its other chunks.
    """

    def __init__(self, seed: int):
        self._sequence = np.random.SeedSequence(seed)
        self._words: dict = {}

    def generate_state(self, n_words, dtype=np.uint32):
        key = (n_words, np.dtype(dtype))
        words = self._words.get(key)
        if words is None:
            words = self._sequence.generate_state(n_words, dtype)
            words.flags.writeable = False
            self._words[key] = words
        return words


@functools.lru_cache(maxsize=16)
def _hashed_seed(seed: int) -> _HashedSeed:
    return _HashedSeed(seed)


def _sample_pairs(
    domain: Domain, stream: SampleStream
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Chunks of independent samples from ``stream`` and from its seed XOR a fixed
    salt (the pair rule), each with the stream row of its first pair."""
    for chunk in _chunks(stream, domain.dim):
        partner = SampleStream(
            chunk.seed ^ 0x9E3779B97F4A7C15, chunk.count, chunk.boundary_margin, chunk.start
        )
        yield chunk.start, domain.sample(chunk), domain.sample(partner)


def _points_array(pts, dim: int, what: str) -> np.ndarray:
    if type(pts) is np.ndarray and pts.dtype == complex:  # what sampling and maps return
        arr = pts
    else:
        try:
            arr = np.asarray(pts)
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{what}: not an array of numeric points: {exc}") from None
        if arr.dtype.kind == "O":  # Python numbers numpy has no dtype for, text, ...
            arr = np.array([_complex(v, what, DomainError) for v in arr.flat]).reshape(arr.shape)
        elif arr.dtype.kind not in "biufc":
            raise StructuralError(f"{what}: {arr.dtype} entries are not numbers")
        arr = arr.astype(complex, copy=False)
    if arr.ndim == 1:
        arr = arr[:, None] if dim == 1 else arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise StructuralError(f"{what}: expected an array of points of dimension {dim}")
    if not np.isfinite(arr.view(float)).all():
        raise DomainError(f"{what}: non-finite coordinate in point array")
    return arr


class _Chart(NamedTuple):
    """A domain's chart A·Δⁿ + b: read-only complex arrays b, A and A^-1 (a diagonal one
    as its diagonal row), and in ``point`` b and the rows of A^-1 in Python complex."""

    offset: np.ndarray
    matrix: np.ndarray
    inverse: np.ndarray
    point: tuple[tuple[complex, ...], tuple[tuple[complex, ...], ...]]


def _apply(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A x for each row x of ``rows``; a diagonal A, given as one row, scales ``rows`` in place."""
    return rows @ matrix.T if len(matrix) > 1 else np.multiply(rows, matrix, out=rows)


def _full(matrix: np.ndarray) -> np.ndarray:
    """A new square array holding a chart matrix, which may be given as its diagonal row."""
    return np.diag(matrix[0]) if len(matrix) == 1 else matrix.copy()


class Domain(abc.ABC):
    """Open subset A·Δⁿ + b of C^n with membership, sampling and exact distance.

    Each kind declares only its chart (A, b) in :meth:`_chart`, stored once as
    ``_affine``; everything else works on model coordinates m = A^-1 (z - b).
    """

    #: Complex dimension of the ambient space.
    dim: int

    def __post_init__(self):
        _typed(self)
        self._check()
        matrix, offset = self._chart()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            try:
                inverse = 1.0 / matrix if len(matrix) == 1 else np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                inverse = None
        if inverse is None or not np.isfinite(inverse).all():
            raise StructuralError(f"{self!r} has an uninvertible chart")
        for arr in (offset, matrix, inverse):
            arr.setflags(write=False)  # ``_apply`` scales the rows it is given in place
        point = (tuple(offset.tolist()), tuple(map(tuple, inverse.tolist())))
        object.__setattr__(self, "_affine", _Chart(offset, matrix, inverse, point))
        object.__setattr__(self, "dim", len(offset))

    def _check(self) -> None:
        """Raise StructuralError unless the typed fields lie in their ranges and shapes."""

    @abc.abstractmethod
    def _chart(self) -> tuple[np.ndarray, np.ndarray]:
        """New complex arrays A and b of A·Δⁿ + b; a diagonal A may be its diagonal row."""

    def _pull(self, pts: np.ndarray) -> np.ndarray:
        """Model coordinates A^-1 (z - b) of an (n, dim) array of points."""
        return _apply(self._affine.inverse, pts - self._affine.offset)

    def _pull_point(self, p: Point) -> list[complex]:
        """Model coordinates A^-1 (z - b) of one point, in Python complex arithmetic."""
        offset, inverse = self._affine.point
        if len(inverse) == 1:
            return [(z - b) * a for z, b, a in zip(p, offset, inverse[0])]
        shifted = [z - b for z, b in zip(p, offset)]
        return [sum(a * s for a, s in zip(row, shifted)) for row in inverse]

    def _push(self, model: np.ndarray) -> np.ndarray:
        """Points A m + b of an (n, dim) array of model coordinates, which it may overwrite."""
        points = _apply(self._affine.matrix, model)
        points += self._affine.offset
        return points

    def _relative_chart(self, other: Domain) -> tuple[np.ndarray, np.ndarray]:
        """(T, c) = (A^-1 A_other, A^-1 (b_other - b)): ``other`` in model coordinates."""
        transform = _apply(self._affine.inverse, _full(other._affine.matrix).T).T
        return transform, self._pull(other._affine.offset[None, :])[0]

    # -- membership ---------------------------------------------------------

    def contains(self, p: PointLike, margin: float = 0.0) -> bool:
        """True iff ``p`` lies inside with boundary-proximity margin ``margin``.

        The proximity proxy is the max modulus of the model coordinates; the
        test is ``max_i |m_i| < 1 - margin`` (strict: domains are open).
        """
        model, limit = self._pull_point(as_point(p, self.dim)), _limit(margin)
        return _inside(model, limit)

    def contains_many(self, pts, margin: float = 0.0) -> np.ndarray:
        return self.boundary_proximity_many(pts) < _limit(margin)

    def boundary_proximity_many(self, pts) -> np.ndarray:
        """0 at the center, approaching 1 at the boundary, >= 1 outside."""
        arr = _points_array(pts, self.dim, "points")
        return _row_max(np.abs(self._pull(arr)))

    # -- sampling ------------------------------------------------------------

    def sample(self, stream: SampleStream) -> np.ndarray:
        """Draw the stream's rows, one point each, as a (count, dim) array.

        Direct polar sampling in model coordinates: for each point and each
        coordinate, modulus sqrt(u) * (1 - margin) and uniform angle, pushed
        forward through the domain's affine chart.  Deterministic in the seed;
        row r is the same point whatever range of rows a stream names.
        """
        return self._push(_polar(stream, self.dim, 1, np.sqrt)[:, 0, :])

    # -- distance ------------------------------------------------------------

    def caratheodory(self, x: PointLike, y: PointLike) -> float:
        """Exact Caratheodory distance between two interior points.

        The maximum over coordinates of the Poincare distances of the model
        coordinates: the product property of the unit polydisk, carried to
        every kind by its affine chart, which is a biholomorphism.  atanh is
        monotone, so it is applied once, to the largest modulus quotient.
        """
        xp = as_point(x, self.dim, what="x")
        yp = as_point(y, self.dim, what="y")
        mx, my = self._pull_point(xp), self._pull_point(yp)
        if not _inside(mx, 1.0):
            raise DomainError(f"x = {xp!r} is not inside {self!r}")
        if not _inside(my, 1.0):
            raise DomainError(f"y = {yp!r} is not inside {self!r}")
        return _model_distance(mx, my)

    def caratheodory_many(self, xs, ys, *, first_row: int = 0) -> np.ndarray:
        """Vectorized :meth:`caratheodory` over two (n, dim) point arrays.

        An error names a point outside by its row, counted from ``first_row``:
        the stream row of the first pair when the arrays are one chunk of a stream.
        """
        xa = _points_array(xs, self.dim, "xs")
        ya = _points_array(ys, self.dim, "ys")
        if xa.shape[0] != ya.shape[0]:
            raise StructuralError("point arrays must have matching lengths")
        return _row_max(self._distances(xa, ya, ("xs", "ys"), first_row=first_row))

    def _distances(
        self, xa: np.ndarray, ya: np.ndarray, names: tuple, margin: float = 0.0, first_row: int = 0
    ) -> np.ndarray:
        """Per-coordinate Poincare distances of the model coordinates of two point arrays.

        A pair's distance is its row maximum.  Every point must lie inside with
        ``margin``; an error names one outside as ``names[0]`` or ``names[1]``
        with its row, counted from ``first_row``.
        """
        models = []
        for arr, what in zip((xa, ya), names):
            model = self._pull(arr)
            inside = np.abs(model) < 1.0 - margin
            if not inside.all():
                i = int(np.argmin(inside.all(axis=1)))
                raise DomainError(
                    f"{what}[{first_row + i}] = {tuple(arr[i])!r} is not inside {self!r}"
                )
            models.append(model)
        return poincare_distance_many(*models)


_READERS["Domain"] = _instance(Domain, "a domain")


def _model_distance(mx: list[complex], my: list[complex]) -> float:
    """:meth:`Domain.caratheodory` of two points inside, from their model coordinates."""
    return atanh_stable(max(map(pseudo_hyperbolic, mx, my)))


def _row_max(values: np.ndarray) -> np.ndarray:
    """The maximum of each row of an (n, dim) array.

    One elementwise ``np.maximum`` per column: ``.max(axis=1)`` reduces row
    by row, 4-30 times slower on chunks of 2 to 8 columns; max is exact.
    """
    return functools.reduce(np.maximum, values.T)


def _limit(margin: float) -> float:
    """The bound 1 - margin on model moduli; the margin must be a finite real number >= 0."""
    margin = _real(margin, "membership margin", DomainError)
    if margin < 0.0:
        raise DomainError(f"membership margin must be >= 0: {margin!r}")
    return 1.0 - margin


def _inside(model: list[complex], limit: float) -> bool:
    """True iff every model modulus is below ``limit``; a NaN coordinate is outside."""
    for m in model:
        if not abs(m) < limit:
            return False
    return True


@dataclass(frozen=True)
class UnitDisk(Domain):
    """The open unit disk in C."""

    def _chart(self):
        return np.ones((1, 1), dtype=complex), np.zeros(1, dtype=complex)


@dataclass(frozen=True)
class ScaledDisk(Domain):
    """Open disk of radius ``radius`` in (0, 1), centered at the origin."""

    radius: float

    def _check(self):
        if not 0.0 < self.radius < 1.0:
            raise StructuralError(f"scaled disk radius must lie in (0, 1): {self.radius!r}")

    def _chart(self):
        return np.array([[self.radius]], dtype=complex), np.zeros(1, dtype=complex)


@dataclass(frozen=True)
class AffineDiskImage(Domain):
    """Open disk of arbitrary center and positive radius in C.

    The image of the unit disk under z -> center + radius * z.
    """

    center: complex
    radius: float

    def _check(self):
        if not self.radius > 0.0:
            raise StructuralError(f"disk radius must be > 0: {self.radius!r}")

    def _chart(self):
        return np.array([[self.radius]], dtype=complex), np.array([self.center])


@dataclass(frozen=True)
class Polydisk(Domain):
    """Product of origin-centered disks with the given positive radii."""

    radii: tuple[float, ...]

    def _check(self):
        if not self.radii:
            raise StructuralError("polydisk needs at least one radius")
        for r in self.radii:
            if not r > 0.0:
                raise StructuralError(f"polydisk radii must be > 0: {r!r}")

    def _chart(self):
        return np.array([self.radii], dtype=complex), np.zeros(len(self.radii), dtype=complex)


@dataclass(frozen=True)
class AffineImage(Domain):
    """Image of a base domain under an invertible affine map z -> A z + b."""

    base: Domain
    matrix: tuple[tuple[complex, ...], ...]
    offset: tuple[complex, ...]

    _MAX_CONDITION = 1e12

    def _check(self):
        n = self.base.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise StructuralError(
                f"affine matrix must be {n}x{n} to match the base domain dimension"
            )
        if len(self.offset) != n:
            raise StructuralError(f"affine offset must have dimension {n}")
        cond = np.linalg.cond(np.asarray(self.matrix, dtype=complex))
        if not np.isfinite(cond) or cond > self._MAX_CONDITION:
            raise StructuralError(
                f"affine matrix is singular or too ill-conditioned (cond={cond:.3g})"
            )

    def _chart(self):
        base, matrix = self.base._affine, np.asarray(self.matrix, dtype=complex)
        return matrix @ _full(base.matrix), matrix @ base.offset + np.asarray(self.offset)

    def pullback(self, p: PointLike) -> Point:
        """Preimage of ``p`` in the base domain."""
        model = np.array([self._pull_point(as_point(p, self.dim))])
        return tuple(self.base._push(model)[0].tolist())
