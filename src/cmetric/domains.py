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
distance.  Construction stores the chart once, read-only, in numpy.  A scalar
call pulls a point through :meth:`Domain._emit` compiled on the domain's first
scalar call (charts of one shape share code), and ``solve``'s loop emits the
same pull.  All pulls leave out the same terms, so they are bit-identical, signs
of zero included, except where a full matrix (an affine image) rounds
differently in the last bits.
Domains are immutable and all operations are pure, so values are thread-safe.
"""

from __future__ import annotations

import abc
import cmath
import collections
import contextvars
import dataclasses
import functools
import numbers
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, StructuralError
from .metric_core import (
    _below,
    _bind,
    _complex,
    _const,
    _function,
    _inside,
    _real,
    atanh_stable,
    poincare_distance_many,
    pseudo_hyperbolic,
)

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
# coordinates.  The ufunc calls on a chunk must outlast handoffs of the
# interpreter lock for the loops of two chunks (cos and sin in sampling, the
# distance kernel) to overlap on two threads: at 4096 two threads gained no wall
# time, at 8192 they do.  With the hypot-free kernel the calls got shorter again,
# and 16384 was faster than 8192 and 12288.  32768 was faster still, but it
# doubles the memory per chunk (README, "Sampled reductions").
CHUNK = 16384

# Threads that run chunks of one reduction: the usable CPUs (all of them where the
# platform cannot tell), at most 2, the only count measured.  With 1 the walker runs
# every chunk on the calling thread.
_WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


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
    if isinstance(value, (numbers.Number, np.generic)) and not isinstance(value, (bool, np.bool_)):
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


_stream = _instance(SampleStream, "a SampleStream")


def _map_chunks(part, stream: SampleStream, width: int) -> Iterator:
    """``part(chunk)`` for each chunk of ``stream``, in stream order, so that the first
    error in stream order is the one raised.

    The chunks are consecutive row ranges of at most CHUNK coordinates, ``width`` being
    the number of coordinates one row draws points for.  ``part`` returns a small partial
    result and must not call this walker.  With more than one worker and more than one
    chunk, chunks run on a thread pool, at most ``_WORKERS + 1`` in flight, each in a copy
    of the caller's context (numpy's error state is one of its variables); otherwise each
    runs on the calling thread.  A walk that ends early cancels or awaits the rest.
    """
    stream = _stream(stream, "stream")
    rows = max(1, CHUNK // width)
    end = stream.start + stream.count
    chunks = (
        SampleStream(stream.seed, min(rows, end - first), stream.boundary_margin, first)
        for first in range(stream.start, end, rows)
    )
    if _WORKERS == 1 or stream.count <= rows:
        yield from map(part, chunks)
        return
    pending = collections.deque()
    try:
        for chunk in chunks:
            pending.append(_executor().submit(contextvars.copy_context().run, part, chunk))
            if len(pending) > _WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            if not future.cancel():
                future.exception()  # waits; an error of a later chunk is dropped


@functools.lru_cache(maxsize=None)
def _executor():
    """The one pool of ``_WORKERS`` threads, created on the first walk that uses it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="cmetric-chunk")


if hasattr(os, "register_at_fork"):  # where there is fork
    os.register_at_fork(after_in_child=_executor.cache_clear)  # a forked child has no pool threads


#: i**q for the quarter-turn counts q = 0..4 of ``_polar``.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j, 1])
_QUARTER_TURNS.flags.writeable = False


def _polar(stream: SampleStream, dim: int, points: int, modulus) -> np.ndarray:
    """Model coordinates of the stream's rows, as a (count, points, dim) array.

    Each row draws, per point, ``dim`` moduli ``radial = modulus(u) * (1 - margin)``
    (``modulus`` is a ufunc, applied in place) and then ``dim`` uniform ``v``, so row r
    starts at double number ``r * points * 2 * dim`` of the seed's sequence.  The bit
    generator is advanced there: a range of rows is drawn without the rows before it.
    The point ``radial * exp(2 pi i v)`` is formed in quarter turns, as
    ``radial * i**q * exp(i phi)`` with ``q = rint(4 v)`` and ``phi = (4 v - q) pi / 2``.
    """
    bits = np.random.PCG64(stream.seed)
    bits.advance(stream.start * points * 2 * dim)
    draws = np.random.Generator(bits).random((stream.count, points, 2, dim))
    radial = draws[:, :, 0, :]
    modulus(radial, out=radial)
    radial *= 1.0 - stream.boundary_margin
    # cos and sin cost less on [-pi/4, pi/4]; 4 v, q and 4 v - q are exact (Sterbenz),
    # so phi rounds once, and multiplying by i**q only swaps parts and changes signs
    turns = draws[:, :, 1, :]
    turns *= 4.0
    q = np.rint(turns, out=np.empty(turns.shape, np.int8), casting="unsafe")
    turns -= q
    turns *= np.pi / 2
    model = np.empty(radial.shape, dtype=complex)
    np.cos(turns, out=model.real)
    model.real *= radial
    np.sin(turns, out=model.imag)
    model.imag *= radial
    # i**q goes into the spent draws, not a new array (mode "clip" writes out unbuffered)
    spent = draws.reshape(model.shape[:-1] + (2 * dim,)).view(complex)
    model *= np.take(_QUARTER_TURNS, q, out=spent, mode="clip")
    return model


def _sample_pairs(domain: Domain, chunk: SampleStream) -> tuple[np.ndarray, np.ndarray]:
    """Independent samples of the chunk's rows from its seed and from the seed XOR a fixed
    salt (the pair rule)."""
    partner = SampleStream(
        chunk.seed ^ 0x9E3779B97F4A7C15, chunk.count, chunk.boundary_margin, chunk.start
    )
    return domain.sample(chunk), domain.sample(partner)


def _points_array(pts, dim: int, what: str) -> np.ndarray:
    if type(pts) is np.ndarray and pts.dtype == complex:  # what sampling and maps return
        arr = pts
    else:
        try:
            arr = np.asarray(pts)
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{what}: not an array of numeric points: {exc}") from None
        if arr.dtype.kind not in "iufc":  # bools, text, objects: read as ``as_point`` reads
            arr = np.array([_complex(v, what, DomainError) for v in arr.flat]).reshape(arr.shape)
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
    as its diagonal row).

    ``centred`` says that b is 0 and ``unit`` that A^-1 is the diagonal of 1s: every pull,
    scalar, loop or bulk, leaves those terms out.  That changes no bit of a finite
    result but the sign of a zero part, alike on all three."""

    offset: np.ndarray
    matrix: np.ndarray
    inverse: np.ndarray
    centred: bool
    unit: bool


def _apply(matrix: np.ndarray, rows: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """A x for each row x of ``rows``; a diagonal A, given as one row, scales them into ``out``
    (a new array for ``None``)."""
    return rows @ matrix.T if len(matrix) > 1 else np.multiply(rows, matrix, out=out)


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
            arr.setflags(write=False)  # ``_apply`` scales into the ``out`` it is given
        centred, unit = not offset.any(), bool((inverse == 1).all())
        object.__setattr__(self, "_affine", _Chart(offset, matrix, inverse, centred, unit))
        object.__setattr__(self, "dim", len(offset))

    def _check(self) -> None:
        """Raise StructuralError unless the typed fields lie in their ranges and shapes."""

    def __reduce__(self):
        """Pickle as the class and its field values, so unpickling derives the chart anew."""
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @abc.abstractmethod
    def _chart(self) -> tuple[np.ndarray, np.ndarray]:
        """New complex arrays A and b of A·Δⁿ + b; a diagonal A may be its diagonal row."""

    def _pull(self, pts: np.ndarray) -> np.ndarray:
        """Model coordinates A^-1 (z - b) of an (n, dim) array of points, which it does not
        write to: a unit disk returns ``pts`` itself (see ``_Chart``)."""
        chart = self._affine
        shifted = pts if chart.centred else pts - chart.offset
        if chart.unit:
            return shifted
        return _apply(chart.inverse, shifted, out=None if shifted is pts else shifted)

    def _pull_point(self, p: Point) -> tuple[complex, ...]:
        """Model coordinates A^-1 (z - b) of one point, in Python complex arithmetic."""
        return self._pull_fn(*p)

    @functools.cached_property
    def _pull_fn(self):
        """:meth:`_emit` compiled on the first scalar pull; charts of one shape share code."""
        ins, consts, body = [f"z{i}" for i in range(self.dim)], [], []
        outs = self._emit(ins, consts, body)
        return _function(ins, consts, body, f"({', '.join(outs)},)")

    def _emit(self, ins: list[str], consts: list, body: list[str]) -> list[str]:
        """Source of each model coordinate A^-1 (z - b) of the point named by ``ins``, naming
        the chart's constants by ``_const`` and binding locals by ``_bind``.

        A diagonal chart scales each shifted coordinate; a full one sums each row of A^-1
        times the shifted coordinates, bound once, in coordinate order.  The terms
        ``_Chart`` folds are left out.
        """
        chart = self._affine
        if not chart.centred:
            ins = [f"({z} - {_const(consts, b)})" for z, b in zip(ins, chart.offset.tolist())]
        if chart.unit:
            return ins
        inverse = chart.inverse.tolist()
        if len(inverse) == 1:
            return [f"{z} * {_const(consts, a)}" for z, a in zip(ins, inverse[0])]
        ins = [_bind(body, z) for z in ins]
        return [f"sum([{', '.join(f'{_const(consts, a)} * {z}' for a, z in zip(row, ins))}])"
                for row in inverse]

    def _push(self, model: np.ndarray) -> np.ndarray:
        """Points A m + b of an (n, dim) array of model coordinates, which it may overwrite."""
        points = _apply(self._affine.matrix, model, out=model)
        points += self._affine.offset
        return points

    def _relative_chart(self, other: Domain) -> tuple[np.ndarray, np.ndarray]:
        """(T, c) = (A^-1 A_other, A^-1 (b_other - b)): ``other`` in model coordinates."""
        transform = _apply(self._affine.inverse, _full(other._affine.matrix).T, out=None).T
        return transform, self._pull(other._affine.offset[None, :])[0]

    # -- membership ---------------------------------------------------------

    def contains(self, p: PointLike, margin: float = 0.0) -> bool:
        """True iff ``p`` lies inside with boundary-proximity margin ``margin``.

        The proximity proxy is the max modulus of the model coordinates; the
        test is ``max_i |m_i| < 1 - margin`` (strict: domains are open).
        """
        return _inside(self._pull_point(as_point(p, self.dim)), 1.0 - _margin(margin))

    def contains_many(self, pts, margin: float = 0.0) -> np.ndarray:
        """Vectorized :meth:`contains`, with the same answer for each point."""
        model = self._pull(_points_array(pts, self.dim, "points"))
        limit = 1.0 - _margin(margin)
        return _row_max(_below(model, limit)[0]) < limit

    def boundary_proximity_many(self, pts) -> np.ndarray:
        """Max model modulus: 0 at the center, approaching 1 at the boundary, and >= 1
        exactly where :meth:`contains` says outside."""
        arr = _points_array(pts, self.dim, "points")
        return _row_max(_below(self._pull(arr), 1.0)[0])

    # -- sampling ------------------------------------------------------------

    def sample(self, stream: SampleStream) -> np.ndarray:
        """Draw the stream's rows, one point each, as a (count, dim) array.

        Direct polar sampling in model coordinates: for each point and each
        coordinate, modulus sqrt(u) * (1 - margin) and uniform angle, pushed
        forward through the domain's affine chart.  Deterministic in the seed;
        row r is the same point whatever range of rows a stream names.
        """
        return self._push(_polar(_stream(stream, "stream"), self.dim, 1, np.sqrt)[:, 0, :])

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
        first_row = _integer(first_row, "first_row")
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
            if not _below(model, 1.0 - margin)[1]:
                i = int(np.argmin(self.contains_many(arr, margin)))
                raise DomainError(
                    f"{what}[{first_row + i}] = {tuple(arr[i].tolist())!r} is not inside {self!r}"
                )
            models.append(model)
        return poincare_distance_many(*models)


_READERS["Domain"] = _instance(Domain, "a domain")


def _model_distance(mx: Sequence[complex], my: Sequence[complex]) -> float:
    """:meth:`Domain.caratheodory` of two points inside, from their model coordinates."""
    return atanh_stable(max(map(pseudo_hyperbolic, mx, my)))


def _row_max(values: np.ndarray) -> np.ndarray:
    """The maximum of each row of an (n, dim) array.

    One elementwise ``np.maximum`` per column: ``.max(axis=1)`` reduces row
    by row, 4-30 times slower on chunks of 2 to 8 columns; max is exact.
    """
    return functools.reduce(np.maximum, values.T)


def _margin(margin: float, what: str = "membership margin") -> float:
    """``margin`` as a finite real number >= 0; model moduli are bounded by 1 - margin."""
    margin = _real(margin, what, DomainError)
    if margin < 0.0:
        raise DomainError(f"{what} must be >= 0: {margin!r}")
    return margin


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
