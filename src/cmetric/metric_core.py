"""Scalar hyperbolic-geometry kernel for the open unit disk.

Everything downstream reduces to three ingredients: a numerically stable
inverse hyperbolic tangent on [0, 1), the Poincare distance

    omega(z, w) = atanh( |z - w| / |1 - conj(w) * z| ),

whose isometries are the disk automorphisms z -> (z - a) / (1 - conj(a) * z)
(:class:`~cmetric.holomaps.Mobius`) and whose inner quotient, the
pseudo-hyperbolic distance, is the one scalar kernel of every distance
(:func:`pseudo_hyperbolic`), and the convexity margin
r*x - atanh(r * tanh(x)) >= 0, the scalar inequality that turns a distance
bound tanh(c) <= k into the linear bound c' <= k * c; it is exposed here so
it can be checked directly.

All functions are pure; an argument that is no number raises :class:`StructuralError`,
and one outside the domain :class:`DomainError`, never a non-finite value.
"""

from __future__ import annotations

import cmath
import math
import numbers
import types
import weakref

import numpy as np

from .errors import DomainError, StructuralError

__all__ = [
    "atanh_stable",
    "poincare_distance",
    "convexity_margin",
]

# Arguments within this distance of 1 are rejected rather than saturated:
# atanh blows up at 1 and a silent inf would poison downstream sup-estimates.
ATANH_GUARD = 1e-15

_ATANH_CEILING = 1.0 - ATANH_GUARD

# The pseudo-hyperbolic quotient is one square root of a quotient of squared moduli,
# as accurate as a quotient of two libm hypots (a few ulp; Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 3) while the squares are normal doubles.  A
# square below 2**-1022 loses bits to underflow (up to 2**-1075 each), which at this
# squared numerator or above is below 2**-107 of it; smaller ones take the hypots.
_TINY = 2.0**-968


def _number(kind: type, abc: type, noun: str):  # the field readers of ``domains`` describe it
    def read(value, what: str, nonfinite=StructuralError):
        if type(value) is not kind:  # ints and floats (numpy float64 too) skip the ABC check
            if isinstance(value, bool) or not isinstance(value, (int, float, abc)):
                raise StructuralError(f"{what} must be {noun}: {value!r}")
            try:
                value = kind(value)
            except OverflowError:
                raise StructuralError(f"{what} is too large for a double") from None
        if not cmath.isfinite(value):
            raise nonfinite(f"{what} must be finite: {value!r}")
        return value

    return read


_real = _number(float, numbers.Real, "a real number")
_complex = _number(complex, numbers.Complex, "a number")


def atanh_stable(x: float) -> float:
    """Inverse hyperbolic tangent of x in [0, 1).

    Computed as 0.5 * log1p(2x / (1 - x)), which keeps full relative accuracy
    both near 0 (log1p) and near 1 (1 - x is exact for x >= 0.5).  Arguments
    at or beyond ``1 - ATANH_GUARD``, negative arguments and NaN are rejected.
    """
    if type(x) is not float:
        x = _real(x, "atanh argument", DomainError)
    if not x >= 0.0:  # NaN too
        raise DomainError(f"atanh argument must lie in [0, 1): got {x!r}")
    if x >= _ATANH_CEILING:
        raise DomainError(
            f"atanh argument {x!r} is within {ATANH_GUARD:g} of the singularity at 1"
        )
    # np.log1p, so that poincare_distance_many's log1p gives the same bits; numpy picks
    # its loop by CPU (log1p(2.0) differs by an ulp with and without AVX-512), so
    # those bits, and the closed forms' values at rational anchors, hold per machine
    return 0.5 * float(np.log1p(2.0 * x / (1.0 - x)))


def _inside(model: tuple[complex, ...], limit: float) -> bool:
    """True iff every model modulus, libm's ``abs``, is below ``limit``; a NaN coordinate
    is outside, and so is one whose modulus overflows.  The one scalar membership test."""
    try:
        for m in model:
            if not abs(m) < limit:
                return False
    except OverflowError:  # abs of a finite complex beyond the float range
        return False
    return True


# np.abs of a complex array can be 2 ulp from the libm hypot that ``abs`` and np.hypot
# use; a modulus within this relative band of a limit is taken again with np.hypot.
_HYPOT_BAND = 1e-12


def _below(model: np.ndarray, limit: float) -> tuple[np.ndarray, bool]:
    """Moduli of the model coordinates ``model`` such that ``moduli < limit`` decides each
    as :func:`_inside` does, and whether all are below ``limit``: the bulk membership test.

    np.abs, but libm's modulus within ``_HYPOT_BAND`` of the limit and inf for NaN, taken
    only when some modulus is not well below the limit."""
    moduli = np.abs(model)
    inside = moduli < limit * (1.0 - _HYPOT_BAND)
    if inside.all():
        return moduli, True
    near = np.nonzero(~inside & (moduli < limit * (1.0 + _HYPOT_BAND)))
    moduli[near] = np.hypot(model[near].real, model[near].imag)
    moduli[np.isnan(moduli)] = np.inf
    return moduli, bool((moduli < limit).all())


def _require_in_disk(z: complex, name: str) -> complex:
    z = _complex(z, name, DomainError)
    if not _inside((z,), 1.0):
        raise DomainError(f"{name}={z!r} is not strictly inside the unit disk")
    return z


def poincare_distance(z: complex, w: complex) -> float:
    """Poincare distance between two points of the open unit disk.

    Symmetric bit-for-bit under argument swap (the quotient is formed from the
    same squares in either order), zero exactly when ``z == w``.
    """
    return atanh_stable(pseudo_hyperbolic(_require_in_disk(z, "z"), _require_in_disk(w, "w")))


# -- generated functions ------------------------------------------------------------
#
# A scalar formula is stated once, as source: the quotient, the loop's membership test
# and step (``_emit_*``), a domain's pull (``Domain._emit``), each map node's ``_emit``
# and ``solve``'s loop.  A function compiled from it takes its constants as parameter
# defaults or arguments, not as text, so values of equal shape share code.

_CODE = weakref.WeakValueDictionary()  # source -> code of the functions that use it


def _const(consts: list, value) -> str:
    consts.append(value)
    return f"c{len(consts) - 1}"


def _bind(body: list[str], expr: str) -> str:
    """A local holding ``expr``, so that it is evaluated here and once."""
    if expr.isidentifier():
        return expr
    body.append(f" v{len(body)} = {expr}\n")
    return f"v{len(body) - 1}"


def _function(params: list[str], consts: list, body: list[str], result: str):
    """``def f(params, c0, c1, ...): body; return result`` with ``consts`` as the defaults."""
    params = ", ".join(params + [f"c{i}" for i in range(len(consts))])
    source = f"def f({params}):\n{''.join(body)} return {result}\n"
    if (code := _CODE.get(source)) is None:
        code = _CODE[source] = compile(source, "<cmetric>", "exec").co_consts[0]
    return types.FunctionType(code, globals(), "f", tuple(consts))


def _emit_quotient(z: str, w: str, out: str, tiny: str, sqrt: str) -> str:
    """Statements setting ``out`` to the quotient |z - w| / |1 - conj(w) z| of two disk
    points held as the float locals ``{z}r, {z}i`` and ``{w}r, {w}i``.

    One square root (``sqrt``) of the quotient of the squared moduli, formed from real
    parts as :func:`poincare_distance_many` forms it, so its atanh is bit-identical
    there.  Where the squared numerator is below ``tiny`` (``_TINY``) it is the quotient
    of the two moduli instead, each libm ``hypot`` (``abs`` of a complex is, as
    ``np.hypot`` is).  Conj(w) z is taken from real parts: each product and sum rounds
    on its own, as in numpy.
    """
    return (
        f" dr, di = {z}r - {w}r, {z}i - {w}i\n"
        f" er, ei = 1.0 - ({w}r * {z}r + {w}i * {z}i), {w}r * {z}i - {w}i * {z}r\n"
        f" num = dr * dr + di * di\n if num < {tiny}:\n"
        f"  {out} = abs(complex(dr, di)) / abs(complex(er, ei))\n"
        f" else:\n  {out} = {sqrt}(num / (er * er + ei * ei))\n"
    )


def _emit_inside(model: list[str]) -> str:
    """:func:`_inside` at the limit 1 as an expression of the model coordinates ``model``;
    a modulus that overflows raises ``OverflowError``, for the caller to count as outside."""
    return " and ".join(f"abs({m}) < 1.0" for m in model)


def _emit_step(ms: list[str], ns: list[str], consts: list) -> str:
    """Statements setting ``step`` to the distance of two polydisk points whose model
    coordinates are the float locals ``{m}r, {m}i`` of ``ms`` and ``{n}r, {n}i`` of ``ns``.

    ``t`` is the largest :func:`_emit_quotient` (the first of equal ones, as ``max``
    keeps), and the step is atanh(t) as :func:`atanh_stable` forms it, which is called
    to raise its error where ``t`` is NaN or at the guard.  Constants are named by
    ``_const``.
    """
    ceiling, atanh, log1p, sqrt, tiny = (
        _const(consts, c) for c in (_ATANH_CEILING, atanh_stable, np.log1p, math.sqrt, _TINY)
    )
    body = [_emit_quotient(ms[0], ns[0], "t", tiny, sqrt)]
    for m, n in zip(ms[1:], ns[1:]):
        body += [_emit_quotient(m, n, "q", tiny, sqrt), " if q > t:\n  t = q\n"]
    return "".join(body) + (
        f" if not t < {ceiling}:\n  {atanh}(t)\n"
        f" step = 0.5 * float({log1p}(2.0 * t / (1.0 - t)))\n"
    )


#: ``pseudo_hyperbolic(z, w)``: the quotient of :func:`_emit_quotient` of two disk
#: points, unchecked.
pseudo_hyperbolic = _function(
    ["z", "w"],
    [_TINY, math.sqrt],
    [
        " zr, zi, wr, wi = z.real, z.imag, w.real, w.imag\n",
        _emit_quotient("z", "w", "t", "c0", "c1"),
    ],
    "t",
)


def poincare_distance_many(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Elementwise Poincare distance of two complex arrays of one shape, unchecked: the
    kernel of :meth:`~cmetric.domains.Domain.caratheodory_many`, which checks the points.

    A quotient that is NaN or at the atanh guard raises :class:`DomainError`.  Uses the
    same quotient as :func:`pseudo_hyperbolic` and the same single ``np.log1p`` as
    :func:`atanh_stable`, so scalar and array paths are bit-identical.

    The quotient is assembled from real components: products commute exactly
    and differences at most change sign, which squares and hypot ignore, so the
    result is bit-identical under argument swap (numpy's complex multiply is
    not, due to FMA contraction).
    """
    zr, zi = z.real, z.imag
    wr, wi = w.real, w.imag
    # three buffers, each operation written into one of them
    den, tmp, t = (np.empty(z.shape) for _ in range(3))
    # a point outside the disk may overflow or divide by 0 here: the guard below raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(wr, zr, out=den)  # Re(conj(w) z); symmetric under swap
        np.multiply(wi, zi, out=tmp)
        den += tmp
        np.multiply(wr, zi, out=t)  # Im(conj(w) z); negates exactly under swap
        np.multiply(wi, zr, out=tmp)
        t -= tmp
        np.subtract(1.0, den, out=den)
        den *= den  # |1 - conj(w) z|^2
        t *= t
        den += t
        np.subtract(zr, wr, out=t)  # |z - w|^2
        t *= t
        np.subtract(zi, wi, out=tmp)
        tmp *= tmp
        t += tmp
        small = t < _TINY
        t /= den
        np.sqrt(t, out=t)
        if small.any():  # the hypot form, as pseudo_hyperbolic takes it
            zs, ws = z[small], w[small]
            t[small] = np.hypot(zs.real - ws.real, zs.imag - ws.imag) / np.hypot(
                1.0 - (ws.real * zs.real + ws.imag * zs.imag),
                ws.real * zs.imag - ws.imag * zs.real,
            )
    if not np.all(t < _ATANH_CEILING):  # NaN too
        raise DomainError(
            "a pair of points is not finite, outside the disk or too close to its boundary "
            "for a finite distance"
        )
    out = np.multiply(2.0, t, out=tmp)  # 0.5 * log1p(2t / (1 - t))
    np.subtract(1.0, t, out=den)
    out /= den
    np.log1p(out, out=out)
    out *= 0.5
    return out


def convexity_margin(r: float, x: float) -> float:
    """Slack ``r*x - atanh(r * tanh(x))`` of the convexity inequality.

    Nonnegative for every r in [0, 1) and x >= 0, and zero exactly on the
    axes r = 0 and x = 0: atanh is convex on [0, 1) and vanishes at 0, so its
    chord from 0 to tanh(x) lies above its graph at r*tanh(x), and
    atanh(tanh(x)) = x closes the bound.
    """
    r = _real(r, "convexity margin r", DomainError)
    x = _real(x, "convexity margin x", DomainError)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"convexity margin needs r in [0, 1): got {r!r}")
    if x < 0.0:
        raise DomainError(f"convexity margin needs finite x >= 0: got {x!r}")
    if r == 0.0 or x == 0.0:
        return 0.0
    return r * x - atanh_stable(r * math.tanh(x))
