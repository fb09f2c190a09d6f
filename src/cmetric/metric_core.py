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

import numpy as np

from .errors import DomainError, StructuralError

__all__ = [
    "atanh_stable",
    "atanh_derivative",
    "atanh_second_derivative",
    "poincare_distance",
    "poincare_distance_many",
    "convexity_margin",
]

# Arguments within this distance of 1 are rejected rather than saturated:
# atanh blows up at 1 and a silent inf would poison downstream sup-estimates.
ATANH_GUARD = 1e-15

_ATANH_CEILING = 1.0 - ATANH_GUARD


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
    # np.log1p: correctly rounded at the rational anchors the closed forms hit
    # (this platform's libm log1p is an ulp low at e.g. 2.0)
    return 0.5 * float(np.log1p(2.0 * x / (1.0 - x)))


def atanh_derivative(x: float) -> float:
    """First derivative of atanh: 1 / (1 - x^2), for x in [0, 1)."""
    x = _real(x, "atanh derivative argument", DomainError)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"derivative of atanh evaluated outside [0, 1): {x!r}")
    return 1.0 / (1.0 - x * x)


def atanh_second_derivative(x: float) -> float:
    """Second derivative of atanh: 2x / (1 - x^2)^2, for x in (0, 1).

    Strictly positive on (0, 1), which is the convexity that drives
    :func:`convexity_margin`.
    """
    x = _real(x, "atanh second derivative argument", DomainError)
    if not 0.0 < x < 1.0:
        raise DomainError(f"second derivative of atanh evaluated outside (0, 1): {x!r}")
    u = 1.0 - x * x
    return 2.0 * x / (u * u)


def _require_in_disk(z: complex, name: str) -> complex:
    z = _complex(z, name, DomainError)
    if abs(z) >= 1.0:
        raise DomainError(f"{name}={z!r} is not strictly inside the unit disk")
    return z


def poincare_distance(z: complex, w: complex) -> float:
    """Poincare distance between two points of the open unit disk.

    Symmetric bit-for-bit under argument swap (the quotient of the two moduli
    is formed the same way in either order), zero exactly when ``z == w``.
    """
    return atanh_stable(pseudo_hyperbolic(_require_in_disk(z, "z"), _require_in_disk(w, "w")))


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """The quotient |z - w| / |1 - conj(w) z| of two disk points, unchecked.

    Formed as :func:`poincare_distance_many` forms it (``abs`` of a complex is
    libm ``hypot``, as ``np.hypot`` is), so its atanh is bit-identical there.
    """
    # conj(w) z from real parts: each product and sum rounds on its own, as in numpy
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    return abs(z - w) / abs(complex(1.0 - (wr * zr + wi * zi), wr * zi - wi * zr))


def poincare_distance_many(z, w) -> np.ndarray:
    """Elementwise Poincare distance over arrays of disk points.

    Membership is not re-validated here; callers are expected to feed points
    strictly inside the disk (as produced by domain sampling).  Uses the same
    quotient as :func:`pseudo_hyperbolic` and the same single ``np.log1p`` as
    :func:`atanh_stable`, so scalar and array paths are bit-identical.

    The modulus quotient is assembled from real components: products commute
    exactly and hypot ignores signs, so the result is bit-identical under
    argument swap (numpy's complex multiply is not, due to FMA contraction).
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zr, zi = z.real, z.imag
    wr, wi = w.real, w.imag
    # three buffers, each operation written into one of them
    den, tmp, cross_im = (np.empty(np.broadcast_shapes(z.shape, w.shape)) for _ in range(3))
    np.multiply(wr, zr, out=den)  # Re(conj(w) z); symmetric under swap
    np.multiply(wi, zi, out=tmp)
    den += tmp
    np.multiply(wr, zi, out=cross_im)  # Im(conj(w) z); negates exactly under swap
    np.multiply(wi, zr, out=tmp)
    cross_im -= tmp
    np.subtract(1.0, den, out=den)
    np.hypot(den, cross_im, out=den)
    t = np.subtract(zr, wr, out=tmp)  # the numerator |z - w|
    np.subtract(zi, wi, out=cross_im)
    np.hypot(t, cross_im, out=t)
    t /= den
    if np.any(t >= _ATANH_CEILING):
        raise DomainError(
            "a pair of points is too close to the disk boundary for a finite distance"
        )
    out = np.multiply(2.0, t, out=cross_im)  # 0.5 * log1p(2t / (1 - t))
    np.subtract(1.0, t, out=den)
    out /= den
    np.log1p(out, out=out)
    out *= 0.5
    return out if out.ndim else out[()]


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
