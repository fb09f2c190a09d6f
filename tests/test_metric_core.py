"""Unit tests for the scalar hyperbolic kernel.

Expected values are frozen from a 40-digit mpmath oracle; the oracle formulas
are recomputed here where cheap so the frozen literals stay honest.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmetric
from cmetric import (
    DomainError,
    Mobius,
    StructuralError,
    UnitDisk,
    atanh_stable,
    convexity_margin,
    poincare_distance,
)
from cmetric.metric_core import ATANH_GUARD, poincare_distance_many

from atanh_derivatives import atanh_derivative, atanh_second_derivative

mp.mp.dps = 40

# mpmath oracle values, frozen as the nearest doubles
ATANH_HALF = 0.5493061443340549  # atanh(0.5) = ln(3)/2
TWO_ATANH_HALF = 1.0986122886681098  # ln(3)
OMEGA_03_06 = 0.3836275763568336  # atanh(0.3 / 0.82)
MARGIN_05_1 = 0.09900841857299313  # 0.5 - atanh(0.5 * tanh(1))


def mp_omega(z, w):
    z, w = mp.mpc(z), mp.mpc(w)
    return float(mp.atanh(abs((z - w) / (1 - mp.conj(w) * z))))


# -- atanh_stable --------------------------------------------------------------


def test_atanh_zero_is_exact():
    assert atanh_stable(0.0) == 0.0


def test_atanh_half_matches_oracle():
    assert float(mp.atanh(mp.mpf("0.5"))) == ATANH_HALF
    assert atanh_stable(0.5) == pytest.approx(ATANH_HALF, rel=1e-15)


def test_atanh_double_angle_point():
    # 2r/(1 + r^2) at r = 0.5 is exactly 0.8
    assert atanh_stable(0.8) == pytest.approx(2 * atanh_stable(0.5), rel=1e-14)
    assert atanh_stable(0.8) == pytest.approx(TWO_ATANH_HALF, rel=1e-15)


def test_atanh_strictly_increasing():
    xs = np.linspace(0.0, 0.999, 200)
    vals = [atanh_stable(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_atanh_against_high_precision_oracle():
    rng = np.random.default_rng(11)
    for x in rng.random(300) * 0.999999:
        assert atanh_stable(x) == pytest.approx(float(mp.atanh(mp.mpf(x))), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("bad", [-1e-12, -0.5, 1.0, 1.5, 1 - 1e-16, float("nan"), float("inf")])
def test_atanh_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        atanh_stable(bad)


@given(st.floats(min_value=0.0, max_value=0.99))
@example(0.9896985562483642)
def test_double_angle_identity(r):
    # atanh(x) = 2 atanh(x / (1 + sqrt(1 - x^2))), checked on the float x that is
    # passed: rounding 2r / (1 + r^2) moves it by an ulp, which atanh's slope near
    # 1 magnifies to ~1e-12, whereas halving the angle of x is well conditioned
    x = 2 * r / (1 + r * r)
    half = x / (1 + math.sqrt((1 - x) * (1 + x)))
    assert atanh_stable(x) == pytest.approx(2 * atanh_stable(half), abs=1e-12)


# -- poincare_distance ---------------------------------------------------------


def test_distance_identical_points_is_zero():
    assert poincare_distance(0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    assert poincare_distance(0, 0) == 0.0


def test_distance_from_origin_reduces_to_atanh():
    assert poincare_distance(0, 0.5) == pytest.approx(ATANH_HALF, rel=1e-15)


def test_distance_real_pair_matches_oracle():
    # |z - w| / |1 - wz| = 0.3 / 0.82 for the pair (0.3, 0.6)
    assert float(mp.atanh(mp.mpf("0.3") / mp.mpf("0.82"))) == OMEGA_03_06
    assert poincare_distance(0.3, 0.6) == pytest.approx(OMEGA_03_06, rel=1e-14)


def test_distance_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(*rng.uniform(-0.68, 0.68, 2))
        w = complex(*rng.uniform(-0.68, 0.68, 2))
        assert poincare_distance(z, w) == pytest.approx(mp_omega(z, w), rel=1e-13, abs=1e-300)


complex_in_disk = st.builds(
    complex,
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=-0.7, max_value=0.7),
)


@given(complex_in_disk, complex_in_disk)
def test_distance_symmetry_is_bit_exact(z, w):
    assert poincare_distance(z, w) == poincare_distance(w, z)


@given(complex_in_disk, complex_in_disk)
def test_distance_nonnegative_and_separating(z, w):
    d = poincare_distance(z, w)
    assert d >= 0.0
    if abs(z.real - w.real) > 2e-15 or abs(z.imag - w.imag) > 2e-15:
        assert d > 0.0


def test_triangle_inequality_on_sampled_triples():
    rng = np.random.default_rng(17)
    for _ in range(500):
        z, w, v = (complex(*rng.uniform(-0.69, 0.69, 2)) for _ in range(3))
        assert poincare_distance(z, w) <= (
            poincare_distance(z, v) + poincare_distance(v, w) + 1e-12
        )


@pytest.mark.parametrize("bad", [1.0, -1.0, 1 + 0j, 0.8 + 0.7j, complex("nan"), 2.0])
def test_distance_rejects_points_outside_open_disk(bad):
    with pytest.raises(DomainError):
        poincare_distance(bad, 0.1)
    with pytest.raises(DomainError):
        poincare_distance(0.1, bad)


def test_the_kernel_ceiling_keeps_every_distance_below_tanh_one():
    # the largest quotient the ceiling admits: its distance still has tanh < 1, so a
    # diameter from either path has k < 1 and needs no cap of its own
    assert math.tanh(atanh_stable(math.nextafter(1.0 - ATANH_GUARD, 0.0))) < 1.0
    r = math.nextafter(1.0, 0.0)
    with pytest.raises(DomainError):
        poincare_distance_many(np.array([r], complex), np.array([-r], complex))


def test_many_matches_scalar_to_rounding():
    rng = np.random.default_rng(23)
    zs = (rng.uniform(-0.6, 0.6, 50) + 1j * rng.uniform(-0.6, 0.6, 50)).astype(complex)
    ws = (rng.uniform(-0.6, 0.6, 50) + 1j * rng.uniform(-0.6, 0.6, 50)).astype(complex)
    vec = poincare_distance_many(zs, ws)
    for i in range(50):
        scalar = poincare_distance(complex(zs[i]), complex(ws[i]))
        assert vec[i] == pytest.approx(scalar, rel=1e-15, abs=1e-300)


# -- Mobius centering ------------------------------------------------------------


def test_centering_at_zero_is_identity():
    m = Mobius(0)
    for z in (0.1, -0.4 + 0.2j, 0.7j):
        assert m.evaluate((z,))[0] == z


def test_centering_sends_parameter_to_origin():
    m = Mobius(0.5)
    assert m.evaluate((0.5,))[0] == 0.0
    assert m.evaluate((0.0,))[0] == -0.5


def test_centering_preserves_distance_example():
    assert poincare_distance(0, 0.5) == pytest.approx(
        poincare_distance(-0.5, 0), rel=1e-12
    )


def test_centering_is_an_isometry():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a, z, w = (0.95 * complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(3))
        m = Mobius(a)
        mz = m.evaluate((z,))[0]
        mw = m.evaluate((w,))[0]
        d0 = poincare_distance(z, w)
        assert poincare_distance(mz, mw) == pytest.approx(d0, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.2 + 0.3j, complex("inf")])
def test_centering_rejects_parameters_outside_disk(bad):
    with pytest.raises(DomainError):
        Mobius(bad)


# -- convexity_margin ----------------------------------------------------------


def test_margin_vanishes_on_axes():
    assert convexity_margin(0.0, 5.0) == 0.0
    assert convexity_margin(0.7, 0.0) == 0.0


def test_margin_frozen_value():
    assert float(mp.mpf("0.5") - mp.atanh(mp.mpf("0.5") * mp.tanh(1))) == MARGIN_05_1
    assert convexity_margin(0.5, 1.0) == pytest.approx(MARGIN_05_1, rel=1e-14)


@settings(max_examples=300)
@given(
    st.floats(min_value=0.0, max_value=1 - 1e-6),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_margin_is_nonnegative(r, x):
    assert convexity_margin(r, x) >= -1e-12


def test_margin_grid_is_nonnegative():
    for r in np.linspace(0.0, 1 - 1e-6, 101):
        for x in np.linspace(0.0, 20.0, 41):
            assert convexity_margin(float(r), float(x)) >= -1e-12


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_chord_slope_monotone_in_r(x):
    # atanh(r tanh x) / r is nondecreasing in r: the convexity behind the margin
    rs = np.linspace(1e-6, 1 - 1e-6, 400)
    vals = [atanh_stable(float(r) * math.tanh(x)) / float(r) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "r, x", [(1.0, 1.0), (-0.1, 1.0), (0.5, -1.0), (float("nan"), 1.0), (0.5, float("inf"))]
)
def test_margin_rejects_out_of_domain(r, x):
    with pytest.raises(DomainError):
        convexity_margin(r, x)


# -- derivatives ---------------------------------------------------------------


def _fd_first(f, x, h=1e-4):
    # five-point central stencil, O(h^4)
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def _fd_second(f, x, h=1e-4):
    # five-point central stencil, O(h^4)
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12 * h * h)


def test_second_derivative_value_at_half():
    # 2 * 0.5 / (1 - 0.25)^2 = 1 / 0.5625
    assert atanh_second_derivative(0.5) == pytest.approx(1.0 / 0.5625, rel=1e-15)


def test_second_derivative_vanishes_at_origin_limit():
    assert atanh_second_derivative(1e-12) == pytest.approx(2e-12, rel=1e-12)


def test_second_derivative_positive_on_open_interval():
    for x in np.linspace(1e-6, 1 - 1e-6, 200):
        assert atanh_second_derivative(float(x)) > 0.0


def test_first_derivative_matches_finite_differences():
    for x in np.linspace(0.01, 0.95, 95):
        x = float(x)
        fd = _fd_first(lambda t: atanh_stable(t), x)
        assert atanh_derivative(x) == pytest.approx(fd, rel=1e-6)


def test_second_derivative_matches_finite_differences():
    for x in np.linspace(0.01, 0.95, 95):
        x = float(x)
        fd = _fd_second(lambda t: atanh_stable(t), x)
        assert atanh_second_derivative(x) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, float("nan")])
def test_second_derivative_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        atanh_second_derivative(bad)


@pytest.mark.parametrize("bad", [1.0, -0.5, float("nan")])
def test_first_derivative_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        atanh_derivative(bad)


SCALAR_ARGUMENTS = {  # each scalar argument, the others held at valid values
    "atanh_stable": atanh_stable,
    "atanh_derivative": atanh_derivative,
    "atanh_second_derivative": atanh_second_derivative,
    "convexity_margin r": lambda v: convexity_margin(v, 1.0),
    "convexity_margin x": lambda v: convexity_margin(0.5, v),
    "poincare_distance z": lambda v: poincare_distance(v, 0.1j),
    "poincare_distance w": lambda v: poincare_distance(0.1j, v),
}


@pytest.mark.parametrize("name", SCALAR_ARGUMENTS)
def test_scalar_arguments_must_be_numbers(name):
    call = SCALAR_ARGUMENTS[name]
    assert math.isfinite(call(0.5)) and call(np.float32(0.5)) == call(0.5)
    for bad in ("0.5", b"0.5", None, True, [0.5], 10**400):
        with pytest.raises(StructuralError):
            call(bad)
    for bad in (float("nan"), np.float64("nan"), math.inf, -math.inf):
        with pytest.raises(DomainError):
            call(bad)


def test_scalar_and_array_kernels_are_bit_identical():
    rng = np.random.default_rng(29)
    r = np.sqrt(rng.random((2, 5000))) * (1.0 - 1e-6)
    zs, ws = r * np.exp(2j * np.pi * rng.random((2, 5000)))
    scalar = [poincare_distance(z, w) for z, w in zip(zs.tolist(), ws.tolist())]
    assert scalar == poincare_distance_many(zs, ws).tolist()


# -- the quotient: one square root, or the hypot form where squares underflow ----------


def _disk_points(rng, n):
    return np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def _quotient_pairs() -> dict:
    """Pairs separated by 1e-150, 1e-160, 1e-170 and 1e-300, whose squared differences
    are below 2**-968, subnormal or 0, and pairs with one point within 1e-8 or 1e-15 of
    the rim."""
    rng, pairs = np.random.default_rng(31), {}
    for gap in (1e-150, 1e-160, 1e-170, 1e-300):
        pairs[f"gap {gap:g}"] = _disk_points(rng, 200) * gap, _disk_points(rng, 200) * gap
    for eps in (1e-8, 1e-15):
        rim = (1.0 - eps) * np.exp(2j * np.pi * rng.random(200))
        pairs[f"rim {eps:g}, disk"] = rim, _disk_points(rng, 200)
        pairs[f"rim {eps:g}, inward"] = rim, rim * (1.0 - 0.5 * rng.random(200))
    return pairs


QUOTIENT_PAIRS = _quotient_pairs()


def _hypot_form(z: complex, w: complex) -> float:
    """The distance with the quotient of two libm hypots: abs of a complex."""
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    return atanh_stable(abs(z - w) / abs(complex(1.0 - (wr * zr + wi * zi), wr * zi - wi * zr)))


def _finite_pairs(name: str):
    """The named pairs with a finite distance in both forms: a pair near the rim may be
    at the atanh guard, and the two forms may decide it differently there."""
    zs, ws = QUOTIENT_PAIRS[name]
    keep = []
    for i, (z, w) in enumerate(zip(zs.tolist(), ws.tolist())):
        try:
            _hypot_form(z, w), poincare_distance(z, w)
        except DomainError:
            continue
        keep.append(i)
    return zs[keep], ws[keep]


@pytest.mark.parametrize("name", QUOTIENT_PAIRS)
def test_quotient_is_bit_identical_scalar_and_bulk_and_under_swap(name):
    zs, ws = _finite_pairs(name)
    assert len(zs) >= 20  # most "rim 1e-15, disk" pairs are at the guard
    scalar = [poincare_distance(z, w) for z, w in zip(zs.tolist(), ws.tolist())]
    assert scalar == poincare_distance_many(zs, ws).tolist()
    assert scalar == poincare_distance_many(ws, zs).tolist()
    assert scalar == [poincare_distance(w, z) for z, w in zip(zs.tolist(), ws.tolist())]


@pytest.mark.parametrize("name", QUOTIENT_PAIRS)
def test_quotient_is_as_accurate_as_the_hypot_form(name):
    # Against mpmath at 200 bits, each distance errs by no more than the hypot form's
    # distance on the same pair plus what 8 ulp of the quotient t can add to it: the
    # condition of atanh at t, t / ((1 - t^2) atanh t), times 8 * 2**-53.
    zs, ws = _finite_pairs(name)
    with mp.workprec(200):
        for z, w, d in zip(zs.tolist(), ws.tolist(), poincare_distance_many(zs, ws).tolist()):
            zm, wm = mp.mpc(z), mp.mpc(w)
            t = abs(zm - wm) / abs(1 - mp.conj(wm) * zm)
            exact = mp.atanh(t)
            condition = t / ((1 - t * t) * exact)
            error, hypot_error = (float(abs(v - exact) / exact) for v in (d, _hypot_form(z, w)))
            assert error <= hypot_error + 8 * 2.0**-53 * float(condition), (z, w)
            if name.startswith("gap"):  # squares that are no normal doubles take the hypot form
                assert d == _hypot_form(z, w)


@pytest.mark.parametrize("z, w", [([1.0], [1.0]), ([math.nan], [0.1]), ([0.1], [math.nan])])
def test_bulk_kernel_rejects_nan_quotients(z, w):
    # 1 and 1 give 0 / 0: the guard must not let a NaN quotient through as a distance
    with pytest.raises(DomainError):
        poincare_distance_many(np.array(z, complex), np.array(w, complex))


# -- the kernel is internal: the checked bulk distance is Domain.caratheodory_many ----------


def test_the_kernel_is_not_exported():
    assert "poincare_distance_many" not in cmetric.__all__
    assert cmetric.domains.poincare_distance_many is poincare_distance_many


@pytest.mark.parametrize("xs, ys", [([2.0], [3.0]), ([1.5j], [-2.0])])
def test_the_checked_bulk_distance_names_a_point_outside(xs, ys):
    with pytest.raises(DomainError, match=r"xs\[0\]"):
        UnitDisk().caratheodory_many(xs, ys)


def test_the_checked_bulk_distance_is_the_kernel_inside_the_disk():
    # the unit chart folds away: no pull, one column, its row maximum the column itself
    rng = np.random.default_rng(37)
    r = np.sqrt(rng.random((2, 10_000))) * (1.0 - 1e-6)
    zs, ws = r * np.exp(2j * np.pi * rng.random((2, 10_000)))
    checked = UnitDisk().caratheodory_many(zs, ws)
    assert checked.tobytes() == poincare_distance_many(zs, ws).tobytes()
