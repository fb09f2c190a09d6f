"""Unit tests for domain kinds: membership, sampling, exact distances."""

import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cmetric import (
    Affine,
    AffineDiskImage,
    AffineImage,
    Compose,
    ContractionCertificate,
    DiagonalProduct,
    DomainError,
    FixedPointProblem,
    Identity,
    Mobius,
    Polydisk,
    Polynomial,
    SampleStream,
    ScalarScale,
    ScaledDisk,
    StructuralError,
    UnitDisk,
    as_point,
    diameter,
    random_selfmap,
    solve,
    verify_nesting,
)
from cmetric.domains import _row_max

mp.mp.dps = 40

ATANH_HALF = 0.5493061443340549  # atanh(0.5), mpmath oracle


def mp_omega(z, w):
    z, w = mp.mpc(z), mp.mpc(w)
    return float(mp.atanh(abs((z - w) / (1 - mp.conj(w) * z))))


# -- point coercion -------------------------------------------------------------


def test_as_point_accepts_scalars_and_sequences():
    assert as_point(0.5) == (0.5 + 0j,)
    assert as_point(1j) == (1j,)
    assert as_point([0.1, 0.2 + 0.3j]) == (0.1 + 0j, 0.2 + 0.3j)
    assert as_point(np.array([0.1 + 0j, 0.2j])) == (0.1 + 0j, 0.2j)


def test_as_point_validates_dimension_and_finiteness():
    with pytest.raises(StructuralError):
        as_point((0.1, 0.2), dim=1)
    with pytest.raises(StructuralError):
        as_point(())
    with pytest.raises(DomainError):
        as_point(complex("nan"))
    with pytest.raises(DomainError):
        as_point([0.1, complex("inf")])
    # text and unconvertible values are malformed points, not numbers
    for bad in ("12", b"12", ["0.1"], [b"0.1"], [object()], [[0.1], 0.2]):
        with pytest.raises(StructuralError):
            as_point(bad)


def test_points_too_large_for_a_double_are_structural_errors():
    huge = 10**400
    for call in (
        lambda: as_point(huge),
        lambda: as_point((0.1, huge)),
        lambda: UnitDisk().contains(huge),
        lambda: UnitDisk().caratheodory(0.0, huge),
        lambda: Mobius(0.1).evaluate(huge),
        lambda: UnitDisk().contains_many([huge]),
        lambda: Polydisk((1.0, 1.0)).caratheodory_many([[0.1, huge]], [[0.0, 0.0]]),
    ):
        with pytest.raises(StructuralError, match="too large for a double"):
            call()
    # bools are not coordinates, and an object array is read entry by entry
    with pytest.raises(StructuralError):
        as_point((True, 0.0))
    with pytest.raises(DomainError):
        UnitDisk().contains_many(np.array([0.1, math.inf], dtype=object))
    assert UnitDisk().contains_many(np.array([0.1, 2**70], dtype=object)).tolist() == [True, False]


def test_sample_stream_validation():
    with pytest.raises(StructuralError):
        SampleStream(seed=-1, count=10)
    with pytest.raises(StructuralError):
        SampleStream(seed=1, count=0)
    with pytest.raises(StructuralError):
        SampleStream(seed=1, count=10, boundary_margin=0.0)
    with pytest.raises(StructuralError):
        SampleStream(seed=1, count=10, boundary_margin=1.0)
    with pytest.raises(StructuralError):
        SampleStream(seed=1, count=10, start=-1)


@pytest.mark.parametrize(
    "fields",
    [
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": True},
        {"seed": None},
        {"count": 2.5},
        {"count": "10"},
        {"count": True},
        {"start": 0.5},
        {"start": "3"},
        {"start": False},
        {"boundary_margin": "0.1"},
        {"boundary_margin": b"0.1"},
        {"boundary_margin": True},
        {"boundary_margin": 0.1j},
        {"boundary_margin": None},
    ],
)
def test_sample_stream_rejects_fractions_text_and_bools(fields):
    with pytest.raises(StructuralError):
        SampleStream(**{"seed": 1, "count": 10, **fields})


def test_sample_stream_stores_typed_fields():
    stream = SampleStream(seed=np.uint64(7), count=10.0, boundary_margin=np.float32(0.25), start=3.0)
    assert (stream.seed, stream.count, stream.start, stream.boundary_margin) == (7, 10, 3, 0.25)
    assert [type(v) for v in (stream.seed, stream.count, stream.start)] == [int, int, int]
    assert type(stream.boundary_margin) is float
    assert UnitDisk().sample(stream).shape == (10, 1)


# -- membership ------------------------------------------------------------------


def test_unit_disk_membership():
    d = UnitDisk()
    assert d.contains(0, 0.0)
    assert not d.contains(1 + 0j, 0.0)  # boundary point of an open set
    assert not d.contains(1.2, 0.0)
    assert d.contains(0.9999, 0.0)


def test_scaled_disk_margin_rule():
    d = ScaledDisk(0.5)
    # 0.49 > 0.5 * (1 - 0.05) = 0.475
    assert not d.contains(0.49, 0.05)
    assert d.contains(0.47, 0.05)
    assert not d.contains(0.5, 0.0)


def test_polydisk_membership_is_per_coordinate():
    d = Polydisk((1.0, 0.5))
    assert d.contains((0.9, 0.49))
    assert not d.contains((0.9, 0.51))
    assert not d.contains((1.0, 0.1))
    assert d.contains((0.5, 0.25), margin=0.4)
    assert not d.contains((0.7, 0.25), margin=0.4)


def test_affine_image_membership_pulls_back():
    # rotate the polydisk by 90 degrees and shift
    dom = AffineImage(
        base=Polydisk((1.0, 0.5)),
        matrix=((0, -1), (1, 0)),
        offset=(2.0, 1.0),
    )
    # pullback of (2 + i*0.3, 1 + i*0.4): A^-1 ((0.3j, 0.4j)) with A the rotation
    assert dom.contains((2 + 0.3j, 1 + 0.4j))
    assert not dom.contains((2 + 0.6j, 1 + 0.4j))


def test_membership_dimension_mismatch():
    with pytest.raises(StructuralError):
        UnitDisk().contains((0.1, 0.2))
    with pytest.raises(StructuralError):
        Polydisk((1.0, 1.0)).contains(0.1)


def test_malformed_points_are_structural_errors():
    disk = UnitDisk()
    for bad in ("abc", "0.1", b"0.1", [object()], [[0.1], [0.2, 0.3]]):
        with pytest.raises(StructuralError):
            disk.contains(bad)
        with pytest.raises(StructuralError):
            disk.caratheodory(0.0, bad)
    for bad in ("0.1", ["0.1"], [b"0.1"], np.array(["0.1"]), [object()], [[0.1], [0.2, 0.3]]):
        with pytest.raises(StructuralError):
            disk.contains_many(bad)
        with pytest.raises(StructuralError):
            disk.caratheodory_many(bad, [0.2])
    with pytest.raises(StructuralError):
        disk.contains_many(np.array([0.1, "0.2"], dtype=object))
    with pytest.raises(StructuralError):
        Polydisk((1.0, 1.0)).contains_many([[0.1, 0.2], [0.3]])


def test_membership_negative_margin_rejected():
    with pytest.raises(DomainError):
        UnitDisk().contains(0.1, margin=-0.1)


def test_membership_margin_must_be_a_real_number():
    disk = UnitDisk()
    for bad in ("abc", b"0.1", None, True, 0.1j):
        with pytest.raises(StructuralError):
            disk.contains(0.5, bad)
        with pytest.raises(StructuralError):
            disk.contains_many([0.5], bad)
    for bad in (float("nan"), -1):
        with pytest.raises(DomainError):
            disk.contains(0.5, bad)
        with pytest.raises(DomainError):
            disk.contains_many([0.5], bad)
    for margin in (0, np.float32(0.25), np.int64(0)):
        assert disk.contains(0.5, margin)
        assert disk.contains_many([0.5], margin).tolist() == [True]
    assert not disk.contains(0.5, 0.6)


# -- construction validation ------------------------------------------------------


def _set(name, shape=lambda v: v):
    return lambda v: {name: shape(v)}


_CERT = diameter(UnitDisk(), ScaledDisk(0.5))

# class: (valid fields, numpy and integral-float fields it accepts, and where an
# int, a real and a complex value go); UnitDisk, DiagonalProduct and Compose
# have no numeric fields
TYPED_FIELDS = {
    SampleStream: (
        dict(seed=1, count=10),
        dict(seed=np.uint64(7), count=10.0, boundary_margin=np.float32(0.25), start=np.int64(3)),
        _set("count"), _set("boundary_margin"), None,
    ),
    ScaledDisk: (dict(radius=0.5), dict(radius=np.float32(0.25)), None, _set("radius"), None),
    AffineDiskImage: (
        dict(center=0.1j, radius=0.5),
        dict(center=np.complex64(0.5j), radius=np.int64(2)),
        None, _set("radius"), _set("center"),
    ),
    Polydisk: (
        dict(radii=(0.5, 1.0)), dict(radii=np.array([0.5, 2.0])),
        None, _set("radii", lambda v: (v, 1.0)), None,
    ),
    AffineImage: (
        dict(base=Polydisk((1.0, 1.0)), matrix=((1.0, 0.0), (0.0, 1.0)), offset=(0.0, 0.0)),
        dict(matrix=np.eye(2), offset=np.zeros(2, dtype=complex)),
        None, None, _set("matrix", lambda v: ((v, 0.0), (0.0, 1.0))),
    ),
    Identity: (dict(dim=2), dict(dim=np.int32(3)), _set("dim"), None, None),
    Mobius: (dict(a=0.5), dict(a=np.complex128(0.5j)), None, None, _set("a")),
    Polynomial: (
        dict(coeffs=((0.1, 0.5),)), dict(coeffs=np.array([[0.1, 0.5]])),
        None, None, _set("coeffs", lambda v: ((0.1, v),)),
    ),
    Affine: (
        dict(matrix=((0.5,),), offset=(0.1,)),
        dict(matrix=np.array([[2]]), offset=[np.float16(0.5)]),
        None, None, _set("offset", lambda v: (v,)),
    ),
    ScalarScale: (
        dict(factor=0.5, dim=2), dict(factor=np.float64(0.5), dim=2.0),
        _set("dim"), _set("factor"), None,
    ),
    FixedPointProblem: (
        dict(ambient=UnitDisk(), inner=ScaledDisk(0.5), mapping=ScalarScale(0.5), start=0.0,
             tolerance=1e-3),
        dict(tolerance=np.float32(0.25), max_iter=np.int64(3)),
        _set("max_iter"), _set("tolerance"), None,
    ),
    ContractionCertificate: (
        dataclasses.asdict(_CERT),
        dict(M=np.float64(_CERT.M), sample_count=0.0, seed=np.uint64(5)),
        _set("seed"), _set("M"), None,
    ),
}

_PYTHON_TYPE = {"int": int, "int | None": int, "float": float, "complex": complex,
                "tuple[float, ...]": float, "tuple[complex, ...]": complex,
                "tuple[tuple[complex, ...], ...]": complex}


def _scalars(value):
    return [s for v in value for s in _scalars(v)] if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("cls", list(TYPED_FIELDS), ids=lambda cls: cls.__name__)
def test_constructor_fields_are_typed(cls):
    valid, accepted, at_int, at_real, at_complex = TYPED_FIELDS[cls]
    bad = [at(v) for at in (at_int, at_real, at_complex) if at for v in ("2", b"1", True)]
    bad += [at(v) for at in (at_real, at_complex) if at for v in (None, 10**400)]
    bad += [at_int(v) for v in (2.5, Fraction(5, 2), math.nan)] if at_int else []
    bad += [at_real(v) for v in (0.5j, math.nan, math.inf)] if at_real else []
    for fields in bad:
        with pytest.raises(StructuralError):
            cls(**{**valid, **fields})
    # a non-finite value is malformed, except that a Mobius parameter lies outside the disk
    nonfinite = DomainError if cls is Mobius else StructuralError
    for v in (complex(math.nan, 0.0), complex(0.0, math.inf)) if at_complex else ():
        with pytest.raises(nonfinite):
            cls(**{**valid, **at_complex(v)})
    value = cls(**{**valid, **accepted})
    for field in dataclasses.fields(cls):
        if field.type in _PYTHON_TYPE and getattr(value, field.name) is not None:
            scalars = _scalars(getattr(value, field.name))
            assert {type(s) for s in scalars} == {_PYTHON_TYPE[field.type]}, field.name
            if field.name in accepted:
                assert scalars == np.ravel(accepted[field.name]).tolist()


def test_fields_annotated_with_a_class_hold_instances():
    problem = dict(ambient=UnitDisk(), inner=ScaledDisk(0.5), mapping=ScalarScale(0.5), start=0.0,
                   tolerance=1e-3)
    for make in (
        lambda: Compose(1, 2),
        lambda: Compose(Identity(), "x"),
        lambda: DiagonalProduct((1,)),
        lambda: DiagonalProduct((Identity(), None)),
        lambda: AffineImage("x", ((1.0,),), (0.0,)),
        lambda: AffineImage(Identity(), ((1.0,),), (0.0,)),
        lambda: FixedPointProblem(**{**problem, "ambient": "x"}),
        lambda: FixedPointProblem(**{**problem, "inner": ScalarScale(0.5)}),
        lambda: FixedPointProblem(**{**problem, "mapping": UnitDisk()}),
    ):
        with pytest.raises(StructuralError):
            make()
    assert DiagonalProduct([Identity()]).factors == (Identity(),)


def test_row_maxima_match_numpy_row_by_row():
    rng = np.random.default_rng(3)
    for width in range(1, 9):
        values = rng.random((257, width))
        values[5, width - 1] = np.nan
        expected = values.max(axis=1)
        assert _row_max(values).tobytes() == expected.tobytes()
    disk = Polydisk((1.0, 0.5, 0.8))
    xs, ys = (disk.sample(SampleStream(seed=s, count=1000)) for s in (1, 2))
    per_coordinate = disk._distances(xs, ys, ("xs", "ys"))
    assert disk.caratheodory_many(xs, ys).tobytes() == per_coordinate.max(axis=1).tobytes()
    proximity = np.abs(disk._pull(xs)).max(axis=1)
    assert disk.boundary_proximity_many(xs).tobytes() == proximity.tobytes()
    assert (disk.contains_many(xs, 0.01) == (proximity < 0.99)).all()


def test_domain_constructor_validation():
    with pytest.raises(StructuralError):
        ScaledDisk(1.0)
    with pytest.raises(StructuralError):
        ScaledDisk(0.0)
    with pytest.raises(StructuralError):
        AffineDiskImage(0.1, 0.0)
    with pytest.raises(StructuralError):
        Polydisk(())
    with pytest.raises(StructuralError):
        Polydisk((1.0, -0.5))
    with pytest.raises(StructuralError):
        AffineImage(base=UnitDisk(), matrix=((0,),), offset=(0,))  # singular
    with pytest.raises(StructuralError):
        AffineImage(base=Polydisk((1, 1)), matrix=((1, 0),), offset=(0, 0))
    # subnormal radii: the chart inverse overflows, so the chart is rejected
    with pytest.raises(StructuralError):
        ScaledDisk(1e-310)
    with pytest.raises(StructuralError):
        AffineDiskImage(0.5, 1e-310)
    with pytest.raises(StructuralError):
        Polydisk((1.0, 1e-310))
    with pytest.raises(StructuralError):
        # each matrix is well conditioned, but the composed chart underflows to 0
        AffineImage(base=ScaledDisk(1e-200), matrix=((1e-200,),), offset=(0,))
    # tiny but invertible charts are kept and contain their own center
    assert ScaledDisk(1e-300).caratheodory(0, 5e-301) > 0.0


# -- sampling ----------------------------------------------------------------------


def test_sampling_is_deterministic():
    d = UnitDisk()
    s = SampleStream(seed=1, count=3)
    assert d.sample(s).tobytes() == d.sample(s).tobytes()


def test_sampling_is_prefix_stable():
    d = Polydisk((1.0, 0.7))
    big = d.sample(SampleStream(seed=9, count=50))
    small = d.sample(SampleStream(seed=9, count=12))
    assert big[:12].tobytes() == small.tobytes()


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_row_ranges_draw_the_rows_of_the_whole_stream(dim):
    d = Polydisk(tuple(0.4 + 0.05 * i for i in range(dim)))
    whole = d.sample(SampleStream(seed=21, count=3000, boundary_margin=0.01))
    for start, count in ((0, 1), (1, 1), (17, 100), (511, 513), (2999, 1), (1000, 2000)):
        part = d.sample(SampleStream(seed=21, count=count, boundary_margin=0.01, start=start))
        assert part.tobytes() == whole[start:start + count].tobytes()


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_sample_equals_the_exponential_polar_formula(dim):
    # r·cos θ + i·r·sin θ must reproduce r·exp(iθ) bit for bit, or reports change
    for seed in (0, 5, 2**64 - 1):
        for margin in (1e-3, 0.3):
            draws = np.random.default_rng(seed).random((2000, 2, dim))
            radial = np.sqrt(draws[:, 0, :]) * (1.0 - margin)
            angle = 2.0 * np.pi * draws[:, 1, :]
            expected = radial * np.exp(1j * angle)
            got = Polydisk((1.0,) * dim).sample(SampleStream(seed, 2000, margin))
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "domain",
    [
        UnitDisk(),
        ScaledDisk(0.5),
        AffineDiskImage(0.25 + 0.1j, 0.55),
        Polydisk((1.0, 1.0)),
        AffineImage(base=Polydisk((1.0, 0.5)), matrix=((1, 0.2j), (0, 1)), offset=(0.5, -0.25j)),
    ],
)
def test_samples_satisfy_membership_with_margin(domain):
    s = SampleStream(seed=7, count=2000, boundary_margin=1e-3)
    pts = domain.sample(s)
    assert pts.shape == (2000, domain.dim)
    assert domain.contains_many(pts, s.boundary_margin).all()


def test_polydisk_samples_stay_inside_unit_moduli():
    pts = Polydisk((1.0, 1.0)).sample(SampleStream(seed=5, count=500))
    assert (np.abs(pts) < 1.0).all()


def test_empirical_max_modulus_approaches_scaled_rim():
    margin = 1e-3
    pts = ScaledDisk(0.5).sample(SampleStream(seed=7, count=10_000, boundary_margin=margin))
    top = np.abs(pts).max()
    rim = 0.5 * (1 - margin)
    assert top < rim
    assert top > rim * 0.999


# -- exact distances ----------------------------------------------------------------


def test_unit_disk_distance_examples():
    d = UnitDisk()
    assert d.caratheodory(0, 0) == 0.0
    assert d.caratheodory(0, 0.5) == pytest.approx(ATANH_HALF, rel=1e-15)


def test_scaled_disk_rescales():
    assert ScaledDisk(0.5).caratheodory(0, 0.25) == pytest.approx(ATANH_HALF, rel=1e-15)


def test_polydisk_takes_coordinatewise_max():
    d = Polydisk((1.0, 1.0))
    got = d.caratheodory((0, 0), (0.5, 0.25))
    assert got == pytest.approx(ATANH_HALF, rel=1e-15)
    # the other coordinate dominates once it is scaled tighter
    d2 = Polydisk((1.0, 0.3))
    got2 = d2.caratheodory((0, 0), (0.1, 0.15))
    assert got2 == pytest.approx(mp_omega(0, 0.5), rel=1e-13)


def test_polydisk_dimension_one_reduces_to_disk():
    a = Polydisk((0.5,))
    b = ScaledDisk(0.5)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x, y = (complex(*rng.uniform(-0.35, 0.35, 2)) for _ in range(2))
        assert a.caratheodory((x,), (y,)) == b.caratheodory(x, y)


def test_affine_disk_distance_matches_oracle():
    d = AffineDiskImage(0.25 + 0.1j, 0.55)
    rng = np.random.default_rng(37)
    for _ in range(50):
        mx, my = (0.9 * complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
        x = 0.25 + 0.1j + 0.55 * mx
        y = 0.25 + 0.1j + 0.55 * my
        assert d.caratheodory(x, y) == pytest.approx(mp_omega(mx, my), rel=1e-12, abs=1e-14)


def test_inclusion_makes_ambient_distance_smaller():
    big, small = UnitDisk(), ScaledDisk(0.4)
    xs = small.sample(SampleStream(seed=41, count=400))
    ys = small.sample(SampleStream(seed=43, count=400))
    d_big = big.caratheodory_many(xs, ys)
    d_small = small.caratheodory_many(xs, ys)
    assert (d_big <= d_small + 1e-12).all()


@pytest.mark.parametrize(
    "domain",
    [UnitDisk(), Polydisk((1.0, 0.5)), AffineDiskImage(0.2, 0.7)],
)
def test_distance_axioms_on_sampled_triples(domain):
    xs = domain.sample(SampleStream(seed=47, count=300))
    ys = domain.sample(SampleStream(seed=53, count=300))
    zs = domain.sample(SampleStream(seed=59, count=300))
    dxy = domain.caratheodory_many(xs, ys)
    dyx = domain.caratheodory_many(ys, xs)
    dxz = domain.caratheodory_many(xs, zs)
    dzy = domain.caratheodory_many(zs, ys)
    assert (dxy == dyx).all()
    assert (dxy >= 0).all()
    assert (dxy <= dxz + dzy + 1e-12).all()
    diag = domain.caratheodory_many(xs, xs)
    assert (diag == 0.0).all()


def test_distance_requires_membership():
    with pytest.raises(DomainError):
        UnitDisk().caratheodory(0, 1.0)
    with pytest.raises(DomainError):
        ScaledDisk(0.5).caratheodory(0.6, 0)
    with pytest.raises(DomainError):
        Polydisk((1.0, 0.5)).caratheodory((0.2, 0.6), (0, 0))


# -- pullback isometry --------------------------------------------------------------


def pullback_isometry_check(domain, x, y):
    """|c_image(x, y) - c_base(pullback x, pullback y)| for an affine image kind.

    Both sides go through their own public distance paths; invertible affine
    maps are isometries for the Caratheodory distance, so the discrepancy
    sits at rounding level.
    """
    if isinstance(domain, AffineDiskImage):
        base = UnitDisk()
        bx, by = ((as_point(p, 1)[0] - domain.center) / domain.radius for p in (x, y))
    else:
        base = domain.base
        bx, by = domain.pullback(x), domain.pullback(y)
    return abs(domain.caratheodory(x, y) - base.caratheodory(bx, by))


def test_pullback_isometry_identity_affine_is_exact():
    dom = AffineImage(base=UnitDisk(), matrix=((1.0,),), offset=(0.0,))
    assert pullback_isometry_check(dom, 0.1, -0.3 + 0.2j) == 0.0


def test_pullback_isometry_affine_disk():
    dom = AffineDiskImage(0.25, 0.5)
    assert pullback_isometry_check(dom, 0.25, 0.5) <= 1e-12
    assert pullback_isometry_check(dom, 0.0, 0.25 + 0.2j) <= 1e-12


def test_pullback_isometry_random_affine_polydisk_image():
    dom = AffineImage(
        base=Polydisk((1.0, 0.6)),
        matrix=((1.2, 0.3 - 0.1j), (0.2j, 0.8)),
        offset=(0.4, -0.2 + 0.1j),
    )
    xs = dom.sample(SampleStream(seed=61, count=100))
    ys = dom.sample(SampleStream(seed=67, count=100))
    for x, y in zip(xs, ys):
        assert pullback_isometry_check(dom, tuple(x), tuple(y)) <= 1e-12
    assert {type(c) for c in dom.pullback(tuple(xs[0]))} == {complex}


# -- scalar and bulk paths ------------------------------------------------------------

FIVE_KINDS = [
    UnitDisk(),
    ScaledDisk(0.6),
    AffineDiskImage(0.3 - 0.2j, 0.7),
    Polydisk((0.5, 0.9, 1.3)),
    AffineImage(base=Polydisk((0.8, 0.6)), matrix=((1, 0.3), (0.2j, 1)), offset=(0.1, -0.2j)),
]

# Scalar pulls through a full matrix may round the last bits differently from
# numpy's matrix product; on the affine image below, 2e4 sampled pairs (margin
# 1e-3) read a relative difference of at most 1.6e-12.
FULL_CHART_REL = 1e-11


def _points(arr):
    return [tuple(row.tolist()) for row in arr]


@pytest.mark.parametrize("domain", FIVE_KINDS, ids=lambda d: type(d).__name__)
def test_scalar_distance_equals_bulk_distance(domain):
    xs = domain.sample(SampleStream(seed=71, count=1500))
    ys = domain.sample(SampleStream(seed=73, count=1500))
    bulk = domain.caratheodory_many(xs, ys)
    scalar = np.array([domain.caratheodory(x, y) for x, y in zip(_points(xs), _points(ys))])
    if isinstance(domain, AffineImage):
        assert (np.abs(scalar - bulk) <= FULL_CHART_REL * bulk).all()
    else:
        assert scalar.tolist() == bulk.tolist()


@pytest.mark.parametrize("domain", FIVE_KINDS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("margin", [0.0, 0.25])
def test_scalar_membership_agrees_with_bulk_away_from_the_rim(domain, margin):
    # points on lines through two interior points, reaching past the rim
    xs = domain.sample(SampleStream(seed=79, count=3000))
    ys = domain.sample(SampleStream(seed=83, count=3000))
    t = np.random.default_rng(89).uniform(-1.0, 2.0, (3000, 1))
    pts = xs + t * (ys - xs)
    away = np.abs(domain.boundary_proximity_many(pts) - (1.0 - margin)) > 1e-9
    pts = pts[away]
    bulk = domain.contains_many(pts, margin)
    assert 0 < bulk.sum() < len(pts)
    assert [domain.contains(p, margin) for p in _points(pts)] == bulk.tolist()


def test_complex_tuple_shortcut_still_checks_points():
    p = (0.1 + 0j, 0.2j)
    assert as_point(p, 2) is p
    for dim in (1, 3):
        with pytest.raises(StructuralError):
            as_point(p, dim)
    with pytest.raises(DomainError):
        as_point((0.1 + 0j, complex("nan")))
    for bad in (complex("nan"), complex("inf"), complex(0.1, float("-inf"))):
        with pytest.raises(DomainError):
            as_point((0.1 + 0j, 0.2j, bad), 3)
    # a tuple that is not all complex is coerced
    mixed = as_point((1, 0.5, 0.25j), 3)
    assert mixed == (1 + 0j, 0.5 + 0j, 0.25j)
    assert all(type(c) is complex for c in mixed)
    with pytest.raises(DomainError):
        UnitDisk().caratheodory((complex("inf"),), (0j,))


def test_scalar_membership_puts_a_nan_pull_outside():
    # A^-1 = [[2, -2], [0, 1]]: the first model coordinate of a finite point near
    # 1e308 is inf - inf = nan, which no comparison puts inside
    domain = AffineImage(Polydisk((1.0, 1.0)), ((0.5, 1.0), (0.0, 1.0)), (0.0, 0.0))
    far = (1e308 + 0j, 1e308 + 0j)
    assert not domain.contains(far)
    assert not domain.contains(far, 0.5)
    with pytest.raises(DomainError):
        domain.caratheodory(far, (0j, 0j))
    with pytest.raises(DomainError):
        domain.caratheodory((0j, 0j), far)


# -- one chart per domain ------------------------------------------------------------

KINDS = (UnitDisk, ScaledDisk, AffineDiskImage, Polydisk, AffineImage)


def _two_level_image():
    """A full-matrix affine image of an affine image of a bidisk, inside Polydisk((1.25, 1.5))."""
    return AffineImage(
        AffineImage(Polydisk((0.3, 0.3)), ((1.0, 0.2), (0.1j, 0.9)), (0.1, 0.0)),
        ((0.8, 0.1), (0.0, 1.0)),
        (0.0, 0.05j),
    )


def test_each_domain_derives_its_chart_once(monkeypatch):
    charted = []
    for cls in KINDS:

        def counted(self, _chart=cls._chart):
            charted.append(self)
            return _chart(self)

        monkeypatch.setattr(cls, "_chart", counted)
    ambient, inner = Polydisk((1.25, 1.5)), _two_level_image()
    assert len(charted) == 4 and len(set(map(id, charted))) == 4
    for _ in range(3):
        cert = diameter(ambient, inner)
    verify_nesting(ambient, inner, cert, SampleStream(seed=1, count=100))
    diameter(ambient, inner, SampleStream(seed=2, count=100))
    assert len(charted) == 4  # 22 before the chart was stored: 7 to build, 15 to use
    # solve pulls its iterates through a full-matrix inner chart and a diagonal ambient one
    bidisk = Polydisk((1.0, 1.0))
    held = AffineImage(Polydisk((0.7, 0.7)), ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    problem = FixedPointProblem(bidisk, held, random_selfmap(bidisk, 3, 0.6), (0.1, 0.2), 1e-9)
    assert len(charted) == 7
    solve(problem)
    assert len(charted) == 7


@pytest.mark.parametrize(
    "domain",
    [UnitDisk(), ScaledDisk(0.5), AffineDiskImage(0.1 + 0.2j, 0.5), Polydisk((0.5, 2.0)),
     _two_level_image(), AffineImage(UnitDisk(), ((2.0j,),), (0.5,))],
    ids=["unit", "scaled", "affine-disk", "polydisk", "affine-image", "affine-image-1d"],
)
def test_stored_chart_arrays_are_read_only(domain):
    for arr in domain._affine[:3]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_full_matrix_inner_keeps_its_stored_chart():
    # the diagonal ambient scales the rows of T = A^-1 A_inner in place: on a copy of A_inner
    ambient, inner = Polydisk((1.25, 1.5)), _two_level_image()
    before = [(arr.tobytes(), held._affine.point) for held in (ambient, inner)
              for arr in held._affine[:3]]
    cert = diameter(ambient, inner)
    verify_nesting(ambient, inner, cert, SampleStream(seed=1, count=100))
    diameter(ambient, inner, SampleStream(seed=2, count=100))
    assert diameter(ambient, inner) == cert
    after = [(arr.tobytes(), held._affine.point) for held in (ambient, inner)
             for arr in held._affine[:3]]
    assert after == before
