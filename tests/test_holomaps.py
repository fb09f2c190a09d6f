"""Unit tests for the holomorphic-map syntax tree and its sampling checks."""

import mpmath as mp
import numpy as np
import pytest

from cmetric import (
    Affine,
    CapabilityError,
    Compose,
    DiagonalProduct,
    DomainError,
    Identity,
    Mobius,
    NumericError,
    Polydisk,
    Polynomial,
    SampleStream,
    ScaledDisk,
    ScalarScale,
    StructuralError,
    UnitDisk,
    image_bound,
    random_selfmap,
    schwarz_pick_gap,
)

mp.mp.dps = 40

# omega(0.3, 0.6) - omega(0.09, 0.36), mpmath oracle
GAP_SQUARE_03_06 = 0.09698586302479034


# -- evaluation -----------------------------------------------------------------


def test_identity_returns_input():
    f = Identity(2)
    p = (0.1 + 0.2j, -0.3j)
    assert f.evaluate(p) == p


def test_mobius_centering_property():
    assert Mobius(0.5).evaluate((0.5,))[0] == 0.0
    assert Mobius(0.5).evaluate((0.0,))[0] == -0.5


def test_polynomial_fixed_point_example():
    # z/2 + 1/4 fixes z = 1/2 exactly
    f = Polynomial(((0.25, 0.5),))
    assert f.evaluate((0.5,))[0] == 0.5


def test_polynomial_acts_per_coordinate():
    f = Polynomial(((0.0, 1.0), (1.0, 0.0, 2.0)))
    out = f.evaluate((0.5j, 0.5))
    assert out == (0.5j, 1.5)


def test_affine_applies_matrix_and_offset():
    f = Affine(matrix=((1, 1j), (0, 2)), offset=(1, -1))
    out = f.evaluate((1.0, 2.0))
    assert out == (1 + 1j * 2 + 1, 2 * 2 - 1)


def test_diagonal_product_routes_coordinates():
    f = DiagonalProduct((Mobius(0.5), Identity(1)))
    out = f.evaluate((0.5, 0.3j))
    assert out == (0.0, 0.3j)


def test_scale_multiplies():
    assert ScalarScale(0.5, dim=2).evaluate((0.4, -0.2j)) == (0.2, -0.1j)


def test_compose_is_bit_for_bit_nested_evaluation():
    rng = np.random.default_rng(2)
    inner = Polynomial(((0.1 + 0.05j, 0.3, 0.0, 0.2),))
    outer = Mobius(0.3 - 0.2j)
    comp = Compose(outer, inner)
    for _ in range(100):
        p = (complex(*rng.uniform(-0.7, 0.7, 2)),)
        assert comp.evaluate(p) == outer.evaluate(inner.evaluate(p))


def test_evaluate_many_matches_scalar():
    rng = np.random.default_rng(4)

    def box(dim):
        return rng.uniform(-0.6, 0.6, (40, dim)) + 1j * rng.uniform(-0.6, 0.6, (40, dim))

    cases = [
        (Mobius(0.4 + 0.1j), box(1)),
        (Polynomial(((0.1, 0.2, 0.3),)), box(1)),
        (Compose(ScalarScale(0.7), Mobius(-0.2j)), box(1)),
        (Identity(2), box(2)),
        (Affine(((0.3, 0.2j), (0.1 - 0.1j, 0.4)), (0.05, -0.02j)), box(2)),
        (Affine(((0.3, 0.2j, -0.1),), (0.05,)), box(3)),
        (DiagonalProduct((Mobius(0.2), Polynomial(((0.1, 0.5),)))), box(2)),
        (Polynomial(((0.3 - 0.1j,),)), box(1)),  # degree 0: a constant column
        (Polynomial(((0.1, 0.2, 0.3), (0.5j, 0.1))), box(2)),
    ]
    for n in (2, 3, 4):
        dom = Polydisk((1.0, 0.5, 0.8, 0.3)[:n])
        cases.append(
            (random_selfmap(dom, seed=50 + n, contraction_bias=0.7),
             dom.sample(SampleStream(seed=n, count=40)))
        )
    for f, pts in cases:
        bulk = f.evaluate_many(pts)
        assert bulk.shape == (pts.shape[0], f.out_dim)
        for i in range(pts.shape[0]):
            single = f.evaluate(tuple(complex(c) for c in pts[i]))
            for j in range(f.out_dim):
                assert bulk[i, j] == pytest.approx(single[j], rel=1e-13, abs=1e-14)


def test_structural_validation():
    with pytest.raises(StructuralError):
        Compose(Mobius(0.1), Identity(2))  # 2 -> 1 mismatch
    with pytest.raises(StructuralError):
        DiagonalProduct((Identity(2),))
    with pytest.raises(StructuralError):
        Polynomial(((),))
    with pytest.raises(StructuralError):
        Polynomial((tuple(range(18)),))  # degree 17 beyond the cap
    with pytest.raises(DomainError):
        Mobius(1.0)
    with pytest.raises(StructuralError):
        ScalarScale(0.0)
    with pytest.raises(StructuralError):
        Affine(matrix=((1, 0),), offset=(0, 0))


def test_evaluate_validates_input():
    with pytest.raises(StructuralError):
        Mobius(0.1).evaluate((0.1, 0.2))
    with pytest.raises(DomainError):
        Mobius(0.1).evaluate((complex("nan"),))


def test_nonfinite_output_raises_numeric_error():
    pole = 1.0 / 0.5  # Mobius(0.5) blows up at conj-inverse point z = 2
    with pytest.raises(NumericError):
        Mobius(0.5).evaluate((pole,))
    with pytest.raises(NumericError):
        Mobius(0.5).evaluate_many(np.array([[pole]], dtype=complex))
    with pytest.raises(NumericError):
        Polynomial(((1e308, 1e308),)).evaluate((2.0,))
    # a constant subtree runs in Python arithmetic on the bulk path too
    into_pole = Compose(Mobius(0.5), Polynomial(((pole,),)))
    with pytest.raises(NumericError):
        into_pole.evaluate((0.1,))
    with pytest.raises(NumericError):
        into_pole.evaluate_many(np.array([[0.1], [0.2j]], dtype=complex))


# -- Schwarz-Pick gap -------------------------------------------------------------


def test_gap_is_zero_for_identity():
    assert schwarz_pick_gap(Identity(1), 0.3, -0.2 + 0.4j) == 0.0


def test_gap_vanishes_for_automorphisms():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, z, w = (0.9 * complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(3))
        assert abs(schwarz_pick_gap(Mobius(a), z, w)) <= 1e-10


def test_gap_for_squaring_map_matches_oracle():
    f = Polynomial(((0.0, 0.0, 1.0),))  # z -> z^2
    got = schwarz_pick_gap(f, 0.3, 0.6)
    expected = float(
        mp.atanh(mp.mpf("0.3") / mp.mpf("0.82")) - mp.atanh(mp.mpf("0.27") / mp.mpf("0.9676"))
    )
    assert expected == GAP_SQUARE_03_06
    assert got == pytest.approx(GAP_SQUARE_03_06, rel=1e-12)
    assert got >= 0.0


def test_gap_never_negative_for_generated_selfmaps():
    disk = UnitDisk()
    rng = np.random.default_rng(13)
    for seed in range(20):
        f = random_selfmap(disk, seed=seed, contraction_bias=0.6)
        for _ in range(50):
            z, w = (complex(*rng.uniform(-0.68, 0.68, 2)) for _ in range(2))
            assert schwarz_pick_gap(f, z, w) >= -1e-10


def test_gap_strictly_positive_for_strict_contractions():
    f = random_selfmap(UnitDisk(), seed=5, contraction_bias=0.5)
    report = image_bound(f, UnitDisk(), UnitDisk(), SampleStream(seed=1, count=2000))
    assert report.margin_to_target >= 0.1
    rng = np.random.default_rng(19)
    for _ in range(100):
        z, w = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2))
        if abs(z - w) > 1e-9:
            assert schwarz_pick_gap(f, z, w) > 0.0


def test_gap_rejects_escaping_images():
    with pytest.raises(DomainError):
        schwarz_pick_gap(ScalarScale(3.0), 0.5, 0.1)


def test_gap_requires_one_dimensional_maps():
    with pytest.raises(StructuralError):
        schwarz_pick_gap(Identity(2), 0.1, 0.2)


# -- image bounds ------------------------------------------------------------------


def test_image_bound_half_plus_quarter():
    f = Polynomial(((0.25, 0.5),))
    report = image_bound(f, UnitDisk(), UnitDisk(), SampleStream(seed=3, count=20_000))
    assert report.sup_modulus_estimate == pytest.approx(0.75, abs=5e-3)
    assert report.margin_to_target == pytest.approx(0.25, abs=5e-3)
    assert report.sample_count == 20_000 and report.seed == 3


def test_image_bound_identity_has_vanishing_margin():
    report = image_bound(
        Identity(1), UnitDisk(), UnitDisk(), SampleStream(seed=5, count=20_000)
    )
    assert 0.0 < report.margin_to_target < 2e-3


def test_image_bound_constant_map():
    report = image_bound(
        Polynomial(((0.0,),)), UnitDisk(), UnitDisk(), SampleStream(seed=7, count=100)
    )
    assert report.sup_modulus_estimate == 0.0
    assert report.margin_to_target == 1.0


def test_image_bound_outside_target_reports_nonpositive_margin():
    report = image_bound(
        ScalarScale(2.0), UnitDisk(), UnitDisk(), SampleStream(seed=9, count=500)
    )
    assert report.margin_to_target <= 0.0


def test_image_bound_sup_is_prefix_monotone():
    f = Polynomial(((0.25, 0.5),))
    sups = [
        image_bound(f, UnitDisk(), UnitDisk(), SampleStream(seed=11, count=n)).sup_modulus_estimate
        for n in (100, 1000, 10_000)
    ]
    assert sups[0] <= sups[1] <= sups[2]


def test_image_bound_checks_dimensions():
    with pytest.raises(StructuralError):
        image_bound(Identity(2), UnitDisk(), UnitDisk(), SampleStream(seed=1, count=10))
    with pytest.raises(StructuralError):
        image_bound(Identity(1), UnitDisk(), Polydisk((1, 1)), SampleStream(seed=1, count=10))


# -- generated self-maps --------------------------------------------------------------


def test_random_selfmap_is_deterministic():
    a = random_selfmap(UnitDisk(), seed=21, contraction_bias=0.5)
    b = random_selfmap(UnitDisk(), seed=21, contraction_bias=0.5)
    assert a == b
    c = random_selfmap(UnitDisk(), seed=22, contraction_bias=0.5)
    assert a != c


@pytest.mark.parametrize("seed", range(12))
def test_random_selfmap_image_containment(seed):
    bias = 0.5
    f = random_selfmap(UnitDisk(), seed=seed, contraction_bias=bias)
    pts = UnitDisk().sample(SampleStream(seed=100 + seed, count=3000))
    images = f.evaluate_many(pts)
    assert (np.abs(images) <= bias * (1 + 1e-12)).all()


def test_random_selfmap_margin_tracks_bias():
    for bias in (0.3, 0.7, 0.95):
        f = random_selfmap(UnitDisk(), seed=33, contraction_bias=bias)
        report = image_bound(f, UnitDisk(), UnitDisk(), SampleStream(seed=2, count=2000))
        assert report.margin_to_target >= 1 - bias - 1e-9


def test_random_selfmap_on_polydisk():
    dom = Polydisk((1.0, 0.5))
    f = random_selfmap(dom, seed=44, contraction_bias=0.5)
    assert f.in_dim == f.out_dim == 2
    pts = dom.sample(SampleStream(seed=3, count=2000))
    images = f.evaluate_many(pts)
    scaled = Polydisk((0.5, 0.25))
    assert (scaled.boundary_proximity_many(images) <= 1 + 1e-12).all()


def _disk_factor(g):
    """The disk self-map of a polydisk factor: below its outer scaling by
    bias * r, and above its inner scaling by 1 / r where it has one."""
    f = g.inner
    return f.outer if isinstance(f, Compose) and isinstance(f.inner, ScalarScale) else f


def _nodes(f):
    yield f
    for child in (getattr(f, "outer", None), getattr(f, "inner", None), *getattr(f, "factors", ())):
        if child is not None:
            yield from _nodes(child)


def test_random_selfmap_leaves_out_unit_scalings():
    for radii in ((1.0,), (1.0, 1.0, 1.0), (1.0, 0.5), (0.3, 0.8)):
        f = random_selfmap(Polydisk(radii), seed=7, contraction_bias=0.7)
        scales = [g.factor for g in _nodes(f) if isinstance(g, ScalarScale)]
        assert 1.0 not in scales
        # one outer scaling per factor, and an inner one where the radius is not 1
        assert len(scales) == len(radii) + sum(r != 1.0 for r in radii)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_selfmap_on_polydisk_matches_diagonal_affine_form(n):
    # The coordinatewise scalings equal the diagonal matrices they replace.
    radii = (1.0, 0.5, 0.8, 0.3)[:n]
    dom, bias = Polydisk(radii), 0.7
    f = random_selfmap(dom, seed=60 + n, contraction_bias=bias)
    factors = tuple(_disk_factor(g) for g in f.factors)

    def diagonal(entries):
        rows = tuple(tuple(e if i == j else 0.0 for j in range(n)) for i, e in enumerate(entries))
        return Affine(rows, (0.0,) * n)

    old = Compose(
        diagonal([bias * r for r in radii]),
        Compose(DiagonalProduct(factors), diagonal([1.0 / r for r in radii])),
    )
    pts = dom.sample(SampleStream(seed=n, count=500))
    assert f.evaluate_many(pts).tobytes() == old.evaluate_many(pts).tobytes()
    for row in pts[:100]:
        p = tuple(complex(c) for c in row)
        assert np.array(f.evaluate(p)).tobytes() == np.array(old.evaluate(p)).tobytes()


def test_random_selfmap_rejects_unsupported_domains_and_bias():
    with pytest.raises(CapabilityError):
        random_selfmap(ScaledDisk(0.5), seed=1, contraction_bias=0.5)
    with pytest.raises(DomainError):
        random_selfmap(UnitDisk(), seed=1, contraction_bias=1.0)
    with pytest.raises(DomainError):
        random_selfmap(UnitDisk(), seed=1, contraction_bias=0.0)


def test_random_selfmap_bias_is_a_real_number():
    for bad in ("0.5", b"0.5", None, True, 0.5j, 10**400):
        with pytest.raises(StructuralError):
            random_selfmap(UnitDisk(), seed=1, contraction_bias=bad)
    for bad in (float("nan"), float("inf"), -0.5):
        with pytest.raises(DomainError):
            random_selfmap(Polydisk((1.0,)), seed=1, contraction_bias=bad)
    assert random_selfmap(UnitDisk(), 1, np.float32(0.5)) == random_selfmap(UnitDisk(), 1, 0.5)
