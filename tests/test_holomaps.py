"""Unit tests for the holomorphic-map syntax tree and its sampling checks."""

import gc
import pickle
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest

from cmetric import (
    Affine,
    AffineDiskImage,
    AffineImage,
    Compose,
    DiagonalProduct,
    DomainError,
    FixedPointProblem,
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
    solve,
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


def _walk(f, coords):
    """The tree walk that each node's formula states, the reference for the compiled map."""
    if isinstance(f, Identity):
        return tuple(coords)
    if isinstance(f, Mobius):
        (z,) = coords
        return ((z - f.a) / (1.0 - f.a.conjugate() * z),)
    if isinstance(f, Polynomial):
        out = []
        for z, row in zip(coords, f.coeffs):
            acc = row[-1]
            for c in row[-2::-1]:
                acc = acc * z + c
            out.append(acc)
        return tuple(out)
    if isinstance(f, Affine):
        return tuple(
            sum([a * z for a, z in zip(row, coords)]) + b for row, b in zip(f.matrix, f.offset)
        )
    if isinstance(f, DiagonalProduct):
        return tuple(_walk(g, (z,))[0] for g, z in zip(f.factors, coords))
    if isinstance(f, Compose):
        return _walk(f.outer, _walk(f.inner, coords))
    assert isinstance(f, ScalarScale)
    return tuple(f.factor * z for z in coords)


def _walk_many(f, pts):
    out = np.empty((pts.shape[0], f.out_dim), dtype=complex)
    with np.errstate(all="ignore"):
        for j, col in enumerate(_walk(f, tuple(pts.T))):
            out[:, j] = col
    return out


def _compiled_cases():
    rng = np.random.default_rng(8)
    cases = [(random_selfmap(UnitDisk(), seed, 0.8), UnitDisk()) for seed in range(12)]
    for n in (1, 2, 3, 4):
        for radii in ((1.0,) * n, (1.0, 0.5, 0.8, 0.3)[:n], (0.7, 1.0, 0.2, 2.5)[:n]):
            dom = Polydisk(radii)
            cases += [(random_selfmap(dom, 100 * n + seed, 0.7), dom) for seed in range(4)]
    signed = Affine(((-0.0, 1.0), (0.5j, -0.0), (-0.0j, -0.0)), (-0.0, -0.0j, 0.25))
    cases += [
        (signed, Polydisk((0.5, 0.5))),
        (Polynomial(((0.3 - 0.1j,), (-0.0, 0.5))), Polydisk((1.0, 1.0))),  # degree 0: a constant
        (Identity(3), Polydisk((1.0, 1.0, 1.0))),
    ]
    chain = Identity(1)
    for i in range(500):  # a 500-deep composition
        node = Mobius(0.3 * np.exp(0.1j * i)) if i % 2 else ScalarScale(0.999)
        chain = Compose(node, chain)
    cases.append((chain, UnitDisk()))
    wide = rng.uniform(-1, 1, (64, 64)) + 1j * rng.uniform(-1, 1, (64, 64))
    cases.append((Affine(tuple(map(tuple, wide / 128)), tuple(rng.uniform(-0.1, 0.1, 64))),
                  Polydisk((1.0,) * 64)))
    return cases


def test_compiled_map_equals_the_tree_walk():
    signed_zeros = [(-0.0, 0.0), (0.0j, -0.0j), (complex(-0.0, -0.0), complex(0.0, -0.0))]
    for f, dom in _compiled_cases():
        pts = dom.sample(SampleStream(seed=f.in_dim, count=25))
        points = [tuple(complex(c) for c in row) for row in pts]
        if f.in_dim == 2:
            points += signed_zeros
            pts = np.vstack([pts, np.array(signed_zeros, dtype=complex)])
        for p in points:
            assert repr(f.evaluate(p)) == repr(_walk(f, p)), f
        assert repr(f.evaluate_many(pts).tolist()) == repr(_walk_many(f, pts).tolist()), f


def test_evaluate_many_frees_each_intermediate_column():
    chain = Identity(1)
    for i in range(200):
        chain = Compose(Mobius(0.01j) if i % 2 else ScalarScale(0.999), chain)
    pts = UnitDisk().sample(SampleStream(seed=3, count=4096))
    chain.evaluate_many(pts[:1])
    tracemalloc.start()
    try:
        out = chain.evaluate_many(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * out.nbytes  # 200 columns kept alive would take 200 times


def test_numeric_error_messages_name_the_node_and_point():
    with pytest.raises(NumericError) as pole:
        Mobius(0.5).evaluate((2.0,))
    assert str(pole.value) == "Mobius node blew up at ((2+0j),): complex division by zero"
    with pytest.raises(NumericError) as pole_many:
        Mobius(0.5).evaluate_many(np.array([[0.0], [2.0]], dtype=complex))
    assert str(pole_many.value) == "non-finite value produced by Mobius node"
    with pytest.raises(NumericError) as overflow:
        Compose(ScalarScale(0.5), Polynomial(((1e308, 1e308),))).evaluate((2.0,))
    assert str(overflow.value) == "non-finite value produced by Compose node at ((2+0j),)"


def test_maps_nested_past_the_recursion_limit_are_structural_errors():
    f = ScalarScale(0.5)
    for _ in range(1200):
        f = Compose(ScalarScale(1.0), f)
    with pytest.raises(StructuralError, match="nested too deeply"):
        f.evaluate((0.1,))
    with pytest.raises(StructuralError, match="nested too deeply"):
        f.evaluate_many(np.zeros((3, 1), dtype=complex))
    # its dimensions are stored, so a problem over it builds; the compile then fails as above
    assert (f.in_dim, f.out_dim) == (1, 1)
    problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.6), f, 0.1, 1e-9)
    with pytest.raises(StructuralError, match="nested too deeply"):
        solve(problem)
    for _ in range(900):  # a shallower chain still compiles and runs
        f = f.inner
    assert f.evaluate((0.1,)) == (0.05 + 0j,)
    assert f.evaluate_many([0.1]).tolist() == [[0.05 + 0j]]


def test_maps_stay_plain_values_after_evaluation():
    maps = [f for f, _ in _compiled_cases()[:-2:5]]  # not the deepest and widest maps
    for f in maps:
        twin = pickle.loads(pickle.dumps(f))
        before = (repr(f), hash(f), pickle.dumps(f))
        p = (0.1j,) * f.in_dim
        value = f.evaluate(p)
        f.evaluate_many(np.zeros((3, f.in_dim), dtype=complex))
        assert (repr(f), hash(f), pickle.dumps(f)) == before
        assert f == twin and hash(f) == hash(twin)
        back = pickle.loads(pickle.dumps(f))
        assert back == f and repr(back.evaluate(p)) == repr(value)
    problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.8), maps[0], 0.1, 1e-9)
    before = (repr(problem), hash(problem), pickle.dumps(problem))
    result = solve(problem)
    assert "_solver" in vars(problem)  # derived on the first solve, ignored by the value
    assert (repr(problem), hash(problem), pickle.dumps(problem)) == before
    assert problem == FixedPointProblem(UnitDisk(), ScaledDisk(0.8), maps[0], 0.1, 1e-9)
    back = pickle.loads(pickle.dumps(problem))
    assert back == problem and repr(solve(back)) == repr(result)
    # the loop's source depends only on the dimension and on the charts' shapes
    bidisk, shear = Polydisk((1.0, 1.0)), ((1.0, 0.2), (0.0, 1.0))
    diagonal = [
        FixedPointProblem(bidisk, Polydisk((r, r)), random_selfmap(bidisk, seed, r), (0, 0), 1e-9)
        for seed, r in ((1, 0.6), (2, 0.8))
    ]
    full = FixedPointProblem(AffineImage(bidisk, shear, (0.0, 0.1)),
                             AffineImage(Polydisk((0.5, 0.5)), shear, (0.0, 0.1)),
                             Identity(2), (0, 0), 1e-9)
    wide = Polydisk((2.0, 2.0))
    scaled = FixedPointProblem(wide, Polydisk((1.2, 1.2)), random_selfmap(wide, 1, 0.6), (0, 0), 1e-9)
    loops = [p._solver[1] for p in diagonal + [full, scaled]]
    assert loops[0].__code__ is loops[1].__code__
    assert loops[0].__defaults__ != loops[1].__defaults__
    assert loops[2].__code__ is not loops[0].__code__
    # the identity chart of ``bidisk`` costs no pull: its A^-1 entries are no parameters
    assert loops[3].__code__ is not loops[0].__code__
    assert len(loops[3].__defaults__) == len(loops[0].__defaults__) + 2
    gc.disable()  # no reference cycle: an evaluated map dies on ``del`` alone
    try:
        f = random_selfmap(Polydisk((1.0, 0.5)), 3, 0.6)
        f.evaluate((0.1, 0.2))
        problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.8), maps[0], 0.1, 1e-9)
        solve(problem)
        refs = [weakref.ref(f), weakref.ref(problem)]
        del f, problem
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


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


def test_random_selfmap_on_the_unit_disk_is_the_one_factor_polydisk_map():
    bias = 0.7
    pts = UnitDisk().sample(SampleStream(seed=4, count=500))
    for seed in range(8):
        f = random_selfmap(UnitDisk(), seed, bias)
        assert f == random_selfmap(Polydisk((1.0,)), seed, bias)
        # the tree without the product, from the same draws
        old = Compose(ScalarScale(bias), _disk_factor(f.factors[0]))
        assert f.evaluate_many(pts).tobytes() == old.evaluate_many(pts).tobytes()
        for row in pts[:100]:
            p = (complex(row[0]),)
            assert np.array(f.evaluate(p)).tobytes() == np.array(old.evaluate(p)).tobytes()


_M = ((0.6, 0.2), (0.1j, 0.5))
_C = (0.1, -0.05j)

# domain -> the same domain scaled by 0.6 about its chart centre
_CHARTS = {
    "scaled_disk": (ScaledDisk(0.5), AffineDiskImage(0.0, 0.3)),
    "affine_disk": (AffineDiskImage(0.3 - 0.2j, 1.5), AffineDiskImage(0.3 - 0.2j, 0.9)),
    "complex_scale": (AffineImage(UnitDisk(), ((0.4 + 0.3j,),), (0.1j,)),
                      AffineImage(Polydisk((0.6,)), ((0.4 + 0.3j,),), (0.1j,))),
    # centred, diagonal and real, but not positive: no ScalarScale fold
    "negative_scale": (AffineImage(UnitDisk(), ((-0.7,),), (0.0,)),
                       AffineImage(Polydisk((0.6,)), ((-0.7,),), (0.0,))),
    "sheared": (AffineImage(Polydisk((1.0, 1.0)), _M, _C), AffineImage(Polydisk((0.6, 0.6)), _M, _C)),
}


@pytest.mark.parametrize("kind", sorted(_CHARTS))
def test_random_selfmap_on_every_chart(kind):
    domain, scaled = _CHARTS[kind]
    pts = domain.sample(SampleStream(seed=11, count=3000))
    for seed in range(4):
        f = random_selfmap(domain, seed, 0.6)
        assert f == random_selfmap(domain, seed, 0.6) != random_selfmap(domain, seed + 1, 0.6)
        assert (f.in_dim, f.out_dim) == (domain.dim, domain.dim)
        assert scaled.contains_many(f.evaluate_many(pts)).all()
        problem = FixedPointProblem(domain, scaled, f, domain.sample(SampleStream(seed, 1))[0], 1e-10)
        x = solve(problem).point
        assert domain.caratheodory(x, f.evaluate(x)) <= problem.tolerance


def test_random_selfmap_rejects_bias_outside_the_unit_interval():
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


def test_random_selfmap_seed_is_a_64_bit_integer():
    for bad in (1.5, "x", -1, True, 2**64, None):
        with pytest.raises(StructuralError, match="seed must be"):
            random_selfmap(UnitDisk(), seed=bad, contraction_bias=0.5)
    top = random_selfmap(Polydisk((1.0, 0.5)), 2**64 - 1, 0.5)
    assert top == random_selfmap(Polydisk((1.0, 0.5)), np.uint64(2**64 - 1), 0.5)
    assert random_selfmap(UnitDisk(), 7.0, 0.5) == random_selfmap(UnitDisk(), 7, 0.5)
