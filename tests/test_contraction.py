"""Unit tests for contraction certificates, diameters and nesting verification.

Closed-form diameters are cross-checked against a brute-force mpmath oracle on
sampled pairs, and the sampled estimator is checked to stay below the truth.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from cmetric import (
    AffineDiskImage,
    AffineImage,
    BoundednessError,
    ContractionCertificate,
    DomainError,
    HypothesisError,
    Identity,
    Mobius,
    NestingReport,
    Polydisk,
    Polynomial,
    SampleStream,
    ScaledDisk,
    ScalarScale,
    StructuralError,
    UnitDisk,
    contraction_constant,
    diameter,
    random_selfmap,
    verify_nesting,
    witness_lower_bound,
)

mp.mp.dps = 40

TWO_ATANH_HALF = 1.0986122886681098  # ln(3), mpmath oracle
ATANH_HALF = 0.5493061443340549
K_POLYDISK_03 = 0.5504587155963303  # 2 * 0.3 / 1.09
K_AFFINE_QUARTER = 0.8870967741935484  # 1.1 / 1.24
M_AFFINE_QUARTER = 1.4081318928712214  # atanh(1.1 / 1.24)
TANH_ONE = 0.7615941559557649
ATANH_03125 = 0.32331358246252623  # atanh(0.25 / 0.8)
ATANH_QUARTER = 0.25541281188299536
K_TIMES_ATANH_HALF = 0.4394449154672439  # 0.8 * atanh(0.5)
M_PROBE = 1.5913363881021  # atanh(1.3 / 1.4125), mpmath oracle


# -- certificate type --------------------------------------------------------------


def test_certificate_enforces_consistency():
    M = TWO_ATANH_HALF
    ContractionCertificate(M=M, k=math.tanh(M), method="closed_form", sample_count=0, seed=0)
    with pytest.raises(StructuralError):
        ContractionCertificate(M=M, k=0.7, method="closed_form", sample_count=0, seed=0)
    with pytest.raises(StructuralError):
        ContractionCertificate(M=M, k=math.tanh(M), method="guessed", sample_count=0, seed=0)
    with pytest.raises(StructuralError):
        ContractionCertificate(M=M, k=math.tanh(M), method="closed_form", sample_count=5, seed=0)
    with pytest.raises(StructuralError):
        ContractionCertificate(M=M, k=math.tanh(M), method="sampled", sample_count=0, seed=0)
    with pytest.raises(StructuralError):
        ContractionCertificate(
            M=float("inf"), k=1.0, method="closed_form", sample_count=0, seed=0
        )
    for M, k in ((-1.0, math.tanh(-1.0)), (40.0, 1.0)):  # a negative M; k = tanh(M) rounds to 1
        with pytest.raises(StructuralError):
            ContractionCertificate(M=M, k=k, method="closed_form", sample_count=0, seed=0)


def test_certificate_json_round_trip_is_bit_exact():
    cert = diameter(UnitDisk(), ScaledDisk(0.5))
    data = cert.to_json_dict()
    assert data["M"] == "1.0986122886681098"
    assert data["k"] == "0.80000000000000004"  # 17 significant digits
    back = ContractionCertificate.from_json_dict(json.loads(json.dumps(data)))
    assert back == cert


# -- contraction constant -----------------------------------------------------------


def test_contraction_constant_values():
    assert contraction_constant(0.0) == 0.0
    assert contraction_constant(TWO_ATANH_HALF) == pytest.approx(0.8, abs=1e-15)
    assert float(mp.tanh(1)) == TANH_ONE
    assert contraction_constant(1.0) == pytest.approx(TANH_ONE, rel=1e-15)


@pytest.mark.parametrize("bad", [-0.1, float("inf"), float("nan")])
def test_contraction_constant_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        contraction_constant(bad)


def test_contraction_constant_refuses_a_diameter_whose_tanh_rounds_to_one():
    # tanh(M) rounds to 1 from M of about 19.06; below that k stays < 1
    assert contraction_constant(18.0) == math.tanh(18.0) < 1.0
    for M in (20.0, 1e308):
        with pytest.raises(BoundednessError, match="indistinguishable from 1"):
            contraction_constant(M)


def test_real_arguments_must_be_real_numbers():
    for bad in ("0.5", b"0.5", None, True, 0.5j, 10**400):
        with pytest.raises(StructuralError):
            contraction_constant(bad)
        with pytest.raises(StructuralError):
            witness_lower_bound(Identity(1), 0.0, 0.25, bad)
    assert contraction_constant(np.float32(1.0)) == contraction_constant(1)


# -- closed-form diameters ------------------------------------------------------------


def test_scaled_disk_diameter_is_double_atanh():
    cert = diameter(UnitDisk(), ScaledDisk(0.5))
    assert cert.M == pytest.approx(TWO_ATANH_HALF, rel=1e-15)
    assert cert.M == pytest.approx(2 * ATANH_HALF, rel=1e-15)
    assert cert.k == pytest.approx(0.8, abs=1e-15)
    assert cert.method == "closed_form"
    assert cert.sample_count == 0


@pytest.mark.parametrize("r", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_scaled_disk_constant_matches_algebraic_form(r):
    cert = diameter(UnitDisk(), ScaledDisk(r))
    assert abs(cert.k - 2 * r / (1 + r * r)) <= 1e-15
    assert abs(cert.k - math.tanh(cert.M)) <= 1e-15


def test_constant_is_monotone_in_radius_with_limits():
    ks = [diameter(UnitDisk(), ScaledDisk(r)).k for r in np.linspace(0.01, 0.99, 60)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert diameter(UnitDisk(), ScaledDisk(1e-6)).k < 1e-5
    assert diameter(UnitDisk(), ScaledDisk(0.999999)).k > 1 - 1e-5


def test_concentric_polydisk_diameter():
    cert = diameter(Polydisk((1.0, 1.0)), Polydisk((0.3, 0.3)))
    assert cert.k == pytest.approx(K_POLYDISK_03, rel=1e-15)
    # mixed radii: the widest normalized coordinate dominates
    cert2 = diameter(Polydisk((1.0, 1.0)), Polydisk((0.3, 0.5)))
    assert cert2.k == pytest.approx(0.8, abs=1e-15)


def test_affine_disk_diameter_closed_form():
    cert = diameter(UnitDisk(), AffineDiskImage(0.25, 0.55))
    assert float(mp.atanh(mp.mpf("1.1") / mp.mpf("1.24"))) == M_AFFINE_QUARTER
    assert cert.k == pytest.approx(K_AFFINE_QUARTER, rel=1e-15)
    assert cert.M == pytest.approx(M_AFFINE_QUARTER, rel=1e-15)


def test_affine_disk_diameter_agrees_with_sampled_sup():
    inner = AffineDiskImage(0.25, 0.55)
    cert = diameter(UnitDisk(), inner)
    sampled = diameter(
        UnitDisk(), inner, SampleStream(seed=2, count=200_000, boundary_margin=1e-5)
    )
    assert sampled.M <= cert.M + 1e-12
    assert cert.M - sampled.M <= 1e-3


def test_nested_scaled_disks_normalize():
    # radius ratio 0.5 gives the same constant as ScaledDisk(0.5) in the unit disk
    cert = diameter(ScaledDisk(0.8), ScaledDisk(0.4))
    assert cert.k == pytest.approx(0.8, abs=1e-14)


def test_diameter_boundedness_and_hypothesis_errors():
    with pytest.raises(BoundednessError):
        diameter(UnitDisk(), UnitDisk())
    with pytest.raises(HypothesisError):
        diameter(UnitDisk(), AffineDiskImage(0.8, 0.5))  # sticks out
    with pytest.raises(HypothesisError):
        diameter(UnitDisk(), AffineDiskImage(0.5, 0.4999999))  # margin below 1e-6
    # but an explicitly smaller precompactness margin admits it
    cert = diameter(UnitDisk(), AffineDiskImage(0.5, 0.4999999), precompact_margin=1e-9)
    assert cert.k < 1.0
    with pytest.raises(BoundednessError):
        # k = tanh(M) rounds to 1 at double precision
        diameter(UnitDisk(), ScaledDisk(1 - 1e-12), precompact_margin=1e-14)


@pytest.mark.parametrize(
    "margin, error",
    [
        (math.nan, DomainError),
        (-0.5, DomainError),
        (math.inf, DomainError),
        ("1e-9", StructuralError),
        (None, StructuralError),
        (True, StructuralError),
    ],
)
def test_diameter_reads_its_precompact_margin(margin, error):
    # a nesting with margin 1e-7, refused at the default 1e-6
    inner = AffineDiskImage(0.5, 0.4999999)
    for stream in (None, SampleStream(seed=1, count=100)):
        with pytest.raises(error, match="^precompact_margin "):
            diameter(UnitDisk(), inner, stream, precompact_margin=margin)


def test_diameter_dimension_and_capability_errors():
    with pytest.raises(StructuralError):
        diameter(UnitDisk(), Polydisk((0.3, 0.3)))
    rotated = AffineImage(base=Polydisk((1.0, 1.0)), matrix=((0, 1), (1, 0)), offset=(0, 0))
    # the rotated unit bidisk is the bidisk itself
    assert diameter(rotated, Polydisk((0.3, 0.3))).k == pytest.approx(K_POLYDISK_03, rel=1e-15)


# -- the general closed form ----------------------------------------------------------


def _probe_inner(offset=(0.1, 0), matrix=((1, 0.3), (0.2j, 1))):
    return AffineImage(Polydisk((0.5, 0.5)), matrix, offset)


def test_non_diagonal_affine_image_has_a_closed_form():
    # reach 0.75; coordinate 0 dominates: tanh M = 2 * 0.65 / (1 - 0.1^2 + 0.65^2)
    ambient, inner = Polydisk((1.0, 1.0)), _probe_inner()
    cert = diameter(ambient, inner)
    assert cert.method == "closed_form"
    assert cert.M == pytest.approx(M_PROBE, rel=1e-13)
    sampled = diameter(
        ambient, inner, SampleStream(seed=1, count=400_000, boundary_margin=1e-6)
    )
    assert sampled.M <= cert.M
    assert cert.M - sampled.M <= 2e-3
    report = verify_nesting(ambient, inner, cert, SampleStream(seed=1, count=10_000))
    assert report.max_violation <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_bounds_sampled_sup_for_random_affine_images(dim):
    rng = np.random.default_rng(2024 + dim)
    nested = 0
    while nested < 4:
        ambient = Polydisk(tuple(rng.uniform(0.5, 2.0, dim)))
        scale = rng.uniform(0.1, 0.6)
        matrix = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        offset = 0.2 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
        inner = AffineImage(
            Polydisk(tuple(rng.uniform(0.2, 1.0, dim))), tuple(map(tuple, matrix)), tuple(offset)
        )
        try:
            cert = diameter(ambient, inner)
        except HypothesisError:
            continue
        nested += 1
        stream = SampleStream(seed=int(rng.integers(2**32)), count=100_000, boundary_margin=1e-6)
        sampled = diameter(ambient, inner, stream)
        assert sampled.M <= cert.M + 1e-12
        assert cert.M - sampled.M <= 0.05 * cert.M


def test_general_closed_form_nesting_errors():
    ambient = Polydisk((1.0, 1.0))
    with pytest.raises(HypothesisError):
        diameter(ambient, _probe_inner(offset=(0.4, 0)))  # reach 0.4 + 0.5 + 0.15 = 1.05
    with pytest.raises(HypothesisError):
        diameter(ambient, _probe_inner(matrix=((1, 0.9), (0, 1))))  # 0.1 + 0.5 + 0.45
    with pytest.raises(HypothesisError):
        diameter(ambient, _probe_inner(offset=(0.6, 0), matrix=((1, 0), (0, 1))))  # reach 1.1
    with pytest.raises(BoundednessError):
        diameter(ambient, _probe_inner(offset=(0.5, 0), matrix=((1, 0), (0, 1))))  # reach 1
    with pytest.raises(HypothesisError):
        # reach 1 - 1e-7, inside the default precompactness margin of 1e-6
        diameter(ambient, _probe_inner(offset=(0.4999999, 0), matrix=((1, 0), (0, 1))))


# -- sampled diameters -----------------------------------------------------------------


def test_sampled_diameter_converges_from_below():
    true_M = TWO_ATANH_HALF
    inner = ScaledDisk(0.5)
    estimates = [
        diameter(UnitDisk(), inner, SampleStream(seed=7, count=n, boundary_margin=1e-5)).M
        for n in (100, 1000, 10_000)
    ]
    assert estimates[0] <= estimates[1] <= estimates[2]  # prefix-stable draws
    assert all(m <= true_M + 1e-12 for m in estimates)
    assert true_M - estimates[-1] <= 1e-3


def test_sampled_certificate_records_provenance():
    cert = diameter(UnitDisk(), ScaledDisk(0.5), SampleStream(seed=11, count=500))
    assert cert.method == "sampled"
    assert cert.sample_count == 500
    assert cert.seed == 11
    assert abs(cert.k - math.tanh(cert.M)) <= 1e-15


def test_sampled_diameter_rejects_broken_nesting():
    with pytest.raises(HypothesisError):
        diameter(UnitDisk(), AffineDiskImage(0.9, 0.3), SampleStream(seed=1, count=100))


# -- witness lower bound ----------------------------------------------------------------


def test_witness_constant_zero_map_gives_zero():
    assert witness_lower_bound(Polynomial(((0.0,),)), 0.1, -0.2j, 0.8) == 0.0


def test_witness_identity_example():
    # identity witness on the unit disk, centered at x = 0, evaluated at y = 0.25
    got = witness_lower_bound(Identity(1), 0.0, 0.25, 0.8)
    assert got == pytest.approx(ATANH_03125, rel=1e-14)
    # it really is a lower bound for the inner-domain distance
    c_inner = ScaledDisk(0.5).caratheodory(0, 0.25)
    assert got <= c_inner
    assert c_inner == pytest.approx(ATANH_HALF, rel=1e-15)


def test_witness_normalizes_away_nonzero_base_point():
    # Mobius pre-centering makes the bound insensitive to f(x) != 0
    x, y = 0.1 + 0.05j, -0.2j
    direct = witness_lower_bound(Mobius(0.1 + 0.05j), x, y, 0.8)
    uncentered = witness_lower_bound(Identity(1), x, y, 0.8)
    assert direct == pytest.approx(uncentered, rel=1e-12)


def test_witness_bound_vanishes_at_diagonal():
    for eps in (1e-3, 1e-6, 1e-9):
        val = witness_lower_bound(Identity(1), 0.2, 0.2 + eps, 0.8)
        assert 0.0 < val < 3 * eps


def test_witness_bound_is_below_exact_distance_for_random_witnesses():
    ambient, inner = UnitDisk(), ScaledDisk(0.5)
    k = diameter(ambient, inner).k
    rng = np.random.default_rng(71)
    for seed in range(10):
        f = random_selfmap(ambient, seed=seed, contraction_bias=0.9)
        for _ in range(20):
            x, y = (complex(*rng.uniform(-0.35, 0.35, 2)) for _ in range(2))
            bound = witness_lower_bound(f, x, y, k)
            assert bound <= inner.caratheodory(x, y) + 1e-12


def test_witness_value_above_k_is_a_hypothesis_error():
    with pytest.raises(HypothesisError):
        witness_lower_bound(Identity(1), 0.0, 0.9, 0.5)


def test_witness_escaping_the_disk_is_a_hypothesis_error():
    with pytest.raises(HypothesisError):
        witness_lower_bound(ScalarScale(2.0), 0.0, 0.6, 0.8)


def test_witness_validates_constant():
    with pytest.raises(DomainError):
        witness_lower_bound(Identity(1), 0.0, 0.25, 1.0)
    with pytest.raises(DomainError):
        witness_lower_bound(Identity(1), 0.0, 0.25, 0.0)


# -- nesting verification -----------------------------------------------------------------


def test_pointwise_inequality_example():
    ambient, inner = UnitDisk(), ScaledDisk(0.5)
    k = diameter(ambient, inner).k
    c_ambient = ambient.caratheodory(0, 0.25)
    c_inner = inner.caratheodory(0, 0.25)
    assert c_ambient == pytest.approx(ATANH_QUARTER, rel=1e-15)
    assert k * c_inner == pytest.approx(K_TIMES_ATANH_HALF, rel=1e-14)
    assert c_ambient - k * c_inner == pytest.approx(-0.18403210358424854, rel=1e-13)


def test_verify_nesting_on_radius_sweep():
    for r in np.arange(0.1, 0.95, 0.1):
        inner = ScaledDisk(float(r))
        cert = diameter(UnitDisk(), inner)
        report = verify_nesting(UnitDisk(), inner, cert, SampleStream(seed=101, count=1000))
        assert report.max_violation <= 1e-10
        assert report.pairs_checked == 1000
        assert report.k_used == cert.k
        assert 0.0 < report.max_ratio <= cert.k + 1e-12


def test_verify_nesting_polydisk_and_affine_disk():
    cases = [
        (Polydisk((1.0, 1.0)), Polydisk((0.3, 0.5))),
        (UnitDisk(), AffineDiskImage(0.25, 0.55)),
    ]
    for ambient, inner in cases:
        cert = diameter(ambient, inner)
        report = verify_nesting(ambient, inner, cert, SampleStream(seed=103, count=1000))
        assert report.max_violation <= 1e-10


def test_verify_nesting_worst_pair_is_reproducible():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    s = SampleStream(seed=107, count=500)
    a = verify_nesting(UnitDisk(), inner, cert, s)
    b = verify_nesting(UnitDisk(), inner, cert, s)
    assert a == b
    assert inner.contains(a.worst_pair[0]) and inner.contains(a.worst_pair[1])
    assert {type(c) for p in a.worst_pair for c in p} == {complex}


def test_verify_nesting_rejects_sampled_certificates():
    inner = ScaledDisk(0.5)
    sampled = diameter(UnitDisk(), inner, SampleStream(seed=1, count=200))
    with pytest.raises(HypothesisError):
        verify_nesting(UnitDisk(), inner, sampled, SampleStream(seed=2, count=100))


def test_proof_chain_inequalities_hold_pairwise():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    k = cert.k
    xs = inner.sample(SampleStream(seed=109, count=2000))
    ys = inner.sample(SampleStream(seed=113, count=2000))
    c_x = UnitDisk().caratheodory_many(xs, ys)
    c_u = inner.caratheodory_many(xs, ys)
    # tanh(c_inner) >= (1/k) tanh(c_ambient), up to rounding
    assert (np.tanh(c_u) >= np.tanh(c_x) / k - 1e-12).all()
    chained = np.arctanh(k * np.tanh(c_u))
    assert (chained >= c_x - 1e-12).all()  # the sup over witnesses
    assert (k * c_u >= chained - 1e-12).all()  # the convexity step


def test_nesting_report_json_round_trip():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    report = verify_nesting(UnitDisk(), inner, cert, SampleStream(seed=127, count=300))
    data = json.loads(json.dumps(report.to_json_dict()))
    back = NestingReport.from_json_dict(data)
    assert back == report
    # no pair with c_inner > 0: max_ratio is NaN, written as null; NaN != NaN, so compare forms
    no_ratio = NestingReport(3, -0.5, ((0.1 + 0.2j,), (-0.3j,)), 0.5, math.nan)
    data = json.loads(json.dumps(no_ratio.to_json_dict()))
    assert data["max_ratio"] is None
    assert math.isnan(NestingReport.from_json_dict(data).max_ratio)
    assert NestingReport.from_json_dict(data).to_json_dict() == data


# the exact JSON forms of an earlier release: the bytes the CLI prints and the benchmark hashes
BIDISK_REPORT_JSON = {
    "pairs_checked": 500,
    "max_violation": "-0.095967626211899415",
    "worst_pair": [
        [["-0.003949823108557713", "0.098704958291569736"],
         ["0.21329172200111615", "0.30959156873497368"]],
        [["-0.030290749830391525", "0.1524660162833974"],
         ["0.066359537332319501", "0.21312782511181319"]],
    ],
    "k_used": "0.93959731543624159",
    "max_ratio": "0.66920772363561531",
}
SAMPLED_CERT_JSON = {
    "M": "1.1972430877736817",
    "k": "0.83281175866174739",
    "method": "sampled",
    "sample_count": 5000,
    "seed": 42,
}


def test_json_forms_are_pinned():
    bidisk, inner = Polydisk((1.0, 1.0)), Polydisk((0.5, 0.7))
    report = verify_nesting(bidisk, inner, diameter(bidisk, inner), SampleStream(5, 500))
    cert = diameter(UnitDisk(), AffineDiskImage(0.1 + 0.2j, 0.5), SampleStream(42, 5000))
    for value, form in ((report, BIDISK_REPORT_JSON), (cert, SAMPLED_CERT_JSON)):
        assert json.dumps(value.to_json_dict()) == json.dumps(form)  # key order too
        assert type(value).from_json_dict(form) == value


def _edit(form: dict, **fields) -> dict:
    return {**form, **fields}


def _without(form: dict, name: str) -> dict:
    return {k: v for k, v in form.items() if k != name}


@pytest.mark.parametrize(
    "cls, data",
    [
        (ContractionCertificate, _without(SAMPLED_CERT_JSON, "seed")),
        (NestingReport, _without(BIDISK_REPORT_JSON, "max_ratio")),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, M="abc")),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, M=1.1972430877736817)),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, k=None)),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, M="nan")),
        (NestingReport, _edit(BIDISK_REPORT_JSON, k_used=["0.5"])),
        (NestingReport, _edit(BIDISK_REPORT_JSON, max_violation=None)),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, sample_count=0.7)),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, seed=3.9)),
        (ContractionCertificate, _edit(SAMPLED_CERT_JSON, seed=True)),
        (NestingReport, _edit(BIDISK_REPORT_JSON, pairs_checked=2.5)),
        (NestingReport, _edit(BIDISK_REPORT_JSON, worst_pair=BIDISK_REPORT_JSON["worst_pair"][:1])),
        (NestingReport, _edit(BIDISK_REPORT_JSON, worst_pair=[[["0.1", "0.2"]], []])),
        (NestingReport, _edit(BIDISK_REPORT_JSON, worst_pair=[[["0.1", "0.2"]], [["0.1"]]])),
        (NestingReport, _edit(BIDISK_REPORT_JSON, worst_pair=[[], []])),
        (NestingReport, _edit(BIDISK_REPORT_JSON, worst_pair="ab")),
        (ContractionCertificate, [SAMPLED_CERT_JSON]),
        (NestingReport, "report"),
        (NestingReport, None),
    ],
    ids=[
        "missing-seed", "missing-max-ratio", "text-real", "json-number-real", "null-real",
        "nan-text", "list-real", "null-violation", "fractional-count", "fractional-seed",
        "bool-seed", "fractional-pairs", "one-point", "empty-point", "short-coordinate",
        "no-coordinates", "text-pair", "list", "text", "null",
    ],
)
def test_malformed_json_forms_are_structural_errors(cls, data):
    with pytest.raises(StructuralError):
        cls.from_json_dict(data)


def test_verify_nesting_rejects_the_certificate_of_another_nesting():
    # ScaledDisk(0.2)'s k = 0.385 is below the nesting's own 0.887; trusting it
    # reported max_violation 0.970 for this correct nesting
    inner = AffineDiskImage(0.25, 0.55)
    foreign = diameter(UnitDisk(), ScaledDisk(0.2))
    with pytest.raises(HypothesisError):
        verify_nesting(UnitDisk(), inner, foreign, SampleStream(seed=1, count=10_000))
    own = verify_nesting(UnitDisk(), inner, diameter(UnitDisk(), inner), SampleStream(1, 10_000))
    assert own.max_violation <= 1e-10
