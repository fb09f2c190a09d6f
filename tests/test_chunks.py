"""Chunked sampled reductions against one pass over whole arrays.

``verify_nesting``, the sampled ``diameter``, ``step_contraction_check`` and
``image_bound`` walk their streams in row ranges of at most ``CHUNK``
coordinates.  The references below are the whole-array formulas the
reductions used before they were chunked; every result must equal them
bit for bit, at counts on both sides of the chunk boundaries.
"""

import tracemalloc

import numpy as np
import pytest

from cmetric import (
    Affine,
    AffineDiskImage,
    AffineImage,
    DomainError,
    HypothesisError,
    NestingReport,
    Polydisk,
    SampleStream,
    ScaledDisk,
    StructuralError,
    UnitDisk,
    diameter,
    image_bound,
    random_selfmap,
    step_contraction_check,
    verify_nesting,
)
from cmetric.contraction import BOUNDARY_BIAS
from cmetric.domains import CHUNK
from cmetric.metric_core import poincare_distance_many

PAIR_SALT = 0x9E3779B97F4A7C15

# -- the whole-array references ------------------------------------------------------


def whole_sample(domain, stream):
    rng = np.random.default_rng(stream.seed)
    draws = rng.random((stream.count, 2, domain.dim))
    radial = np.sqrt(draws[:, 0, :]) * (1.0 - stream.boundary_margin)
    angle = 2.0 * np.pi * draws[:, 1, :]
    return domain._push(radial * np.exp(1j * angle))


def whole_pairs(domain, stream):
    partner = SampleStream(stream.seed ^ PAIR_SALT, stream.count, stream.boundary_margin)
    return whole_sample(domain, stream), whole_sample(domain, partner)


def whole_biased_pairs(domain, stream):
    rng = np.random.default_rng(stream.seed)
    draws = rng.random((stream.count, 2, 2, domain.dim))
    radial = draws[:, :, 0, :] ** (1.0 / BOUNDARY_BIAS) * (1.0 - stream.boundary_margin)
    angle = 2.0 * np.pi * draws[:, :, 1, :]
    model = radial * np.exp(1j * angle)
    return domain._push(model[:, 0, :]), domain._push(model[:, 1, :])


def whole_verify(ambient, inner, stream):
    k = diameter(ambient, inner).k
    xs, ys = whole_pairs(inner, stream)
    c_ambient = ambient.caratheodory_many(xs, ys)
    c_inner = inner.caratheodory_many(xs, ys)
    per_pair = np.maximum(c_ambient - k * c_inner, c_ambient - np.arctanh(k * np.tanh(c_inner)))
    worst = int(np.argmax(per_pair))
    positive = c_inner > 0.0
    ratio = (c_ambient[positive] / c_inner[positive]).max() if positive.any() else np.nan
    return NestingReport(
        pairs_checked=stream.count,
        max_violation=float(per_pair[worst]),
        worst_pair=(tuple(xs[worst].tolist()), tuple(ys[worst].tolist())),
        k_used=k,
        max_ratio=float(ratio),
    ).to_json_dict()


def whole_diameter(ambient, inner, stream):
    xs, ys = whole_biased_pairs(inner, stream)
    return float(poincare_distance_many(ambient._pull(xs), ambient._pull(ys)).max())


def whole_step(mapping, ambient, inner, stream):
    k = diameter(ambient, inner).k
    xs, ys = whole_pairs(ambient, stream)
    fxs, fys = mapping.evaluate_many(xs), mapping.evaluate_many(ys)
    assert inner.contains_many(fxs).all() and inner.contains_many(fys).all()
    gaps = ambient.caratheodory_many(fxs, fys) - k * ambient.caratheodory_many(xs, ys)
    return float(gaps.max())


def whole_image_bound(mapping, source, target, stream):
    images = mapping.evaluate_many(whole_sample(source, stream))
    return float(target.boundary_proximity_many(images).max())


# -- the cases ------------------------------------------------------------------------

_M = ((1.0, 0.3), (0.2j, 1.0))
_B = (0.1, 0.0)

# name -> (ambient, inner, a self-map of ambient, a domain holding its image)
CASES = {
    "dim1": (
        UnitDisk(),
        AffineDiskImage(0.25 + 0.1j, 0.55),
        random_selfmap(UnitDisk(), 5, 0.6),
        ScaledDisk(0.6),
    ),
    "dim3": (
        Polydisk((1.0,) * 3),
        Polydisk((0.6, 0.5, 0.7)),
        random_selfmap(Polydisk((1.0,) * 3), 6, 0.6),
        Polydisk((0.6,) * 3),
    ),
    "dim8": (
        Polydisk((1.0,) * 8),
        Polydisk((0.6,) * 8),
        random_selfmap(Polydisk((1.0,) * 8), 7, 0.6),
        Polydisk((0.6,) * 8),
    ),
    # full 2x2 charts: z -> b + 0.6 (z - b) maps the ambient image onto the inner one
    "affine_image": (
        AffineImage(Polydisk((0.5, 0.5)), _M, _B),
        AffineImage(Polydisk((0.3, 0.3)), _M, _B),
        Affine(((0.6, 0.0), (0.0, 0.6)), tuple(0.4 * b for b in _B)),
        AffineImage(Polydisk((0.3, 0.3)), _M, _B),
    ),
}

COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_chunked_reductions_equal_one_pass(case, count):
    ambient, inner, mapping, image = CASES[case]
    stream = SampleStream(seed=1000 + count, count=count)
    cert = diameter(ambient, inner)
    assert verify_nesting(ambient, inner, cert, stream).to_json_dict() == whole_verify(
        ambient, inner, stream
    )
    sampled = diameter(ambient, inner, SampleStream(count, count, boundary_margin=1e-5))
    assert sampled.M == whole_diameter(ambient, inner, SampleStream(count, count, 1e-5))
    gap = step_contraction_check(mapping, ambient, image, None, stream)
    assert gap == whole_step(mapping, ambient, image, stream)
    bound = image_bound(mapping, ambient, ambient, stream)
    assert bound.sup_modulus_estimate == whole_image_bound(mapping, ambient, ambient, stream)


def test_verify_nesting_memory_does_not_grow_with_the_pair_count():
    ambient, inner = UnitDisk(), ScaledDisk(0.5)
    cert = diameter(ambient, inner)
    tracemalloc.start()
    try:
        verify_nesting(ambient, inner, cert, SampleStream(seed=3, count=1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # whole arrays peaked at 122 MB


# -- errors name the row of the whole stream ----------------------------------------------

LEAKY_ROW = 2 * CHUNK + 5


class LeakyDisk(ScaledDisk):
    """A disk whose sampler puts stream row ``LEAKY_ROW`` outside it."""

    def sample(self, stream):
        points = super().sample(stream)
        if stream.start <= LEAKY_ROW < stream.start + stream.count:
            points[LEAKY_ROW - stream.start] = 0.75
        return points


def test_membership_error_names_the_stream_row():
    inner = LeakyDisk(0.5)
    stream = SampleStream(seed=8, count=3 * CHUNK)
    with pytest.raises(DomainError, match=rf"^xs\[{LEAKY_ROW}\] = "):
        verify_nesting(UnitDisk(), inner, diameter(UnitDisk(), inner), stream)


@pytest.mark.parametrize("seed", [1, 4])
def test_sampled_diameter_error_names_the_stream_row(seed):
    # a disk just too large for the 1e-6 margin: about one boundary-biased
    # sample in ten thousand falls outside it
    inner = AffineDiskImage(0.0, (1.0 - 9.5e-7) / (1.0 - 1e-3))
    stream = SampleStream(seed=seed, count=20_000)
    xs, ys = whole_biased_pairs(inner, stream)
    outside = (np.abs(xs[:, 0]) >= 1.0 - 1e-6) | (np.abs(ys[:, 0]) >= 1.0 - 1e-6)
    row = int(np.argmax(outside))
    assert row >= CHUNK // 2  # past the first chunk of pairs
    with pytest.raises(HypothesisError, match=rf"^inner samples\[{row}\] = "):
        diameter(UnitDisk(), inner, stream)


@pytest.mark.parametrize("stream", [None, "x", 5])
def test_sampled_reductions_read_their_stream(stream):
    ambient, inner, mapping, image = CASES["dim1"]
    calls = [
        lambda: verify_nesting(ambient, inner, None, stream),
        lambda: step_contraction_check(mapping, ambient, image, None, stream),
        lambda: image_bound(mapping, ambient, image, stream),
        lambda: ambient.sample(stream),
    ]
    if stream is not None:  # no stream is the closed-form diameter
        calls.append(lambda: diameter(ambient, inner, stream))
    for call in calls:
        with pytest.raises(StructuralError, match="^stream must be a SampleStream"):
            call()
