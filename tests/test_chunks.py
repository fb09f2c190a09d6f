"""Chunked sampled reductions against one pass over whole arrays.

``verify_nesting``, the sampled ``diameter``, ``step_contraction_check`` and
``image_bound`` walk their streams in row ranges of at most ``CHUNK``
coordinates, on the calling thread with one worker and on a thread pool with
two.  The references below state the reductions' formulas, the sampler's
angle in quarter turns included, once over whole arrays; every result, and
every error, must equal them bit for bit on both walker paths, at counts on
both sides of the chunk boundaries.
"""

import os
import subprocess
import sys
import threading
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
from cmetric import domains
from cmetric.contraction import BOUNDARY_BIAS
from cmetric.domains import CHUNK
from cmetric.metric_core import poincare_distance_many

PAIR_SALT = 0x9E3779B97F4A7C15


def each_walker(monkeypatch):
    """Run the loop body once with one chunk worker and once with two, whatever the
    machine's CPU count."""
    for workers in (1, 2):
        monkeypatch.setattr(domains, "_WORKERS", workers)
        yield workers


# -- the whole-array references ------------------------------------------------------


def quarter_turns(radial, v):
    """radial·exp(2πiv) as radial·i**q·exp(iφ), q = rint(4v) and φ = (4v − q)·π/2."""
    q = np.rint(4.0 * v)
    return radial * np.exp(1j * ((4.0 * v - q) * (np.pi / 2))) * 1j**q


def whole_sample(domain, stream):
    rng = np.random.default_rng(stream.seed)
    draws = rng.random((stream.count, 2, domain.dim))
    radial = np.sqrt(draws[:, 0, :]) * (1.0 - stream.boundary_margin)
    return domain._push(quarter_turns(radial, draws[:, 1, :]))


def whole_pairs(domain, stream):
    partner = SampleStream(stream.seed ^ PAIR_SALT, stream.count, stream.boundary_margin)
    return whole_sample(domain, stream), whole_sample(domain, partner)


def whole_biased_pairs(domain, stream):
    rng = np.random.default_rng(stream.seed)
    draws = rng.random((stream.count, 2, 2, domain.dim))
    radial = draws[:, :, 0, :] ** (1.0 / BOUNDARY_BIAS) * (1.0 - stream.boundary_margin)
    model = quarter_turns(radial, draws[:, :, 1, :])
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
    # a seeded self-map of the same chart: Affine nodes conjugate a polydisk map
    "affine_selfmap": (
        AffineImage(Polydisk((0.5, 0.5)), _M, _B),
        AffineImage(Polydisk((0.3, 0.3)), _M, _B),
        random_selfmap(AffineImage(Polydisk((0.5, 0.5)), _M, _B), 8, 0.6),
        AffineImage(Polydisk((0.3, 0.3)), _M, _B),
    ),
}

# the chunk boundaries of one-dimensional pairs (CHUNK rows), of the sampled diameter's
# two-point rows (CHUNK // 2 rows) and of those rows in two dimensions (CHUNK // 4 rows)
HALF, QUARTER = CHUNK // 2, CHUNK // 4
COUNTS = [1, QUARTER - 1, QUARTER, QUARTER + 1, 3 * QUARTER + 7,
          HALF - 1, HALF, HALF + 1, 3 * HALF + 7, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_chunked_reductions_equal_one_pass(case, count, monkeypatch):
    ambient, inner, mapping, image = CASES[case]
    stream = SampleStream(seed=1000 + count, count=count)
    report = whole_verify(ambient, inner, stream)
    sampled = whole_diameter(ambient, inner, SampleStream(count, count, 1e-5))
    gap = whole_step(mapping, ambient, image, stream)
    bound = whole_image_bound(mapping, ambient, ambient, stream)
    cert = diameter(ambient, inner)
    for _ in each_walker(monkeypatch):
        assert verify_nesting(ambient, inner, cert, stream).to_json_dict() == report
        assert diameter(ambient, inner, SampleStream(count, count, 1e-5)).M == sampled
        assert step_contraction_check(mapping, ambient, image, None, stream) == gap
        assert image_bound(mapping, ambient, ambient, stream).sup_modulus_estimate == bound


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


def test_membership_error_names_the_stream_row(monkeypatch):
    inner = LeakyDisk(0.5)
    stream = SampleStream(seed=8, count=3 * CHUNK)
    for _ in each_walker(monkeypatch):
        with pytest.raises(DomainError, match=rf"^xs\[{LEAKY_ROW}\] = "):
            verify_nesting(UnitDisk(), inner, diameter(UnitDisk(), inner), stream)


@pytest.mark.parametrize("seed", [1, 4])
def test_sampled_diameter_error_names_the_stream_row(seed, monkeypatch):
    # a disk just too large for the 1e-6 margin: one or two boundary-biased pairs
    # in forty thousand fall outside it
    inner = AffineDiskImage(0.0, (1.0 - 9.9e-7) / (1.0 - 1e-3))
    stream = SampleStream(seed=seed, count=40_000)
    xs, ys = whole_biased_pairs(inner, stream)
    outside = (np.abs(xs[:, 0]) >= 1.0 - 1e-6) | (np.abs(ys[:, 0]) >= 1.0 - 1e-6)
    row = int(np.argmax(outside))
    assert row >= CHUNK // 2  # past the first chunk of pairs
    for _ in each_walker(monkeypatch):
        with pytest.raises(HypothesisError, match=rf"^inner samples\[{row}\] = "):
            diameter(UnitDisk(), inner, stream)


class GatedDisk(UnitDisk):
    """The unit disk, with two stream rows put outside it when its distances are taken:
    ``rows[0]``, whose chunk waits on a pool thread until the chunk of ``rows[1]`` has
    failed, so that the later error is the first one raised."""

    rows = (-1, -1)
    later_failed = threading.Event()

    def _distances(self, xa, ya, names, margin=0.0, first_row=0):
        early, late = (row - first_row for row in self.rows)
        if 0 <= early < len(xa):
            if threading.current_thread() is not threading.main_thread():
                assert self.later_failed.wait(timeout=10)
            xa[early] = 1.5
        if 0 <= late < len(xa):
            xa[late] = 1.5
        try:
            return super()._distances(xa, ya, names, margin, first_row)
        except DomainError:
            if 0 <= late < len(xa):
                self.later_failed.set()
            raise


@pytest.mark.parametrize("sampled", [False, True])
def test_the_first_error_in_stream_order_wins_when_a_later_chunk_fails_first(
    sampled, monkeypatch
):
    ambient, inner = GatedDisk(), ScaledDisk(0.5)
    rows = CHUNK // 2 if sampled else CHUNK  # rows per chunk
    early, late = rows + 5, 2 * rows + 5  # in the second and the third chunk
    stream = SampleStream(seed=9, count=4 * rows)
    error, name = (HypothesisError, "inner samples") if sampled else (DomainError, "xs")
    whole = whole_diameter if sampled else whole_verify
    reference = whole(ambient, inner, stream)

    def reduce():
        if sampled:
            return diameter(ambient, inner, stream).M
        return verify_nesting(ambient, inner, None, stream).to_json_dict()

    for workers in each_walker(monkeypatch):
        monkeypatch.setattr(GatedDisk, "rows", (early, late))
        monkeypatch.setattr(GatedDisk, "later_failed", threading.Event())
        with pytest.raises(error, match=rf"^{name}\[{early}\] = \(\(1\.5\+0j\),\) "):
            reduce()
        assert GatedDisk.later_failed.is_set() == (workers == 2)  # inline, chunk 3 never ran
        monkeypatch.setattr(GatedDisk, "rows", (-1, -1))
        assert reduce() == reference  # the next call in the same process


def test_concurrent_callers_share_the_pool_and_the_seed_cache(monkeypatch):
    # four callers at once on the two-thread pool, with thread switches every microsecond
    monkeypatch.setattr(domains, "_WORKERS", 2)
    ambient, inner = UnitDisk(), ScaledDisk(0.5)
    streams = [SampleStream(seed=77 + i % 2, count=2 * CHUNK + 3) for i in range(4)]
    expected = [whole_verify(ambient, inner, s) for s in streams]
    results = {}

    def call(i):
        results[i] = verify_nesting(ambient, inner, None, streams[i]).to_json_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [results.get(i) for i in range(4)] == expected


class ErrorStateDisk(UnitDisk):
    """The unit disk, noting numpy's error state whenever its distances are taken."""

    seen = []

    def _distances(self, *args, **kwargs):
        self.seen.append(np.geterr())
        return super()._distances(*args, **kwargs)


def test_chunks_run_under_the_callers_numpy_error_state(monkeypatch):
    ambient, inner = ErrorStateDisk(), ScaledDisk(0.5)
    stream = SampleStream(seed=12, count=3 * CHUNK + 1)
    reference = whole_verify(ambient, inner, stream)
    for _ in each_walker(monkeypatch):
        monkeypatch.setattr(ErrorStateDisk, "seen", [])
        with np.errstate(all="raise"):
            report = verify_nesting(ambient, inner, None, stream)
        assert report.to_json_dict() == reference
        assert ErrorStateDisk.seen == [dict.fromkeys(np.geterr(), "raise")] * 4


def test_reductions_run_where_the_platform_has_no_affinity_or_fork():
    # macOS lacks os.sched_getaffinity, Windows also os.register_at_fork
    code = (
        "import os; del os.sched_getaffinity, os.register_at_fork\n"
        "from cmetric import SampleStream, ScaledDisk, UnitDisk, domains, verify_nesting\n"
        "stream = SampleStream(seed=3, count=3 * domains.CHUNK)\n"
        "print(domains._WORKERS, verify_nesting(UnitDisk(), ScaledDisk(0.5), None, stream).pairs_checked)\n"
    )
    # the child imports the package these tests import, installed or not
    src = os.path.dirname(os.path.dirname(domains.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(min(2, os.cpu_count() or 1)), str(3 * CHUNK)]


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
