"""The benchmark's per-layer metrics must keep reading values from the library.

``bench/tracer.py`` wraps public names of ``cmetric`` and reads each per-layer
metric from the spans of those names.  A refactor that stops calling a
wrapped name (say, sampling without ``Domain.sample``) silently drops the
metric from the benchmark's result.  This test installs the unmodified
tracer, makes the calls of the benchmark's bulk and scalar layer passes, and
checks that every metric read from those passes has a value.
"""

import importlib.util
from pathlib import Path

from cmetric import contraction, fixed_point, holomaps
from cmetric.domains import SampleStream, ScaledDisk, UnitDisk

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bulk_and_scalar_layer_passes_yield_every_metric():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        # calls go through module attributes, where the wrappers are installed
        tracer.phase = "layer-bulk"
        disk, inner, image = UnitDisk(), ScaledDisk(0.5), ScaledDisk(0.8)
        stream = SampleStream(42, 10_000)
        contraction.verify_nesting(disk, inner, contraction.diameter(disk, inner), stream)
        contraction.diameter(disk, inner, stream)
        f = holomaps.random_selfmap(disk, 42, 0.8)
        fixed_point.step_contraction_check(f, disk, image, None, stream)
        holomaps.image_bound(f, disk, disk, stream)
        tracer.phase = "layer-scalar"
        fixed_point.solve(fixed_point.FixedPointProblem(disk, image, f, (0.0,), 1e-11))
    finally:
        tracing.uninstall(originals)
    checked = {
        name: compute(tracer.totals, phase)
        for name, (_, _, phase, compute) in tracing.LAYER_METRICS.items()
        if phase in ("layer-bulk", "layer-scalar")
    }
    assert len(checked) >= 18
    assert [name for name, value in checked.items() if value is None] == []
