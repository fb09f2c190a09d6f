"""The layer pass of a traced run: the ROADMAP baseline table, and every layer once.

``baseline_table`` reproduces each row of the baseline table that ROADMAP.md
records by hand, as median wall times; it runs after the span wrappers are
removed.  ``cover_layers`` calls every traced entry point once at small sizes,
so that a per-layer metric whose layer a workload leaves idle still reads a
measured value (its source is then a ``layer-*`` phase).  ``process_costs``
times fresh interpreters: bare start, and ``import cmetric``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

from cmetric import contraction, fixed_point, holomaps, metric_core
from cmetric.domains import AffineDiskImage, Polydisk, SampleStream, ScaledDisk, UnitDisk

import workloads

SEED = 42  # the seed of the hand-measured table

UNITS = {
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "table.verify_nesting_1e4.ms": "ms",
    "table.verify_nesting_1e6.ms": "ms",
    "table.verify_nesting_1e6.peak_alloc_mb": "MB",
    "table.diameter_sampled_1e6.ms": "ms",
    "table.polydisk8_verify_1e5.ms": "ms",
    "table.solve_readme.ms": "ms",
    "table.solve_readme.iterations": "count",
    "table.solve_readme.us_per_iteration": "us",
    "table.caratheodory.us": "us",
    "table.poincare_distance.us": "us",
    "table.cli_sweep_one_radius.ms": "ms",
    "table.import_cmetric.ms": "ms",
}


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _run_python(argv, root: str) -> float:
    """Wall milliseconds of one interpreter run, from start to exit."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, timeout=120)
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if proc.returncode != 0:
        raise RuntimeError(f"{argv!r} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return elapsed


def baseline_table(root: str, out_dir: str) -> dict[str, float]:
    disk, half = UnitDisk(), ScaledDisk(0.5)
    half_cert = contraction.diameter(disk, half)
    poly, poly_inner = Polydisk((1.0,) * 8), Polydisk((0.6,) * 8)
    poly_cert = contraction.diameter(poly, poly_inner)
    readme_inner = AffineDiskImage(0.25, 0.55)
    readme = fixed_point.FixedPointProblem(
        disk, readme_inner, holomaps.Polynomial(((0.25, 0.5),)), (0.0,), 1e-11
    )
    readme_cert = contraction.diameter(disk, readme_inner)
    iterations = fixed_point.solve(readme, readme_cert).iterations

    def verify(n):
        return contraction.verify_nesting(disk, half, half_cert, SampleStream(SEED, n))

    sweep_spec = os.path.join(out_dir, "table-sweep.json")
    with open(sweep_spec, "w", encoding="utf-8") as handle:
        json.dump({"radii": [0.5]}, handle)
    sweep_argv = ["-m", "cmetric", "sweep", "--input", os.path.relpath(sweep_spec, root)]
    import_argv = ["-c", "import time; t = time.perf_counter(); import cmetric; "
                         "print(time.perf_counter() - t)"]

    def import_ms():
        proc = subprocess.run([sys.executable, *import_argv], cwd=root, capture_output=True,
                              timeout=120, check=True)
        return float(proc.stdout) * 1e3

    solve_ms = _median_ms(lambda: fixed_point.solve(readme, readme_cert), 51)
    return {
        "table.verify_nesting_1e4.ms": _median_ms(lambda: verify(10_000), 21),
        "table.verify_nesting_1e6.ms": _median_ms(lambda: verify(1_000_000), 3),
        "table.verify_nesting_1e6.peak_alloc_mb": peak_alloc_mb(lambda: verify(1_000_000)),
        "table.diameter_sampled_1e6.ms": _median_ms(
            lambda: contraction.diameter(disk, half, SampleStream(SEED, 1_000_000)), 3
        ),
        "table.polydisk8_verify_1e5.ms": _median_ms(
            lambda: contraction.verify_nesting(
                poly, poly_inner, poly_cert, SampleStream(SEED, 100_000)
            ), 3
        ),
        "table.solve_readme.ms": solve_ms,
        "table.solve_readme.iterations": float(iterations),
        "table.solve_readme.us_per_iteration": solve_ms * 1e3 / iterations,
        "table.caratheodory.us": _median_ms(
            lambda: [disk.caratheodory((0.3 + 0.1j,), (-0.2 + 0.4j,)) for _ in range(1000)], 5
        ),
        "table.poincare_distance.us": _median_ms(
            lambda: [metric_core.poincare_distance(0.3 + 0.1j, -0.2 + 0.4j) for _ in range(1000)],
            5,
        ),
        "table.cli_sweep_one_radius.ms": statistics.median(
            _run_python(sweep_argv, root) for _ in range(3)
        ),
        "table.import_cmetric.ms": statistics.median(import_ms() for _ in range(3)),
    }


def process_costs(root: str) -> dict[str, float]:
    start = statistics.median(_run_python(["-c", "pass"], root) for _ in range(5))
    imported = statistics.median(_run_python(["-c", "import cmetric"], root) for _ in range(5))
    return {"cli.python_start_ms": start, "cli.import_ms": imported - start}


def cover_layers(root: str, seed: int, tracer) -> None:
    """Small calls into every traced entry point, in three phases of ``tracer``.

    Each phase makes the same calls on every workload: ``layer-bulk`` the
    sampled, vectorised calls; ``layer-scalar`` one certified ``solve``;
    ``layer-cli`` one in-process ``cli.main`` call per command.
    """
    tracer.phase = "layer-bulk"
    disk = UnitDisk()
    inner = ScaledDisk(0.5)
    cert = contraction.diameter(disk, inner)
    stream = SampleStream(seed, 10_000)
    contraction.verify_nesting(disk, inner, cert, stream)
    contraction.diameter(disk, inner, stream)
    f = holomaps.random_selfmap(disk, seed, 0.8)
    image = ScaledDisk(0.8)
    image_cert = contraction.diameter(disk, image)
    fixed_point.step_contraction_check(f, disk, image, image_cert, stream)
    holomaps.image_bound(f, disk, disk, stream)
    tracer.phase = "layer-scalar"
    problem = fixed_point.FixedPointProblem(disk, image, f, (0.0,), 1e-11)
    fixed_point.solve(problem, image_cert)
    tracer.phase = "layer-cli"
    for call in workloads.CliInvocations(seed, root).inproc_calls():
        call()
