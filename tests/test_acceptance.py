"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and asserts the criterion.  Tolerances are pinned here and never
loosened at runtime.
"""

import json
import math
import time

import numpy as np

from cmetric import (
    AffineDiskImage,
    FixedPointProblem,
    SampleStream,
    ScaledDisk,
    UnitDisk,
    Polynomial,
    atanh_stable,
    convexity_margin,
    diameter,
    random_selfmap,
    required_iterations,
    solve,
    uniqueness_probe,
    verify_nesting,
)
from cmetric.cli import main as cli_main
from cmetric.metric_core import poincare_distance_many

from atanh_derivatives import atanh_derivative, atanh_second_derivative

TWO_ATANH_HALF = 1.0986122886681098  # 2 * atanh(0.5) = ln 3, mpmath oracle
SWEEP_RADII = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _criterion(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


# -- convexity inequality sweep --------------------------------------------------


def test_A1_convexity_margin_sweep():
    t0 = time.perf_counter()
    worst = math.inf
    for r in np.linspace(0.0, 1 - 1e-6, 200):
        for x in np.linspace(0.0, 20.0, 200):
            worst = min(worst, convexity_margin(float(r), float(x)))
    rng = np.random.default_rng(2024)
    for r, x in zip(rng.random(10_000) * (1 - 1e-6), rng.random(10_000) * 20.0):
        worst = min(worst, convexity_margin(float(r), float(x)))
    elapsed = time.perf_counter() - t0
    _criterion(
        "A1 convexity-margin sweep (200x200 grid + 1e4 random)",
        worst >= -1e-12 and elapsed < 1.0,
        f"min margin {worst:.3e} (>= -1e-12), elapsed {elapsed:.2f}s (< 1s)",
    )


# -- derivative checks -------------------------------------------------------------


def _fd_first(f, x, h=1e-4):
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def _fd_second(f, x, h=1e-4):
    return (
        -f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)
    ) / (12 * h * h)


def test_A2_derivative_checks():
    worst_first = worst_second = 0.0
    for x in np.linspace(0.01, 0.95, 189):
        x = float(x)
        d1 = atanh_derivative(x)
        d2 = atanh_second_derivative(x)
        worst_first = max(worst_first, abs(_fd_first(atanh_stable, x) - d1) / d1)
        worst_second = max(worst_second, abs(_fd_second(atanh_stable, x) - d2) / d2)
    ok = worst_first <= 1e-6 and worst_second <= 1e-6
    _criterion(
        "A2 analytic derivatives vs central differences on [0.01, 0.95]",
        ok,
        f"max rel err: first {worst_first:.3e}, second {worst_second:.3e} (<= 1e-6)",
    )


# -- nesting inequality sweep --------------------------------------------------------


def test_A3_nesting_inequality_sweep():
    t0 = time.perf_counter()
    worst_violation = -math.inf
    worst_k_gap = 0.0
    worst_diam_gap = 0.0
    for r in SWEEP_RADII:
        inner = ScaledDisk(r)
        cert = diameter(UnitDisk(), inner)
        worst_k_gap = max(worst_k_gap, abs(cert.k - 2 * r / (1 + r * r)))
        sampled = diameter(
            UnitDisk(), inner, SampleStream(seed=97, count=1_000_000, boundary_margin=1e-5)
        )
        assert sampled.M <= cert.M + 1e-12
        worst_diam_gap = max(worst_diam_gap, cert.M - sampled.M)
        report = verify_nesting(UnitDisk(), inner, cert, SampleStream(seed=131, count=10_000))
        worst_violation = max(worst_violation, report.max_violation)
    elapsed = time.perf_counter() - t0
    ok = worst_violation <= 1e-10 and worst_k_gap <= 1e-15 and worst_diam_gap <= 1e-3
    ok = ok and elapsed < 10.0
    _criterion(
        "A3 nesting inequality sweep r in {0.1..0.9}",
        ok,
        f"max violation {worst_violation:.3e} (<= 1e-10), k gap {worst_k_gap:.2e} "
        f"(<= 1e-15), sampled-diameter gap {worst_diam_gap:.2e} (<= 1e-3), "
        f"elapsed {elapsed:.1f}s (< 10s)",
    )


def test_A4_intermediate_proof_chain():
    worst_sup = -math.inf  # c_ambient - atanh(k tanh c_inner) <= 0
    worst_convex = -math.inf  # atanh(k tanh c_inner) - k c_inner <= 0
    for r in SWEEP_RADII:
        inner = ScaledDisk(r)
        cert = diameter(UnitDisk(), inner)
        stream = SampleStream(seed=131, count=10_000)
        xs = inner.sample(stream)
        ys = inner.sample(SampleStream(seed=stream.seed ^ 0x9E3779B97F4A7C15, count=10_000))
        c_x = UnitDisk().caratheodory_many(xs, ys)
        c_u = inner.caratheodory_many(xs, ys)
        chained = np.arctanh(cert.k * np.tanh(c_u))
        worst_sup = max(worst_sup, float((c_x - chained).max()))
        worst_convex = max(worst_convex, float((chained - cert.k * c_u).max()))
    ok = worst_sup <= 1e-12 and worst_convex <= 1e-12
    _criterion(
        "A4 intermediate chain: c_X <= atanh(k tanh c_U) <= k c_U",
        ok,
        f"max residuals {worst_sup:.3e}, {worst_convex:.3e} (<= 1e-12)",
    )


# -- distance-decreasing property ------------------------------------------------------


def test_A5_schwarz_pick_sweep():
    biases = [0.3, 0.5, 0.7, 0.9, 0.97]
    worst = math.inf
    for seed in range(100):
        f = random_selfmap(UnitDisk(), seed=seed, contraction_bias=biases[seed % len(biases)])
        zs = UnitDisk().sample(SampleStream(seed=1000 + seed, count=1000))
        ws = UnitDisk().sample(SampleStream(seed=5000 + seed, count=1000))
        base = poincare_distance_many(zs[:, 0], ws[:, 0])
        image = poincare_distance_many(
            f.evaluate_many(zs)[:, 0], f.evaluate_many(ws)[:, 0]
        )
        worst = min(worst, float((base - image).min()))
    _criterion(
        "A5 Schwarz-Pick gap over 100 generated self-maps x 1e3 pairs",
        worst >= -1e-10,
        f"min gap {worst:.3e} (>= -1e-10)",
    )


# -- fixed-point iteration ----------------------------------------------------------------


def test_A6_geometric_rate_and_fixed_point():
    problem = FixedPointProblem(
        ambient=UnitDisk(),
        inner=AffineDiskImage(0.25, 0.55),
        mapping=Polynomial(((0.25, 0.5),)),
        start=(0.0,),
        tolerance=1e-11,
    )
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    k, d0 = result.k_used, result.trace[0]
    rate_ok = all(
        step <= k**n * d0 * (1 + 1e-9) for n, step in enumerate(result.trace)
    )
    location_err = abs(result.point[0] - 0.5)
    budget = required_iterations(k, d0, problem.tolerance) + 16
    ok = rate_ok and location_err <= 1e-10 and result.iterations <= budget
    _criterion(
        "A6 geometric step bound and fixed point of z/2 + 1/4",
        ok,
        f"rate bound {'holds' if rate_ok else 'fails'}, |b - 0.5| = {location_err:.2e} "
        f"(<= 1e-10), iterations {result.iterations} <= {budget}",
    )


def test_A7_uniqueness_across_starts():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    tol = 1e-9
    slack = 2 * tol * cert.k / (1 - cert.k) + 1e-10
    starts = [tuple(p) for p in UnitDisk().sample(SampleStream(seed=7777, count=10, boundary_margin=0.05))]
    worst = 0.0
    for seed in range(200, 220):
        f = random_selfmap(UnitDisk(), seed=seed, contraction_bias=0.5)
        problem = FixedPointProblem(
            ambient=UnitDisk(), inner=inner, mapping=f, start=starts[0], tolerance=tol
        )
        worst = max(worst, uniqueness_probe(problem, cert, starts))
    _criterion(
        "A7 uniqueness: 20 contractive maps x 10 starts",
        worst <= slack,
        f"max spread {worst:.3e} (<= {slack:.3e})",
    )


# -- sampled-diameter oracle ----------------------------------------------------------------


def test_A8_sampled_diameter_converges_monotonically():
    inner = ScaledDisk(0.5)
    estimates = [
        diameter(
            UnitDisk(), inner, SampleStream(seed=97, count=n, boundary_margin=1e-5)
        ).M
        for n in (1_000, 10_000, 100_000, 1_000_000)
    ]
    monotone = all(a <= b for a, b in zip(estimates, estimates[1:]))
    from_below = all(m <= TWO_ATANH_HALF + 1e-12 for m in estimates)
    final_gap = TWO_ATANH_HALF - estimates[-1]
    ok = monotone and from_below and final_gap <= 1e-3
    _criterion(
        "A8 sampled diameter for ScaledDisk(0.5) converges from below",
        ok,
        f"ladder {['%.6f' % m for m in estimates]}, final gap {final_gap:.2e} (<= 1e-3)",
    )


# -- CLI determinism ---------------------------------------------------------------------


def test_A9_cli_sweep_is_byte_deterministic(tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"radii": SWEEP_RADII}), encoding="utf-8")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        code = cli_main(
            [
                "sweep",
                "--input",
                str(spec_path),
                "--seed",
                "42",
                "--format",
                "csv",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    _criterion(
        "A9 CLI sweep with seed 42 is byte-deterministic",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes, identical={outputs[0] == outputs[1]}",
    )
