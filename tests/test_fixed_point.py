"""Unit tests for the certified fixed-point solver."""

import dataclasses
import math
import re
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from cmetric import (
    Affine,
    AffineDiskImage,
    AffineImage,
    CmetricError,
    Compose,
    ContractionCertificate,
    Domain,
    DomainError,
    FixedPointProblem,
    FixedPointResult,
    HoloMap,
    HypothesisError,
    Mobius,
    NonConvergenceError,
    NumericError,
    Polydisk,
    Polynomial,
    SampleStream,
    ScaledDisk,
    ScalarScale,
    StructuralError,
    UnitDisk,
    diameter,
    random_selfmap,
    required_iterations,
    solve,
    step_contraction_check,
    uniqueness_probe,
)
from cmetric import contraction, fixed_point
from cmetric.fixed_point import MAX_ITER_GUARD

HALF_PLUS_QUARTER = Polynomial(((0.25, 0.5),))  # z -> z/2 + 1/4, fixed point 1/2
QUARTER_DISK = AffineDiskImage(0.25, 0.55)  # contains the image disk D(1/4, 1/2)


def _true_error(point):
    """Poincare distance from ``point`` to the exact fixed point 1/2, by mpmath."""
    z, w = mp.mpc(point[0]), mp.mpf(0.5)
    return float(mp.atanh(abs((z - w) / (1 - w * z))))


def _problem(tolerance=1e-11, max_iter=None):
    return FixedPointProblem(
        ambient=UnitDisk(),
        inner=QUARTER_DISK,
        mapping=HALF_PLUS_QUARTER,
        start=(0.0,),
        tolerance=tolerance,
        max_iter=max_iter,
    )


# -- required_iterations -----------------------------------------------------------


def test_required_iterations_frozen_examples():
    # ceil(ln(1e-8 * 0.2) / ln 0.8) and the exactly-integer case 0.5^3 / 0.5 = 0.25
    assert required_iterations(0.8, 1.0, 1e-8) == 90
    assert required_iterations(0.5, 1.0, 0.25) == 3


def test_required_iterations_near_the_subnormal_floor():
    # tol * (1 - k) / d0 underflows to 0 here, so the count is formed from logs
    # and it is the smallest n with k^n * d0 / (1 - k) <= tol, checked in mpmath
    for k, d0, tol, n in ((0.5, 1.0, 5e-324, 1075), (0.99, 17.0, 5e-324, 74812)):
        with mp.workprec(256):
            bound = [mp.mpf(k) ** m * d0 / (1 - mp.mpf(k)) for m in (n - 1, n)]
            assert bound[0] > tol >= bound[1]
        assert required_iterations(k, d0, tol) == n


def test_required_iterations_zero_when_already_within_bound():
    assert required_iterations(0.8, 1.0, 5.0) == 0
    assert required_iterations(0.8, 1.0, 1.0 / (1 - 0.8)) == 0


def test_required_iterations_degenerate_constant():
    assert required_iterations(0.0, 1.0, 0.5) == 1
    assert required_iterations(0.0, 1.0, 2.0) == 0


def test_required_iterations_bound_actually_holds():
    for k in (0.3, 0.8, 0.99):
        for tol in (1e-3, 1e-9):
            n = required_iterations(k, 1.0, tol)
            assert k**n / (1 - k) <= tol * (1 + 1e-9)
            if n > 0:
                assert k ** (n - 1) / (1 - k) > tol * (1 - 1e-9)


@pytest.mark.parametrize(
    "k, d0, tol",
    [(1.0, 1.0, 0.1), (-0.2, 1.0, 0.1), (0.5, 0.0, 0.1), (0.5, 1.0, 0.0), (float("nan"), 1, 1)],
)
def test_required_iterations_rejects_bad_input(k, d0, tol):
    with pytest.raises(DomainError):
        required_iterations(k, d0, tol)


@pytest.mark.parametrize(
    "bad", ["0.5", b"0.5", None, True, 0.5j, 10**400],
    ids=["text", "bytes", "none", "bool", "complex", "huge"],
)
def test_required_iterations_arguments_are_real_numbers(bad):
    for args in ((bad, 1.0, 1e-3), (0.5, bad, 1e-3), (0.5, 1.0, bad)):
        with pytest.raises(StructuralError):
            required_iterations(*args)
    assert required_iterations(np.float32(0.5), 1, np.float64(1e-3)) == 11


# -- solve -------------------------------------------------------------------------


def test_solve_linear_map_reaches_exact_fixed_point():
    problem = _problem(tolerance=1e-12)
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    assert abs(result.point[0] - 0.5) <= 1e-12
    assert result.iterations == len(result.trace)
    assert result.last_step == result.trace[-1]
    assert result.certified_bound <= problem.tolerance
    assert result.k_used == cert.k


def test_solve_respects_apriori_budget():
    problem = _problem(tolerance=1e-11)
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    budget = required_iterations(cert.k, result.trace[0], problem.tolerance) + 16
    assert result.iterations <= budget


def test_solve_trace_is_geometric():
    problem = _problem(tolerance=1e-11)
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    k = result.k_used
    d0 = result.trace[0]
    for n, step in enumerate(result.trace):
        assert step <= k**n * d0 * (1 + 1e-9)
    # monotone decay
    for a, b in zip(result.trace, result.trace[1:]):
        assert b <= a + 1e-12


def test_solve_cauchy_tail_bound():
    problem = _problem(tolerance=1e-11)
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    # replay the deterministic iteration to recover the iterates themselves
    iterates = [problem.start]
    for _ in range(result.iterations):
        iterates.append(problem.mapping.evaluate(iterates[-1]))
    k = result.k_used
    ambient = problem.ambient
    for n in range(0, result.iterations, 7):
        for m in range(n + 1, result.iterations + 1, 11):
            tail = ambient.caratheodory(iterates[n], iterates[m])
            assert tail <= result.trace[n] / (1 - k) * (1 + 1e-9)


def test_solve_residual_is_within_tolerance():
    problem = _problem(tolerance=1e-9)
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    residual = problem.ambient.caratheodory(result.point, problem.mapping.evaluate(result.point))
    assert residual <= problem.tolerance


def test_solve_constant_map_lands_in_one_application():
    c = 0.3 + 0.1j
    problem = FixedPointProblem(
        ambient=UnitDisk(),
        inner=AffineDiskImage(c, 0.1),
        mapping=Polynomial(((c,),)),
        start=(0.0,),
        tolerance=1.0,
        max_iter=None,
    )
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    assert result.iterations == 1
    assert result.point == (c,)


def test_solve_mobius_conjugated_scaling():
    # m_{-a} (0.5 * m_a(z)) fixes a; its image is the Mobius image of D(0, 1/2)
    a = 0.3
    mapping = Compose(Mobius(-a), Compose(ScalarScale(0.5), Mobius(a)))
    # real-axis crossings of the image disk: (-0.2/0.85 + 0.8/1.15) / 2, etc.
    center = (-0.2 / 0.85 + 0.8 / 1.15) / 2
    problem = FixedPointProblem(
        ambient=UnitDisk(),
        inner=AffineDiskImage(center, 0.47),
        mapping=mapping,
        start=(-0.6 + 0.2j,),
        tolerance=1e-10,
    )
    cert = diameter(problem.ambient, problem.inner)
    result = solve(problem, cert)
    assert abs(result.point[0] - a) <= 5e-10
    # empirical rate never exceeds the certified constant
    for prev, nxt in zip(result.trace, result.trace[1:]):
        if prev > 1e-13:
            assert nxt / prev <= result.k_used + 1e-9


def test_solve_nonconvergence_carries_trace():
    problem = _problem(tolerance=1e-12, max_iter=3)
    cert = diameter(problem.ambient, problem.inner)
    with pytest.raises(NonConvergenceError) as info:
        solve(problem, cert)
    assert len(info.value.trace) == 3


def test_solve_detects_escape_from_inner_domain():
    problem = FixedPointProblem(
        ambient=UnitDisk(),
        inner=ScaledDisk(0.1),  # too small: the image reaches 0.75
        mapping=HALF_PLUS_QUARTER,
        start=(0.0,),
        tolerance=1e-9,
    )
    cert = diameter(problem.ambient, problem.inner)
    with pytest.raises(HypothesisError):
        solve(problem, cert)


def test_solve_rejects_sampled_certificates_and_bad_starts():
    problem = _problem()
    sampled = diameter(
        problem.ambient, problem.inner, SampleStream(seed=1, count=100)
    )
    with pytest.raises(HypothesisError):
        solve(problem, sampled)
    cert = diameter(problem.ambient, problem.inner)
    bad_start = FixedPointProblem(
        ambient=UnitDisk(),
        inner=QUARTER_DISK,
        mapping=HALF_PLUS_QUARTER,
        start=(1.5,),
        tolerance=1e-9,
    )
    with pytest.raises(DomainError):
        solve(bad_start, cert)


def test_problem_fields_are_typed():
    for max_iter in ("5", 2.5, True, 0):
        with pytest.raises(StructuralError):
            _problem(max_iter=max_iter)
    for tolerance in ("1e-3", b"1e-3", True, None, 1e-3j, 0.0, float("nan"), math.inf):
        with pytest.raises(StructuralError):
            _problem(tolerance=tolerance)
    problem = _problem(tolerance=np.float32(0.25), max_iter=np.int64(3))
    assert (type(problem.tolerance), type(problem.max_iter)) == (float, int)
    assert _problem(max_iter=3.0).max_iter == 3
    assert solve(_problem(max_iter=np.int64(39))).iterations == 39


def test_certificate_of_another_nesting_is_rejected():
    # k = tanh(2 atanh 0.2) = 0.385 belongs to ScaledDisk(0.2), not to D(1/4, 0.55),
    # whose own k is 0.887; trusting it reported a bound of 8.1e-4 for an error of 1.3e-3
    problem = _problem(tolerance=1e-3)
    foreign = diameter(UnitDisk(), ScaledDisk(0.2))
    assert foreign.method == "closed_form"
    assert foreign.k < diameter(problem.ambient, problem.inner).k
    with pytest.raises(HypothesisError):
        solve(problem, foreign)
    with pytest.raises(HypothesisError):
        uniqueness_probe(problem, foreign, [(0.0,), (0.3j,)])
    with pytest.raises(HypothesisError):
        step_contraction_check(
            HALF_PLUS_QUARTER, UnitDisk(), QUARTER_DISK, foreign, SampleStream(seed=3, count=100)
        )


def test_looser_closed_form_certificate_is_accepted_and_still_bounds():
    problem = _problem(tolerance=1e-3)
    own = diameter(problem.ambient, problem.inner)
    M = own.M + 0.5
    loose = ContractionCertificate(
        M=M, k=math.tanh(M), method="closed_form", sample_count=0, seed=0
    )
    result = solve(problem, loose)
    tight = solve(problem, own)
    assert result.k_used == loose.k > own.k
    assert result.certified_bound >= _true_error(result.point)
    assert tight.certified_bound >= _true_error(tight.point)
    assert result.iterations >= tight.iterations
    gap = step_contraction_check(
        HALF_PLUS_QUARTER, UnitDisk(), QUARTER_DISK, loose, SampleStream(seed=3, count=1000)
    )
    assert gap <= 1e-10


def test_solve_pulls_each_iterate_once_per_chart(monkeypatch):
    calls = Counter()
    for owner, name in ((Domain, "contains"), (Domain, "caratheodory"), (Domain, "_pull_point"),
                        (HoloMap, "evaluate")):

        def counted(self, *args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for problem in (_problem(), _problem(tolerance=1e-4), _polydisk_problem(3, seed=5),
                    _affine_problem(2, seed=41)):
        k, loop = problem._solver

        def counted_loop(*args):
            calls["loop"] += 1
            return loop(*args)

        vars(problem)["_solver"] = (k, counted_loop)  # where the cached property keeps it
        calls.clear()
        assert solve(problem).iterations > 1
        # the public calls check the start and the residual of the returned point
        assert calls.pop("contains") == calls.pop("caratheodory") == calls.pop("evaluate") == 1
        # one compiled loop runs every iteration, pulling each image through both charts;
        # the start's public check and its ambient model coordinates, and the residual's
        # two points, are the only other pulls
        assert calls == {"_pull_point": 4, "loop": 1}


def _polydisk_problem(n, seed, radii=None):
    radii = radii or (1.0,) * n
    bias = 0.6 + 0.05 * n
    return FixedPointProblem(
        ambient=Polydisk(radii),
        inner=Polydisk(tuple(bias * r for r in radii)),
        mapping=random_selfmap(Polydisk(radii), seed, bias),
        start=tuple(0.3 * r * (-1) ** j for j, r in enumerate(radii)),
        tolerance=1e-11,
    )


def _affine_problem(n, seed):
    # z -> M f(M^-1 (z - c)) + c is a self-map of M Δⁿ + c with image in M (bias Δⁿ) + c
    rng = np.random.default_rng(seed)
    matrix = np.eye(n) + 0.3 * (rng.random((n, n)) - 0.5 + 1j * (rng.random((n, n)) - 0.5))
    offset = 0.2 * (rng.random(n) - 0.5) + 0.2j * (rng.random(n) - 0.5)
    inverse = np.linalg.inv(matrix)
    bias = 0.7
    return FixedPointProblem(
        ambient=AffineImage(Polydisk((1.0,) * n), matrix.tolist(), offset.tolist()),
        inner=AffineImage(Polydisk((bias,) * n), matrix.tolist(), offset.tolist()),
        mapping=Compose(
            Affine(matrix.tolist(), offset.tolist()),
            Compose(random_selfmap(Polydisk((1.0,) * n), seed, bias),
                    Affine(inverse.tolist(), (-inverse @ offset).tolist())),
        ),
        start=offset.tolist(),
        tolerance=1e-10,
    )


def _reference_solve(problem):
    """``solve`` written with the public calls only, for a derived certificate, raising the
    errors that ``solve`` documents."""
    ambient, inner, f = problem.ambient, problem.inner, problem.mapping
    tol, max_iter = problem.tolerance, problem.max_iter
    k = diameter(ambient, inner).k
    factor = k / (1.0 - k)
    x = problem.start
    if not ambient.contains(x):
        raise DomainError(f"start {x!r} is not inside the ambient domain")
    trace = []
    while True:
        try:
            x_next = f.evaluate(x)
        except NumericError as exc:
            raise NumericError(str(exc), trace) from None
        if not inner.contains(x_next):
            raise HypothesisError(
                f"iterate {x_next!r} left the inner domain at step {len(trace)}; "
                "the image containment hypothesis fails",
                trace,
            )
        if not ambient.contains(x_next):
            raise DomainError(f"iterate {x_next!r} is not inside {ambient!r}")
        step = ambient.caratheodory(x, x_next)
        trace.append(step)
        if max_iter is None:
            max_iter = required_iterations(k, step, tol) + MAX_ITER_GUARD if step > 0.0 else 1
        if step * factor <= tol:
            break
        if len(trace) >= max_iter:
            raise NonConvergenceError(
                f"no convergence within {max_iter} iterations "
                f"(last step {step!r}, required bound {tol * (1.0 - k) / k if k else tol!r})",
                trace,
            )
        x = x_next
    residual = ambient.caratheodory(x_next, f.evaluate(x_next))
    if residual > tol:
        raise HypothesisError(
            f"fixed-point residual {residual!r} exceeds the tolerance {tol!r}; "
            "the contraction hypothesis fails for this setup",
            trace,
        )
    n = len(trace)
    return FixedPointResult(
        point=x_next, iterations=n, last_step=trace[-1], certified_bound=trace[-1] * factor,
        apriori_bound=k**n * trace[0] / (1.0 - k), k_used=k, trace=tuple(trace),
    )


def _outcome(run, problem):
    """What ``run(problem)`` returns or raises, with every bit of each float."""
    try:
        return repr(run(problem))
    except CmetricError as exc:
        return type(exc), str(exc), repr(exc.trace)


def _conjugated(chart: Affine, mapping: HoloMap) -> HoloMap:
    """``chart ∘ mapping ∘ chart^-1`` for a one-dimensional ``chart`` z -> a z + b."""
    (a,), (b,) = chart.matrix[0], chart.offset
    return Compose(chart, Compose(mapping, Affine(((1 / a,),), (-b / a,))))


def _seeded_problems():
    for seed in range(6):
        bias = 0.6 + 0.05 * seed
        yield FixedPointProblem(UnitDisk(), ScaledDisk(bias), random_selfmap(UnitDisk(), seed, bias),
                                (0.1 * seed - 0.2j,), 1e-11)
    for n in range(1, 5):
        for seed in range(3):
            yield _polydisk_problem(n, seed=10 * n + seed)
        yield _polydisk_problem(n, seed=n, radii=(1.0, 0.5, 0.8, 0.3)[:n])
    for n in range(1, 4):
        for seed in range(2):
            yield _affine_problem(n, seed=20 * n + seed)
    # off-centre disks: every chart term is kept
    centre, radius, bias = 0.2 - 0.1j, 1.5, 0.7
    yield FixedPointProblem(
        AffineDiskImage(centre, radius), AffineDiskImage(centre + 0.01, radius * (bias + 0.02)),
        _conjugated(Affine(((radius,),), (centre,)), random_selfmap(UnitDisk(), 7, bias)),
        centre + 0.4j, 1e-11,
    )
    scaled = ScaledDisk(0.8)  # a diagonal A^-1 entry of 1.25, offset 0
    yield FixedPointProblem(scaled, ScaledDisk(0.8 * bias),
                            _conjugated(Affine(((0.8,),), (0.0,)), random_selfmap(UnitDisk(), 8, bias)),
                            -0.3j, 1e-11)
    # random_selfmap conjugated by an off-centre disk chart and a full one
    disk = AffineDiskImage(centre, radius)
    yield FixedPointProblem(disk, AffineDiskImage(centre, radius * bias),
                            random_selfmap(disk, 9, bias), centre - 0.5, 1e-11)
    matrix, offset = ((0.6, 0.2), (0.1j, 0.5)), (0.1, -0.05j)
    sheared = AffineImage(Polydisk((1.0, 1.0)), matrix, offset)
    yield FixedPointProblem(sheared, AffineImage(Polydisk((bias, bias)), matrix, offset),
                            random_selfmap(sheared, 10, bias), (0.3, 0.1j), 1e-11)
    yield dataclasses.replace(_polydisk_problem(2, seed=9), max_iter=500)
    yield dataclasses.replace(_polydisk_problem(2, seed=9),
                              start=(complex(-0.0, 0.3), complex(0.2, -0.0)))
    yield dataclasses.replace(_polydisk_problem(1, seed=9), start=(complex(-0.0, -0.0),))
    yield FixedPointProblem(UnitDisk(), ScaledDisk(0.5), Polynomial(((-0j,),)), 0.4 - 0.2j, 1e-11)
    # steps down to 1e-200: squared, those below about 1e-154 are no normal doubles
    yield FixedPointProblem(UnitDisk(), ScaledDisk(0.6), ScalarScale(0.5), 0.5, 1e-200)


@pytest.mark.parametrize("problem", list(_seeded_problems()))
def test_solve_is_byte_identical_to_the_public_call_loop(problem):
    result = solve(problem)
    assert result.iterations > 1
    # repr keeps every bit of a float, the sign of a zero included
    assert repr(result) == repr(_reference_solve(problem))


def _failing_problems():
    shift = Polynomial(((0.3, 0.5),))  # leaves D(0, 1/2) at its third iterate
    yield "escape", HypothesisError, FixedPointProblem(UnitDisk(), ScaledDisk(0.5), shift, 0.0, 1e-9)
    later_pole = Compose(Mobius(0.5), Polynomial(((2.0, -4.0),)))  # fails at its second iterate
    yield "pole", NumericError, FixedPointProblem(UnitDisk(), ScaledDisk(0.5), later_pole, 0.375, 1e-9)
    yield "given budget", NonConvergenceError, _problem(tolerance=1e-12, max_iter=3)
    # rate 0.9 above k = 0.8: the derived budget runs out
    slow = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), ScalarScale(0.9), 0.4, 1e-9)
    yield "derived budget", NonConvergenceError, slow
    # the first step's quotient is the start's modulus, 1 - 2^-53, at the atanh guard
    constant = Polynomial(((0j,),))
    near_rim = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), constant, 1 - 2**-53, 1e-9)
    yield "atanh guard", DomainError, near_rim
    # the image is finite, but its modulus overflows in the inner test
    huge = Compose(ScalarScale(1e308), Polynomial((((1.3 + 1.3j),),)))
    yield "overflow", HypothesisError, FixedPointProblem(Polydisk((10.0,)), UnitDisk(), huge, 0.0, 1e-6)
    expanding = Polynomial(((-2.7, 10.0),))  # stops at once; its residual is too large
    problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), expanding, 0.3 + 1e-6, 5e-5)
    yield "residual", HypothesisError, problem


@pytest.mark.parametrize("error, problem", [case[1:] for case in _failing_problems()],
                         ids=[case[0] for case in _failing_problems()])
def test_solve_fails_as_the_public_call_loop_fails(error, problem):
    outcome = _outcome(solve, problem)
    assert outcome[0] is error
    assert outcome == _outcome(_reference_solve, problem)


def test_map_blowing_up_inside_the_loop_is_a_numeric_error():
    overflow = Polynomial(((1e308, 1e308),))  # inf at 0.9
    not_a_number = Polynomial(((-1e308, 1e308, 1e308),))  # inf times 0.9 has a NaN part
    pole = Compose(Mobius(0.5), Polynomial(((2.0,),)))  # 2 is the Mobius pole
    # 0.375 -> 0.5 -> Mobius(0.5)(0.5) = 0, inside D(0, 1/2), and 0 -> 2: the second iterate fails
    later_pole = Compose(Mobius(0.5), Polynomial(((2.0, -4.0),)))
    for mapping, start, steps in (
        (overflow, 0.9, 0), (not_a_number, 0.9, 0), (pole, 0.9, 0), (later_pole, 0.375, 1),
    ):
        problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), mapping, start, 1e-9)
        with pytest.raises(NumericError) as info:
            solve(problem)
        x, trace = problem.start, []
        for _ in range(steps):
            x_next = mapping.evaluate(x)
            trace.append(UnitDisk().caratheodory(x, x_next))
            x = x_next
        with pytest.raises(NumericError) as direct:
            mapping.evaluate(x)
        assert str(info.value) == str(direct.value)
        # the error carries the steps recorded before it
        assert info.value.trace == tuple(trace) and len(trace) == steps


# -- step contraction check -----------------------------------------------------------


def test_step_contraction_constant_map_is_trivially_contractive():
    inner = AffineDiskImage(0.3, 0.05)
    cert = diameter(UnitDisk(), inner)
    gap = step_contraction_check(
        Polynomial(((0.3,),)), UnitDisk(), inner, cert, SampleStream(seed=2, count=500)
    )
    assert gap <= 0.0


def test_step_contraction_linear_map():
    cert = diameter(UnitDisk(), QUARTER_DISK)
    gap = step_contraction_check(
        HALF_PLUS_QUARTER, UnitDisk(), QUARTER_DISK, cert, SampleStream(seed=3, count=1000)
    )
    assert gap <= 1e-10


def test_step_contraction_random_selfmaps():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    for seed in range(5):
        f = random_selfmap(UnitDisk(), seed=seed, contraction_bias=0.5)
        gap = step_contraction_check(
            f, UnitDisk(), inner, cert, SampleStream(seed=10 + seed, count=1000)
        )
        assert gap <= 1e-10


def test_step_contraction_detects_escape():
    inner = ScaledDisk(0.1)
    cert = diameter(UnitDisk(), inner)
    # the escaping point is named by its Python coordinates
    with pytest.raises(HypothesisError, match=r"^image point \(\([^()]+j\),\) escapes"):
        step_contraction_check(
            HALF_PLUS_QUARTER, UnitDisk(), inner, cert, SampleStream(seed=4, count=200)
        )


# -- uniqueness probe -------------------------------------------------------------------


def test_uniqueness_single_start_is_zero():
    problem = _problem(tolerance=1e-9)
    cert = diameter(problem.ambient, problem.inner)
    assert uniqueness_probe(problem, cert, [(0.0,)]) == 0.0


def test_uniqueness_two_starts_agree():
    problem = _problem(tolerance=1e-9)
    cert = diameter(problem.ambient, problem.inner)
    spread = uniqueness_probe(problem, cert, [(0.0,), (-0.5 + 0.3j,)])
    k = cert.k
    assert spread <= 2 * problem.tolerance * k / (1 - k) + 1e-10


def test_uniqueness_probe_reads_each_start():
    problem = _problem(tolerance=1e-9)
    for starts, message in (([(0.0,), (0.1, 0.2)], "starts[1] has dimension 2"),
                            ([0.0, "x"], "starts[1] is not a scalar"),
                            ([None], "starts[0] is not a scalar")):
        with pytest.raises(StructuralError, match=re.escape(message)):
            uniqueness_probe(problem, None, starts)
    with pytest.raises(DomainError, match="^starts\\[0\\] must be finite"):
        uniqueness_probe(problem, None, [math.nan])
    with pytest.raises(DomainError, match="^start \\(\\(1.5\\+0j\\),\\) is not inside"):
        uniqueness_probe(problem, None, [0.0, 1.5])
    assert uniqueness_probe(problem, None, ()) == 0.0
    assert uniqueness_probe(problem, None, (z for z in (0.0, -0.5 + 0.3j))) == uniqueness_probe(
        problem, None, [(0.0,), (-0.5 + 0.3j,)]
    )


def test_uniqueness_random_maps_many_starts():
    inner = ScaledDisk(0.5)
    cert = diameter(UnitDisk(), inner)
    starts = UnitDisk().sample(SampleStream(seed=5, count=6, boundary_margin=0.05))
    tol = 1e-9
    for seed in range(4):
        f = random_selfmap(UnitDisk(), seed=seed, contraction_bias=0.5)
        problem = FixedPointProblem(
            ambient=UnitDisk(), inner=inner, mapping=f, start=(0.0,), tolerance=tol
        )
        spread = uniqueness_probe(problem, cert, [tuple(s) for s in starts])
        assert spread <= 2 * tol * cert.k / (1 - cert.k) + 1e-10


# -- derived certificates, failure traces, scalar steps ------------------------------


def test_missing_certificate_is_derived_from_the_nesting():
    problem = _problem()
    cert = diameter(problem.ambient, problem.inner)
    assert solve(problem) == solve(problem, None) == solve(problem, cert)
    stream = SampleStream(seed=3, count=500)
    assert step_contraction_check(
        HALF_PLUS_QUARTER, UnitDisk(), QUARTER_DISK, None, stream
    ) == step_contraction_check(HALF_PLUS_QUARTER, UnitDisk(), QUARTER_DISK, cert, stream)
    starts = [(0.0,), (-0.5 + 0.3j,)]
    assert uniqueness_probe(problem, None, starts) == uniqueness_probe(problem, cert, starts)


def test_solve_derives_the_certificate_once_per_problem(monkeypatch):
    calls = []
    derive = contraction.diameter

    def counting(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    for module in (contraction, fixed_point):  # wherever ``solve`` looks it up
        monkeypatch.setattr(module, "diameter", counting, raising=False)
    problem = _problem()
    own = derive(problem.ambient, problem.inner)
    first = solve(problem)
    assert solve(problem) == solve(problem, own) == first
    assert len(calls) == 1
    small = ContractionCertificate(M=own.M / 2, k=math.tanh(own.M / 2), method="closed_form",
                                   sample_count=0, seed=0)
    sampled = derive(problem.ambient, problem.inner, SampleStream(seed=1, count=100))
    for bad in (small, sampled, small, sampled):  # refused on every call, not only the first
        with pytest.raises(HypothesisError):
            solve(problem, bad)
    moved = dataclasses.replace(problem, start=(0.3j,))
    assert solve(moved).k_used == first.k_used
    assert len(calls) == 2  # a replaced problem derives its own
    starts = [(0.0,), (0.3j,), (-0.5 + 0.3j,), (0.2,)]
    probed = _problem()
    assert uniqueness_probe(probed, None, starts) == uniqueness_probe(probed, own, starts)
    assert len(calls) == 3  # once per problem, not once per start


def test_escape_from_inner_domain_carries_the_trace_so_far():
    # z -> z/2 + 0.3 from 0 visits 0.3, 0.45, 0.525: the third iterate leaves D(0, 1/2)
    shift = Polynomial(((0.3, 0.5),))
    escaping = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), shift, 0.0, 1e-9)
    with pytest.raises(HypothesisError, match="at step 2") as info:
        solve(escaping)
    iterates = [(0.0,)]
    for _ in range(3):
        iterates.append(shift.evaluate(iterates[-1]))
    assert info.value.trace == tuple(map(UnitDisk().caratheodory, iterates[:2], iterates[1:3]))
    # the steps are ambient distances, so a nesting that holds the image records the same ones
    holding = FixedPointProblem(UnitDisk(), AffineDiskImage(0.3, 0.55), shift, 0.0, 1e-9)
    assert solve(holding).trace[:2] == info.value.trace


def test_failed_residual_check_carries_the_trace():
    # z -> 10 z - 2.7 expands away from 0.3: the first step is small enough to stop
    # (k = 0.8: 4 * 9.9e-6 <= 5e-5), the residual at the stopping point is not (9.9e-5)
    expanding = Polynomial(((-2.7, 10.0),))
    start = (0.3 + 1e-6,)
    problem = FixedPointProblem(UnitDisk(), ScaledDisk(0.5), expanding, start, 5e-5)
    with pytest.raises(HypothesisError) as info:
        solve(problem)
    step = UnitDisk().caratheodory(start, expanding.evaluate(start))
    assert info.value.trace == (step,)


def test_solve_steps_equal_bulk_distances_of_the_iterates():
    for seed in range(40):
        n = seed % 5
        bias = 0.5 + 0.01 * seed
        if n == 0:
            ambient, inner = UnitDisk(), ScaledDisk(bias)
        else:
            ambient, inner = Polydisk((1.0,) * n), Polydisk((bias,) * n)
        f = random_selfmap(ambient, seed=seed, contraction_bias=bias)
        start = tuple(ambient.sample(SampleStream(seed=seed, count=1))[0].tolist())
        result = solve(FixedPointProblem(ambient, inner, f, start, 1e-11))
        iterates = [start]
        for _ in result.trace:
            iterates.append(f.evaluate(iterates[-1]))
        assert iterates[-1] == result.point
        bulk = ambient.caratheodory_many(iterates[:-1], iterates[1:])
        assert result.trace == tuple(bulk.tolist())


def test_steps_whose_squares_underflow_keep_their_digits():
    # iterates 2**-(n + 1): step n is 2**-(n + 2) exactly once 1 - 2**-(n + 2) rounds to 1,
    # also where 2**-(2n + 4) is subnormal (n > 509) or 0 in double precision (n > 535)
    result = solve(FixedPointProblem(UnitDisk(), ScaledDisk(0.6), ScalarScale(0.5), 0.5, 1e-200))
    assert result.iterations > 600
    assert result.point == (2.0 ** -(result.iterations + 1),)
    assert result.trace[60:] == tuple(2.0 ** -(n + 2) for n in range(60, result.iterations))
