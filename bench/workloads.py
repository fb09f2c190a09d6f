"""The four benchmark workloads: inputs drawn from a seed, one operation, its check.

Every workload exposes the same small interface to ``child.py``:

* construction draws all inputs from the workload seed and builds the
  closed-form certificates (this is part of set-up);
* ``rotation`` is the number of distinct operations; operation ``i`` is the
  ``i % rotation``-th of them, so a run cycles through a fixed order;
* ``warmup_ops`` is how many of them the warm-up runs (all, unless the
  rotation is long);
* ``call(i, warm)`` is the timed call into ``cmetric`` and returns its raw
  result;
* ``check(i, raw, warm)`` is untimed: it turns the result into the bytes that
  enter the output digest, decides whether the result is correct, and counts
  the work the call did in the workload's ``work_unit``.

Warm-up calls (``warm=True``) run before timing.  Checks use the thresholds
of the repository's own tests; where a check compares against an earlier
result of the same operation, the first result in the run is the reference.

Calls go through module attributes (``contraction.verify_nesting``, not a
name imported into this module), so the wrappers that ``tracer.py`` installs
on those attributes see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from cmetric import cli, contraction, fixed_point, holomaps
from cmetric.domains import (
    AffineDiskImage,
    AffineImage,
    Polydisk,
    SampleStream,
    ScaledDisk,
    UnitDisk,
)

# Warm-up operations draw their seeds from keys no timed operation uses, so
# every timed call of a sampled workload sees fresh points.
WARMUP_KEY = 1 << 32

# Thresholds of the repository's tests (tests/test_acceptance.py,
# tests/test_fixed_point.py).  The image-bound floor 1 - bias follows from
# random_selfmap, whose image lies in bias * domain by construction.
VIOLATION_TOL = 1e-10
SAMPLED_DIAMETER_TOL = 1e-12
STEP_GAP_TOL = 1e-10
IMAGE_MARGIN_TOL = 1e-9


def derive_seed(seed: int, *keys: int) -> int:
    """A 64-bit seed determined by the workload seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Outcome:
    output: bytes
    ok: bool
    work: int  # in the workload's work unit
    note: str = ""


def _op_key(i: int, warm: bool) -> int:
    return WARMUP_KEY + i if warm else i


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def one_chart_diameter(ambient: Polydisk, inner: AffineImage) -> float:
    """Closed-form diameter of an affine image of a polydisk inside a polydisk.

    With T = A_amb^-1 A_in and c = A_amb^-1 (b_in - b_amb), the i-th
    coordinate projection of the inner domain is the disk of center c_i and
    radius R_i = sum_j |T_ij|, and M = max_i atanh(2 R_i / (1 - |c_i|^2 + R_i^2)).
    ``cmetric`` has no closed form for this pair yet, so the benchmark keeps
    its own reference for the sampled-diameter check.
    """
    a_amb = np.diag(np.asarray(ambient.radii, dtype=complex))
    a_in = np.asarray(inner.matrix, dtype=complex) @ np.diag(
        np.asarray(inner.base.radii, dtype=complex)
    )
    t = np.linalg.solve(a_amb, a_in)
    c = np.linalg.solve(a_amb, np.asarray(inner.offset, dtype=complex))
    r = np.abs(t).sum(axis=1)
    return float(np.arctanh(2.0 * r / (1.0 - np.abs(c) ** 2 + r**2)).max())


class NestingBulk:
    """``verify_nesting`` with a closed-form certificate on three nestings.

    The vectorised path: sampling, chart pull, the Poincare kernel and the
    reduction do almost all the work, and each call allocates tens of MB.
    """

    name = "nesting-bulk"
    work_unit = "pairs"
    peak_rss_of_children = False

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.nestings = [
            (UnitDisk(), ScaledDisk(0.5), 1_000_000),
            (UnitDisk(), AffineDiskImage(0.25 + 0.1j, 0.55), 1_000_000),
            (Polydisk((1.0,) * 8), Polydisk((0.6,) * 8), 125_000),
        ]
        self.certs = [contraction.diameter(a, b) for a, b, _ in self.nestings]
        self.rotation = self.warmup_ops = len(self.nestings)

    def call(self, i: int, warm: bool):
        ambient, inner, count = self.nestings[i % self.rotation]
        stream = SampleStream(seed=derive_seed(self.seed, _op_key(i, warm)), count=count)
        return contraction.verify_nesting(ambient, inner, self.certs[i % self.rotation], stream)

    def check(self, i: int, report, warm: bool) -> Outcome:
        ok = report.max_violation <= VIOLATION_TOL
        note = "" if ok else f"max_violation {report.max_violation!r} > {VIOLATION_TOL}"
        return Outcome(_json_bytes(report.to_json_dict()), ok, report.pairs_checked, note)


class DiameterSampled:
    """Sampled diameters and the sampled contraction checks of self-maps.

    Same ``domains`` and ``metric_core`` layers as ``nesting-bulk``, used
    differently: boundary-biased pairs, membership with a margin, one distance
    per pair, a pull through an ``AffineImage`` matrix, and
    ``holomaps.evaluate_many``.
    """

    name = "diameter-sampled"
    work_unit = "pairs_or_points"
    peak_rss_of_children = False
    count = 500_000
    bias = 0.8
    # The map operation checks several seeded maps at count / maps points
    # each, so the cost of one map's syntax tree does not decide a run.
    maps = 8

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.disk_pair = (UnitDisk(), ScaledDisk(0.9))
        self.disk_ref = contraction.diameter(*self.disk_pair).M
        # The affine-image pair is always passed a SampleStream, so it stays on
        # the sampled path.  Today diameter(ambient, inner) without a stream
        # raises CapabilityError for it; once a closed form exists for affine
        # images, this workload must still do the same sampled work.
        self.affine_pair = (
            Polydisk((1.0, 1.0)),
            AffineImage(Polydisk((0.5, 0.5)), ((1.0, 0.3), (0.2j, 1.0)), (0.1, 0.0)),
        )
        self.affine_ref = one_chart_diameter(*self.affine_pair)
        self.disk = UnitDisk()
        self.image = ScaledDisk(self.bias)
        self.map_cert = contraction.diameter(self.disk, self.image)
        self.selfmaps = [
            holomaps.random_selfmap(self.disk, derive_seed(seed, 1 << 40, j), self.bias)
            for j in range(self.maps)
        ]
        self.rotation = self.warmup_ops = 3

    def _stream(self, i: int, warm: bool, salt: int, count: int) -> SampleStream:
        return SampleStream(seed=derive_seed(self.seed, _op_key(i, warm), salt), count=count)

    def call(self, i: int, warm: bool):
        kind = i % self.rotation
        if kind == 0:
            return contraction.diameter(*self.disk_pair, self._stream(i, warm, 0, self.count))
        if kind == 1:
            return contraction.diameter(*self.affine_pair, self._stream(i, warm, 0, self.count))
        per_map = self.count // self.maps
        return [
            (
                fixed_point.step_contraction_check(
                    f, self.disk, self.image, self.map_cert, self._stream(i, warm, 2 * j, per_map)
                ),
                holomaps.image_bound(f, self.disk, self.disk, self._stream(i, warm, 2 * j + 1, per_map)),
            )
            for j, f in enumerate(self.selfmaps)
        ]

    def check(self, i: int, raw, warm: bool) -> Outcome:
        kind = i % self.rotation
        if kind < 2:
            ref = self.disk_ref if kind == 0 else self.affine_ref
            ok = raw.M <= ref + SAMPLED_DIAMETER_TOL
            note = "" if ok else f"sampled M {raw.M!r} exceeds the closed form {ref!r}"
            return Outcome(_json_bytes(raw.to_json_dict()), ok, raw.sample_count, note)
        floor = 1.0 - self.bias - IMAGE_MARGIN_TOL
        bad = [j for j, (gap, bound) in enumerate(raw)
               if not (gap <= STEP_GAP_TOL and bound.margin_to_target >= floor)]
        note = f"maps {bad}: step gap or image margin out of range" if bad else ""
        output = _json_bytes(
            [{"gap": repr(gap), "sup": repr(bound.sup_modulus_estimate), "seed": bound.seed}
             for gap, bound in raw]
        )
        work = sum(2 * bound.sample_count for _, bound in raw)
        return Outcome(output, not bad, work, note)


class SolveStream:
    """Certified ``solve`` calls over a fixed, seeded list of problems.

    The scalar per-iterate path: each iteration runs one ``evaluate``, two
    scalar ``contains`` calls and one scalar ``caratheodory`` call; the
    vectorised kernel sees one pair at a time.
    """

    name = "solve-stream"
    work_unit = "iterations"
    peak_rss_of_children = False
    # Iteration counts are heavy-tailed (a map close to a scaled automorphism
    # takes hundreds of steps), so the mean cost of a list of 200 problems
    # moved solves/s by about 12% from seed to seed.  A run cycles through
    # 1000 problems, five to seven passes in 20 s, and warms up on the first 50.
    problems_per_run = 1000
    warmup_ops = 50
    tolerance = 1e-11

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(derive_seed(seed, 1 << 41))
        self.problems = []
        self.certs = []
        for j in range(self.problems_per_run):
            bias = float(rng.uniform(0.6, 0.9))
            map_seed = int(rng.integers(2**63))
            if j % 2 == 0:
                ambient, inner = UnitDisk(), ScaledDisk(bias)
            else:
                n = 1 + (j // 2) % 4
                ambient, inner = Polydisk((1.0,) * n), Polydisk((bias,) * n)
            start = tuple(
                complex(r * math.cos(t), r * math.sin(t))
                for r, t in zip(0.5 * rng.random(ambient.dim), 2 * math.pi * rng.random(ambient.dim))
            )
            mapping = holomaps.random_selfmap(ambient, map_seed, bias)
            self.problems.append(
                fixed_point.FixedPointProblem(ambient, inner, mapping, start, self.tolerance)
            )
            self.certs.append(contraction.diameter(ambient, inner))
        self.rotation = len(self.problems)
        self.iterations: dict[int, int] = {}

    def call(self, i: int, warm: bool):
        j = i % self.rotation
        return fixed_point.solve(self.problems[j], self.certs[j])

    def check(self, i: int, result, warm: bool) -> Outcome:
        j = i % self.rotation
        problem = self.problems[j]
        residual = problem.ambient.caratheodory(result.point, problem.mapping.evaluate(result.point))
        first = self.iterations.setdefault(j, result.iterations)
        ok = residual <= problem.tolerance and result.iterations == first
        note = "" if ok else (
            f"problem {j}: residual {residual!r}, {result.iterations} iterations "
            f"(its first solve took {first})"
        )
        output = _json_bytes(
            {
                "point": [[repr(c.real), repr(c.imag)] for c in result.point],
                "iterations": result.iterations,
                "certified_bound": repr(result.certified_bound),
            }
        )
        return Outcome(output, ok, result.iterations, note)


README_SOLVE = {
    "ambient": {"kind": "unit_disk"},
    "inner": {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
    "map": {"kind": "polynomial", "coeffs": [[0.25, 0.5]]},
    "start": 0.0,
    "tolerance": 1e-11,
}


class CliInvocations:
    """One ``python -m cmetric <command>`` process per operation.

    ``cmetric`` is not installed: the package runs from ``src`` through
    ``PYTHONPATH``, which the parent sets in the environment.  Interpreter
    start and imports dominate each call.
    """

    name = "cli-invocations"
    work_unit = "invocations"
    peak_rss_of_children = True
    commands = ("distance", "diameter", "verify-nesting", "solve", "sweep")

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng(derive_seed(seed, 1 << 42))

        def disk_point():
            r, t = 0.9 * math.sqrt(rng.random()), 2 * math.pi * rng.random()
            return [r * math.cos(t), r * math.sin(t)]

        specs = {
            "distance": {"domain": {"kind": "unit_disk"}, "x": disk_point(), "y": disk_point()},
            "diameter": {
                "ambient": {"kind": "unit_disk"},
                "inner": {"kind": "scaled_disk", "radius": float(rng.uniform(0.3, 0.9))},
            },
            "verify-nesting": {
                "ambient": {"kind": "unit_disk"},
                "inner": {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
            },
            "solve": README_SOLVE,
            "sweep": {"radii": [0.1, 0.3, 0.5, 0.7, 0.9]},
        }
        spec_dir = os.path.join(root, "bench", "out", f"cli-specs-seed{seed}")
        os.makedirs(spec_dir, exist_ok=True)
        self.argvs = []
        for command in self.commands:
            path = os.path.join(spec_dir, f"{command}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(specs[command], handle)
            argv = [command, "--input", os.path.relpath(path, root)]
            argv += ["--seed", str(derive_seed(seed, 1 << 43, len(self.argvs)) % 2**31)]
            self.argvs.append(argv)
        self.root = root
        self.rotation = self.warmup_ops = len(self.commands)
        self.stdout: dict[int, bytes] = {}

    def call(self, i: int, warm: bool):
        return subprocess.run(
            [sys.executable, "-m", "cmetric", *self.argvs[i % self.rotation]],
            cwd=self.root,
            capture_output=True,
            timeout=120,
        )

    def check(self, i: int, proc, warm: bool) -> Outcome:
        j = i % self.rotation
        if warm and proc.returncode == 0:
            self.stdout[j] = proc.stdout
        ok = proc.returncode == 0 and proc.stdout == self.stdout.get(j)
        note = "" if ok else (
            f"{self.commands[j]}: exit {proc.returncode}, stdout differs from warm-up: "
            f"{proc.stderr.decode(errors='replace')[-200:]}"
        )
        return Outcome(proc.stdout, ok, 1, note)

    def inproc_calls(self):
        """One ``cli.main(argv)`` call per command, in this process, stdout captured."""

        def run(argv):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cmetric {argv[0]} exited {code}")
            return buffer.getvalue()

        return [lambda argv=argv: run(argv) for argv in self.argvs]


WORKLOADS = {
    cls.name: cls for cls in (NestingBulk, DiameterSampled, SolveStream, CliInvocations)
}
