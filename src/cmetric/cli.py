"""Command-line front end: parse JSON specs, run computations, emit reports.

    cmetric <command> --input <path> [--seed N] [--samples N]
                      [--format json|csv] [--out <path>]

Commands: ``distance``, ``diameter``, ``verify-nesting``, ``solve``,
``sweep``.  Every report echoes the seed and sample count, so any published
number can be re-derived.  Output is all-or-nothing: on any error the output
path is left absent or untouched.

Exit codes: 0 success, 2 parse/validation error, 3 hypothesis error,
4 numeric error, 5 non-convergence.

JSON conventions: a complex number is ``[re, im]`` (a bare number means a
real); a point is either one complex number or a list of them.  Domain specs:

    {"kind": "unit_disk"}
    {"kind": "scaled_disk", "radius": 0.5}
    {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55}
    {"kind": "polydisk", "radii": [1.0, 1.0]}
    {"kind": "affine_image", "base": {...}, "matrix": [[...]], "offset": [...]}

Map specs mirror the syntax tree: kinds ``identity``, ``mobius``,
``polynomial``, ``affine``, ``diagonal``, ``compose``, ``scale``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import contraction, fixed_point
from .domains import (
    AffineDiskImage,
    AffineImage,
    Domain,
    Polydisk,
    SampleStream,
    ScaledDisk,
    UnitDisk,
)
from .errors import (
    CmetricError,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    NumericError,
    ParseError,
    StructuralError,
)
from .holomaps import (
    Affine,
    Compose,
    DiagonalProduct,
    HoloMap,
    Identity,
    Mobius,
    Polynomial,
    ScalarScale,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4
EXIT_NONCONVERGENCE = 5

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 1000

CSV_HEADER = "config,r,M,k,max_violation,pairs"


# -- spec parsing -------------------------------------------------------------


def _parse_complex(value, field: str) -> complex:
    if isinstance(value, bool):
        raise ParseError(f"{field}: expected a complex number, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ParseError(f"{field}: expected a number or [re, im] pair, got {value!r}")


def _parse_point(value, field: str) -> tuple[complex, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (complex(value),)
    if isinstance(value, list):
        if len(value) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            return (complex(value[0], value[1]),)
        return tuple(_parse_complex(v, f"{field}[{i}]") for i, v in enumerate(value))
    raise ParseError(f"{field}: expected a point (complex number or list of them)")


def _require(spec: dict, field: str, context: str):
    if field not in spec:
        raise ParseError(f"{context}: missing required field {field!r}")
    return spec[field]


def parse_domain(spec, context: str = "domain") -> Domain:
    if not isinstance(spec, dict):
        raise ParseError(f"{context}: expected an object, got {spec!r}")
    kind = _require(spec, "kind", context)
    try:
        if kind == "unit_disk":
            return UnitDisk()
        if kind == "scaled_disk":
            return ScaledDisk(radius=float(_require(spec, "radius", context)))
        if kind == "affine_disk":
            return AffineDiskImage(
                center=_parse_complex(_require(spec, "center", context), f"{context}.center"),
                radius=float(_require(spec, "radius", context)),
            )
        if kind == "polydisk":
            return Polydisk(radii=tuple(float(r) for r in _require(spec, "radii", context)))
        if kind == "affine_image":
            base = parse_domain(_require(spec, "base", context), f"{context}.base")
            matrix = tuple(
                tuple(_parse_complex(v, f"{context}.matrix") for v in row)
                for row in _require(spec, "matrix", context)
            )
            offset = tuple(
                _parse_complex(v, f"{context}.offset") for v in _require(spec, "offset", context)
            )
            return AffineImage(base=base, matrix=matrix, offset=offset)
    except (StructuralError, DomainError, TypeError, ValueError) as exc:
        raise ParseError(f"{context}: invalid {kind!r} spec: {exc}") from exc
    raise ParseError(f"{context}: unknown domain kind {kind!r}")


def parse_map(spec, context: str = "map") -> HoloMap:
    if not isinstance(spec, dict):
        raise ParseError(f"{context}: expected an object, got {spec!r}")
    kind = _require(spec, "kind", context)
    try:
        if kind == "identity":
            return Identity(dim=int(spec.get("dim", 1)))
        if kind == "mobius":
            return Mobius(a=_parse_complex(_require(spec, "a", context), f"{context}.a"))
        if kind == "polynomial":
            coeffs = tuple(
                tuple(_parse_complex(c, f"{context}.coeffs") for c in row)
                for row in _require(spec, "coeffs", context)
            )
            return Polynomial(coeffs=coeffs)
        if kind == "affine":
            matrix = tuple(
                tuple(_parse_complex(v, f"{context}.matrix") for v in row)
                for row in _require(spec, "matrix", context)
            )
            offset = tuple(
                _parse_complex(v, f"{context}.offset") for v in _require(spec, "offset", context)
            )
            return Affine(matrix=matrix, offset=offset)
        if kind == "diagonal":
            factors = tuple(
                parse_map(m, f"{context}.factors[{i}]")
                for i, m in enumerate(_require(spec, "factors", context))
            )
            return DiagonalProduct(factors=factors)
        if kind == "compose":
            return Compose(
                outer=parse_map(_require(spec, "outer", context), f"{context}.outer"),
                inner=parse_map(_require(spec, "inner", context), f"{context}.inner"),
            )
        if kind == "scale":
            return ScalarScale(
                factor=float(_require(spec, "factor", context)),
                dim=int(spec.get("dim", 1)),
            )
    except ParseError:
        raise
    except (StructuralError, DomainError, TypeError, ValueError) as exc:
        raise ParseError(f"{context}: invalid {kind!r} spec: {exc}") from exc
    raise ParseError(f"{context}: unknown map kind {kind!r}")


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read input {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"input {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParseError(f"input {path!r}: top-level value must be an object")
    return spec


def _point_jsonable(p) -> list:
    return [[c.real, c.imag] for c in p]


# -- commands -----------------------------------------------------------------


def _cmd_distance(spec: dict, seed: int, samples: int) -> dict:
    domain = parse_domain(_require(spec, "domain", "input"))
    x = _parse_point(_require(spec, "x", "input"), "x")
    y = _parse_point(_require(spec, "y", "input"), "y")
    value = domain.caratheodory(x, y)
    return {"command": "distance", "seed": seed, "sample_count": samples, "value": value}


def _cmd_diameter(spec: dict, seed: int, samples: int) -> dict:
    ambient = parse_domain(_require(spec, "ambient", "input"), "ambient")
    inner = parse_domain(_require(spec, "inner", "input"), "inner")
    method = spec.get("method", "closed_form")
    if method == "closed_form":
        cert = contraction.diameter(ambient, inner)
    elif method == "sampled":
        margin = float(spec.get("boundary_margin", 1e-3))
        cert = contraction.diameter(
            ambient, inner, SampleStream(seed=seed, count=samples, boundary_margin=margin)
        )
    else:
        raise ParseError(f"input: unknown diameter method {method!r}")
    return {
        "command": "diameter",
        "seed": seed,
        "sample_count": samples,
        "certificate": cert.to_json_dict(),
    }


def _cmd_verify_nesting(spec: dict, seed: int, samples: int) -> dict:
    ambient = parse_domain(_require(spec, "ambient", "input"), "ambient")
    inner = parse_domain(_require(spec, "inner", "input"), "inner")
    cert = contraction.diameter(ambient, inner)
    report = contraction.verify_nesting(
        ambient, inner, cert, SampleStream(seed=seed, count=samples)
    )
    return {
        "command": "verify-nesting",
        "seed": seed,
        "sample_count": samples,
        "certificate": cert.to_json_dict(),
        "report": report.to_json_dict(),
    }


def _cmd_solve(spec: dict, seed: int, samples: int) -> dict:
    ambient = parse_domain(_require(spec, "ambient", "input"), "ambient")
    inner = parse_domain(_require(spec, "inner", "input"), "inner")
    mapping = parse_map(_require(spec, "map", "input"))
    start = _parse_point(_require(spec, "start", "input"), "start")
    try:
        tolerance = float(_require(spec, "tolerance", "input"))
        max_iter = spec.get("max_iter")
        problem = fixed_point.FixedPointProblem(
            ambient=ambient,
            inner=inner,
            mapping=mapping,
            start=start,
            tolerance=tolerance,
            max_iter=None if max_iter is None else int(max_iter),
        )
    except (StructuralError, TypeError, ValueError) as exc:
        raise ParseError(f"input: invalid solve problem: {exc}") from exc
    cert = contraction.diameter(ambient, inner)
    result = fixed_point.solve(problem, cert)
    return {
        "command": "solve",
        "seed": seed,
        "sample_count": samples,
        "certificate": cert.to_json_dict(),
        "fixed_point": _point_jsonable(result.point),
        "iterations": result.iterations,
        "last_step": result.last_step,
        "certified_bound": result.certified_bound,
        "apriori_bound": result.apriori_bound,
        "k_used": result.k_used,
        "trace": list(result.trace),
    }


def _cmd_sweep(spec: dict, seed: int, samples: int) -> dict:
    radii = _require(spec, "radii", "input")
    if not isinstance(radii, list) or not radii:
        raise ParseError("input: 'radii' must be a non-empty list of numbers")
    rows = []
    for i, r in enumerate(radii):
        if not isinstance(r, (int, float)) or isinstance(r, bool):
            raise ParseError(f"input: radii[{i}] is not a number: {r!r}")
        try:
            inner = ScaledDisk(radius=float(r))
        except StructuralError as exc:
            raise ParseError(f"input: radii[{i}]: {exc}") from exc
        cert = contraction.diameter(UnitDisk(), inner)
        report = contraction.verify_nesting(
            UnitDisk(), inner, cert, SampleStream(seed=seed, count=samples)
        )
        rows.append(
            {
                "config": f"{i:03d}",
                "r": float(r),
                "M": cert.M,
                "k": cert.k,
                "max_violation": report.max_violation,
                "pairs": report.pairs_checked,
            }
        )
    rows.sort(key=lambda row: row["config"])
    return {"command": "sweep", "seed": seed, "sample_count": samples, "rows": rows}


def emit_csv(report: dict) -> str:
    """Render a sweep report as CSV: LF line endings, shortest round-trip reals."""
    lines = [CSV_HEADER]
    for row in report["rows"]:
        lines.append(
            ",".join(
                [
                    row["config"],
                    repr(float(row["r"])),
                    repr(float(row["M"])),
                    repr(float(row["k"])),
                    repr(float(row["max_violation"])),
                    str(row["pairs"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# -- orchestration --------------------------------------------------------------


_COMMANDS = {
    "distance": _cmd_distance,
    "diameter": _cmd_diameter,
    "verify-nesting": _cmd_verify_nesting,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmetric",
        description="Invariant-distance computations, nesting certificates and "
        "certified fixed-point solves on disk-like domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("distance", "exact Caratheodory distance between two points"),
        ("diameter", "contraction certificate for a nested pair of domains"),
        ("verify-nesting", "check c_ambient <= k * c_inner over sampled pairs"),
        ("solve", "certified fixed-point iteration"),
        ("sweep", "nesting verification across a list of disk radii"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="path to the JSON spec")
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cmetric-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command != "sweep":
            raise ParseError("csv output is only available for the sweep command")
        spec = _load_input(args.input)
        report = _COMMANDS[args.command](spec, args.seed, args.samples)
        if args.format == "csv":
            text = emit_csv(report)
        else:
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    except ParseError as exc:
        print(f"cmetric: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StructuralError as exc:
        print(f"cmetric: invalid structure: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergenceError as exc:
        print(f"cmetric: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (NumericError, OverflowError) as exc:
        print(f"cmetric: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (HypothesisError, DomainError) as exc:
        print(f"cmetric: hypothesis error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CmetricError as exc:
        print(f"cmetric: error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            _write_atomic(args.out, text.encode("utf-8"))
        except OSError as exc:
            print(f"cmetric: cannot write output: {exc}", file=sys.stderr)
            return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
