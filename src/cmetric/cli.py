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
real); a point is one complex number in dimension 1, else a list of them.  A
domain or map spec is ``{"kind": ..., <field>: ...}`` holding the fields of
the class that ``DOMAIN_KINDS`` or ``MAP_KINDS`` names for its kind; only
pairs, points and nested specs are decoded here, and the constructor reads
every other field value (``dim`` defaults to 1):

    unit_disk      (no fields)             identity    dim
    scaled_disk    radius                  mobius      a
    affine_disk    center, radius          polynomial  coeffs
    polydisk       radii                   affine      matrix, offset
    affine_image   base, matrix, offset    diagonal    factors
                                           compose     outer, inner
                                           scale       factor, dim
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

from . import contraction, fixed_point
from .domains import (
    DEFAULT_BOUNDARY_MARGIN,
    AffineDiskImage,
    AffineImage,
    Domain,
    Polydisk,
    SampleStream,
    ScaledDisk,
    UnitDisk,
    _real,
    as_point,
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


# -- spec decoding ------------------------------------------------------------

DOMAIN_KINDS = {
    "unit_disk": UnitDisk,
    "scaled_disk": ScaledDisk,
    "affine_disk": AffineDiskImage,
    "polydisk": Polydisk,
    "affine_image": AffineImage,
}

MAP_KINDS = {
    "identity": Identity,
    "mobius": Mobius,
    "polynomial": Polynomial,
    "affine": Affine,
    "diagonal": DiagonalProduct,
    "compose": Compose,
    "scale": ScalarScale,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _complex(value, path: str):
    """An ``[re, im]`` pair as a complex number; any other value is left to the constructor."""
    if _is_pair(value):
        return complex(*(_real(v, path) for v in value))
    return value


def _many(decode):
    def decode_list(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ParseError(f"{path}: expected a list, got {value!r}")
        return tuple(decode(v, f"{path}[{i}]") for i, v in enumerate(value))

    return decode_list


def _point(value, dim: int, path: str) -> tuple[complex, ...]:
    """In dimension 1 a number or ``[re, im]`` pair is the coordinate; else a list of them."""
    if dim == 1 and (_is_number(value) or _is_pair(value)):
        value = [value]
    try:
        return as_point(_many(_complex)(value, path), dim, what=path)
    except DomainError as exc:  # a non-finite coordinate is malformed input here
        raise ParseError(str(exc)) from None


def _require(spec: dict, field: str, context: str):
    if field not in spec:
        raise ParseError(f"{context}: missing required field {field!r}")
    return spec[field]


def _decode(spec, context: str, kinds: dict):
    """Build ``kinds[spec["kind"]]`` from the spec's fields, named as in the dataclass."""
    if not isinstance(spec, dict):
        raise ParseError(f"{context}: expected an object, got {spec!r}")
    kind = _require(spec, "kind", context)
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{context}: unknown kind {kind!r}; expected one of {', '.join(kinds)}")
    args = {}
    for field in dataclasses.fields(cls):
        if field.name in spec or field.default is dataclasses.MISSING:
            value = _require(spec, field.name, context)
            decode = _DECODERS.get(field.type)
            args[field.name] = decode(value, f"{context}.{field.name}") if decode else value
    try:
        return cls(**args)
    except (StructuralError, DomainError) as exc:
        raise ParseError(f"{context}: invalid {kind!r} spec: {exc}") from exc


_domain = functools.partial(_decode, kinds=DOMAIN_KINDS)
_map = functools.partial(_decode, kinds=MAP_KINDS)


# the JSON forms of the field annotations of the kinds above; ``field.type`` is the
# annotation string because domains.py and holomaps.py use ``from __future__ import annotations``
_DECODERS = {
    "complex": _complex,
    "tuple[complex, ...]": _many(_complex),
    "tuple[tuple[complex, ...], ...]": _many(_many(_complex)),
    "Domain": _domain,
    "HoloMap": _map,
    "tuple[HoloMap, ...]": _many(_map),
}


def _load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read input {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, too many digits
        raise ParseError(f"input {path!r} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParseError(f"input {path!r}: top-level value must be an object")
    return spec


def _nesting(spec: dict) -> tuple[Domain, Domain]:
    return tuple(_domain(_require(spec, name, "input"), name) for name in ("ambient", "inner"))


# -- commands: each returns its report without the command, seed and sample count ---


def _cmd_distance(spec: dict, seed: int, samples: int) -> dict:
    domain = _domain(_require(spec, "domain", "input"), "domain")
    x = _point(_require(spec, "x", "input"), domain.dim, "x")
    y = _point(_require(spec, "y", "input"), domain.dim, "y")
    return {"value": domain.caratheodory(x, y)}


def _cmd_diameter(spec: dict, seed: int, samples: int) -> dict:
    ambient, inner = _nesting(spec)
    method = spec.get("method", "closed_form")
    if method == "closed_form":
        cert = contraction.diameter(ambient, inner)
    elif method == "sampled":
        margin = spec.get("boundary_margin", DEFAULT_BOUNDARY_MARGIN)
        cert = contraction.diameter(
            ambient, inner, SampleStream(seed=seed, count=samples, boundary_margin=margin)
        )
    else:
        raise ParseError(f"input: unknown diameter method {method!r}")
    return {"certificate": cert.to_json_dict()}


def _cmd_verify_nesting(spec: dict, seed: int, samples: int) -> dict:
    ambient, inner = _nesting(spec)
    cert = contraction.diameter(ambient, inner)
    report = contraction.verify_nesting(
        ambient, inner, cert, SampleStream(seed=seed, count=samples)
    )
    return {"certificate": cert.to_json_dict(), "report": report.to_json_dict()}


def _cmd_solve(spec: dict, seed: int, samples: int) -> dict:
    ambient, inner = _nesting(spec)
    mapping = _map(_require(spec, "map", "input"), "map")
    start = _point(_require(spec, "start", "input"), ambient.dim, "start")
    tolerance, max_iter = _require(spec, "tolerance", "input"), spec.get("max_iter")
    problem = fixed_point.FixedPointProblem(ambient, inner, mapping, start, tolerance, max_iter)
    cert = contraction.diameter(ambient, inner)
    report = dataclasses.asdict(fixed_point.solve(problem, cert))
    point = report.pop("point")
    report.update(certificate=cert.to_json_dict(), fixed_point=[[c.real, c.imag] for c in point])
    return report


def _cmd_sweep(spec: dict, seed: int, samples: int) -> dict:
    radii = _require(spec, "radii", "input")
    if not isinstance(radii, list) or not radii:
        raise ParseError("input: 'radii' must be a non-empty list of numbers")
    rows = []
    for i, r in enumerate(radii):
        try:
            inner = ScaledDisk(radius=r)
        except StructuralError as exc:
            raise ParseError(f"input: radii[{i}]: {exc}") from exc
        cert = contraction.diameter(UnitDisk(), inner)
        report = contraction.verify_nesting(
            UnitDisk(), inner, cert, SampleStream(seed=seed, count=samples)
        )
        rows.append(
            {
                "config": f"{i:03d}",
                "r": inner.radius,
                "M": cert.M,
                "k": cert.k,
                "max_violation": report.max_violation,
                "pairs": report.pairs_checked,
            }
        )
    return {"rows": rows}


def emit_csv(report: dict) -> str:
    """Render a sweep report as CSV: LF line endings, shortest round-trip reals."""
    lines = [CSV_HEADER]
    for row in report["rows"]:
        reals = [repr(float(row[column])) for column in ("r", "M", "k", "max_violation")]
        lines.append(",".join([row["config"], *reals, str(row["pairs"])]))
    return "\n".join(lines) + "\n"


# -- orchestration --------------------------------------------------------------


_COMMANDS = {
    "distance": (_cmd_distance, "exact Caratheodory distance between two points"),
    "diameter": (_cmd_diameter, "contraction certificate for a nested pair of domains"),
    "verify-nesting": (_cmd_verify_nesting, "check c_ambient <= k * c_inner over sampled pairs"),
    "solve": (_cmd_solve, "certified fixed-point iteration"),
    "sweep": (_cmd_sweep, "nesting verification across a list of disk radii"),
}

# (exception types, label, exit code); the first row that matches wins
_EXITS = (
    (ParseError, "parse error", EXIT_PARSE),
    (StructuralError, "invalid structure", EXIT_PARSE),
    (NonConvergenceError, "non-convergence", EXIT_NONCONVERGENCE),
    ((NumericError, OverflowError), "numeric error", EXIT_NUMERIC),
    ((HypothesisError, DomainError), "hypothesis error", EXIT_HYPOTHESIS),
    (CmetricError, "error", EXIT_HYPOTHESIS),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmetric",
        description="Invariant-distance computations, nesting certificates and "
        "certified fixed-point solves on disk-like domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        report = {"command": args.command, "seed": args.seed, "sample_count": args.samples}
        report.update(_COMMANDS[args.command][0](spec, args.seed, args.samples))
        if args.format == "csv":
            text = emit_csv(report)
        else:
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    except (CmetricError, OverflowError) as exc:
        label, code = next(row[1:] for row in _EXITS if isinstance(exc, row[0]))
        print(f"cmetric: {label}: {exc}", file=sys.stderr)
        return code
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
