"""End-to-end tests for the cmetric command-line interface."""

import inspect
import json
import math
import subprocess
import sys

import pytest

from cmetric import (
    Affine,
    AffineDiskImage,
    AffineImage,
    Compose,
    DiagonalProduct,
    FixedPointProblem,
    Identity,
    Mobius,
    Polydisk,
    Polynomial,
    ScalarScale,
    ScaledDisk,
    UnitDisk,
    solve,
)
from cmetric.cli import emit_csv, main

ATANH_HALF = 0.5493061443340549  # atanh(0.5), mpmath oracle


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- distance ---------------------------------------------------------------------


def test_distance_command(tmp_path, capsys):
    spec = {"domain": {"kind": "unit_disk"}, "x": 0, "y": [0.5, 0]}
    code, out = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "distance"
    assert report["value"] == pytest.approx(ATANH_HALF, rel=1e-15)
    assert report["seed"] == 42 and report["sample_count"] == 1000


def test_distance_scaled_disk_and_polydisk(tmp_path, capsys):
    spec = {"domain": {"kind": "scaled_disk", "radius": 0.5}, "x": 0, "y": [0.25, 0]}
    code, out = _run(capsys, ["distance", "--input", _write(tmp_path / "a.json", spec)])
    assert code == 0 and json.loads(out)["value"] == pytest.approx(ATANH_HALF, rel=1e-15)
    spec = {
        "domain": {"kind": "polydisk", "radii": [1.0, 1.0]},
        "x": [[0, 0], [0, 0]],
        "y": [[0.5, 0], [0.25, 0]],
    }
    code, out = _run(capsys, ["distance", "--input", _write(tmp_path / "b.json", spec)])
    assert code == 0 and json.loads(out)["value"] == pytest.approx(ATANH_HALF, rel=1e-15)


def test_report_round_trips_through_json(tmp_path, capsys):
    spec = {"domain": {"kind": "unit_disk"}, "x": 0, "y": [0.5, 0]}
    code, out = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


# -- every kind: the CLI report equals the library result bit for bit ---------------

AFFINE_BASE = {"kind": "polydisk", "radii": [0.5, 0.5]}
AFFINE_MATRIX = [[1, 0.3], [[0, 0.2], 1]]
BIDISK = {"kind": "polydisk", "radii": [1.0, 1.0]}


def _distance_case(domain_spec, domain, x, y):
    spec = {"domain": domain_spec, "x": x, "y": y}
    return "distance", spec, lambda: {"value": domain.caratheodory(_pt(x), _pt(y))}


def _solve_case(ambient_spec, inner_spec, map_spec, start, problem):
    spec = {
        "ambient": ambient_spec,
        "inner": inner_spec,
        "map": map_spec,
        "start": start,
        "tolerance": 1e-10,
    }

    def expected():
        result = solve(problem())
        return {
            "fixed_point": [[c.real, c.imag] for c in result.point],
            "iterations": result.iterations,
            "certified_bound": result.certified_bound,
            "trace": list(result.trace),
        }

    return "solve", spec, expected


def _pt(value):
    """The library point for a JSON point in the forms these cases use."""
    if isinstance(value, (int, float)):
        return (complex(value),)
    if all(isinstance(v, (int, float)) for v in value):
        return (complex(*value),)
    return tuple(complex(*v) for v in value)


def _bidisk_problem(inner_radii, mapping, start):
    return lambda: FixedPointProblem(
        ambient=Polydisk((1.0, 1.0)),
        inner=Polydisk(inner_radii),
        mapping=mapping,
        start=start,
        tolerance=1e-10,
    )


SHRUNK_MOBIUS = {
    "kind": "compose",
    "outer": {"kind": "scale", "factor": 0.5},
    "inner": {"kind": "mobius", "a": [0.3, 0.1]},
}

KIND_CASES = {
    "unit_disk": _distance_case({"kind": "unit_disk"}, UnitDisk(), 0.1, [0.3, 0.2]),
    "scaled_disk": _distance_case(
        {"kind": "scaled_disk", "radius": 0.5}, ScaledDisk(0.5), [0.1, -0.1], 0.3
    ),
    "affine_disk": _distance_case(
        {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
        AffineDiskImage(0.25, 0.55),
        0.1,
        [0.5, 0.1],
    ),
    "polydisk": _distance_case(
        {"kind": "polydisk", "radii": [1.0, 0.5]},
        Polydisk((1.0, 0.5)),
        [[0.1, 0], [0, 0.1]],
        [[0.3, 0.2], [0.2, 0]],
    ),
    "affine_image": _distance_case(
        {"kind": "affine_image", "base": AFFINE_BASE, "matrix": AFFINE_MATRIX,
         "offset": [0.1, 0]},
        AffineImage(Polydisk((0.5, 0.5)), ((1, 0.3), (0.2j, 1)), (0.1, 0)),
        [[0.1, 0], [0, 0]],
        [[0.2, 0.1], [0.1, 0]],
    ),
    "identity": _solve_case(
        BIDISK,
        {"kind": "polydisk", "radii": [0.5, 0.5]},
        {"kind": "identity", "dim": 2},
        [[0.1, 0], [0.2, 0]],
        _bidisk_problem((0.5, 0.5), Identity(2), (0.1, 0.2)),
    ),
    "mobius": _solve_case(
        {"kind": "unit_disk"},
        {"kind": "scaled_disk", "radius": 0.6},
        SHRUNK_MOBIUS,
        [-0.5, 0.1],
        lambda: FixedPointProblem(
            ambient=UnitDisk(),
            inner=ScaledDisk(0.6),
            mapping=Compose(ScalarScale(0.5), Mobius(0.3 + 0.1j)),
            start=(-0.5 + 0.1j,),
            tolerance=1e-10,
        ),
    ),
    "polynomial": _solve_case(
        {"kind": "unit_disk"},
        {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
        {"kind": "polynomial", "coeffs": [[0.25, 0.5]]},
        0,
        lambda: FixedPointProblem(
            ambient=UnitDisk(),
            inner=AffineDiskImage(0.25, 0.55),
            mapping=Polynomial(((0.25, 0.5),)),
            start=(0,),
            tolerance=1e-10,
        ),
    ),
    "affine": _solve_case(
        BIDISK,
        {"kind": "polydisk", "radii": [0.6, 0.6]},
        {"kind": "affine", "matrix": [[0.3, 0.1], [0, [0, 0.2]]], "offset": [0.1, [0, 0.05]]},
        [[0.2, 0], [0, 0.3]],
        _bidisk_problem(
            (0.6, 0.6), Affine(((0.3, 0.1), (0, 0.2j)), (0.1, 0.05j)), (0.2, 0.3j)
        ),
    ),
    "diagonal": _solve_case(
        BIDISK,
        {"kind": "polydisk", "radii": [0.8, 0.8]},
        {"kind": "diagonal", "factors": [
            {"kind": "polynomial", "coeffs": [[0.25, 0.5]]}, SHRUNK_MOBIUS,
        ]},
        [[0, 0], [0.4, -0.2]],
        _bidisk_problem(
            (0.8, 0.8),
            DiagonalProduct(
                (Polynomial(((0.25, 0.5),)), Compose(ScalarScale(0.5), Mobius(0.3 + 0.1j)))
            ),
            (0, 0.4 - 0.2j),
        ),
    ),
    "compose": _solve_case(
        {"kind": "unit_disk"},
        {"kind": "scaled_disk", "radius": 0.6},
        {"kind": "compose", "outer": {"kind": "polynomial", "coeffs": [[0, 0.5]]},
         "inner": {"kind": "mobius", "a": [-0.2, 0]}},
        [0.3, 0.3],
        lambda: FixedPointProblem(
            ambient=UnitDisk(),
            inner=ScaledDisk(0.6),
            mapping=Compose(Polynomial(((0, 0.5),)), Mobius(-0.2)),
            start=(0.3 + 0.3j,),
            tolerance=1e-10,
        ),
    ),
    "scale": _solve_case(
        BIDISK,
        {"kind": "polydisk", "radii": [0.6, 0.6]},
        {"kind": "scale", "factor": 0.5, "dim": 2},
        [[0.5, 0.1], [-0.3, 0]],
        _bidisk_problem((0.6, 0.6), ScalarScale(0.5, 2), (0.5 + 0.1j, -0.3)),
    ),
}


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_every_kind_reports_the_library_result(kind, tmp_path, capsys):
    command, spec, expected = KIND_CASES[kind]
    code, out = _run(capsys, [command, "--input", _write(tmp_path / "k.json", spec)])
    assert code == 0
    report = json.loads(out)
    for key, value in expected().items():
        assert report[key] == value, key


# -- parse and error paths -----------------------------------------------------------


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main(["distance", "--input", str(bad), "--out", str(out_path)])
    assert code == 2
    assert not out_path.exists()  # all-or-nothing output
    bad.write_bytes('{"domain": {"kind": "unit_disk"}, "x": "\u00e9"}'.encode("latin-1"))
    assert main(["distance", "--input", str(bad), "--out", str(out_path)]) == 2
    assert not out_path.exists()
    for margin in ("abc", None):
        spec = {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "scaled_disk", "radius": 0.5},
                "method": "sampled", "boundary_margin": margin}
        code = main(["diameter", "--input", _write(bad, spec), "--out", str(out_path)])
        assert code == 2
        assert not out_path.exists()


SOLVE_SPEC = {
    "ambient": {"kind": "unit_disk"},
    "inner": {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
    "map": {"kind": "polynomial", "coeffs": [[0.25, 0.5]]},
    "start": 0,
    "tolerance": 1e-9,
}


@pytest.mark.parametrize(
    "command, spec",
    [
        ("distance", {"domain": {"kind": "scaled_disk", "radius": "0.5"}, "x": 0, "y": 0.1}),
        ("distance", {"domain": {"kind": "polydisk", "radii": [True]}, "x": 0, "y": 0.1}),
        ("distance", {"domain": {"kind": "polydisk", "radii": "12"},
                      "x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 0]]}),
        ("solve", {**SOLVE_SPEC, "map": {"kind": "scale", "factor": 0.5, "dim": 1.7}}),
        ("solve", {**SOLVE_SPEC, "map": {"kind": "scale", "factor": "0.5"}}),
        ("solve", {**SOLVE_SPEC, "max_iter": True}),
        ("solve", {**SOLVE_SPEC, "max_iter": 2.5}),
        ("solve", {**SOLVE_SPEC, "tolerance": "1e-9"}),
        ("distance", {"domain": {"kind": "scaled_disk", "radius": 10**400}, "x": 0, "y": 0.1}),
        ("distance", {"domain": {"kind": "unit_disk"}, "x": 10**400, "y": 0.1}),
        ("distance", {"domain": {"kind": "unit_disk"}, "x": math.nan, "y": 0.1}),
        ("distance", {"domain": {"kind": "unit_disk"}, "x": [0.1, math.inf], "y": 0.1}),
        ("distance", {"domain": {"kind": "affine_disk", "center": "x", "radius": 0.5},
                      "x": 0, "y": 0.1}),
        ("solve", {**SOLVE_SPEC, "map": {"kind": "polynomial", "coeffs": [[True]]}}),
        ("solve", {**SOLVE_SPEC, "map": {"kind": "mobius", "a": "0.5"}}),
        ("diameter", {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "scaled_disk",
                      "radius": 0.5}, "method": "sampled", "boundary_margin": "abc"}),
        ("sweep", {"radii": [1e400]}),
        ("sweep", {"radii": [0.5, 10**400]}),
    ],
    ids=["radius-str", "radii-bool", "radii-str", "dim-fraction", "factor-str",
         "max_iter-bool", "max_iter-fraction", "tolerance-str",
         "radius-huge-int", "x-huge-int", "x-nan", "x-inf", "center-str", "coeffs-bool",
         "a-str", "margin-str", "sweep-radii-inf", "sweep-radii-huge-int"],
)
def test_strings_bools_and_fractions_are_parse_errors(command, spec, tmp_path, capsys):
    code, out = _run(capsys, [command, "--input", _write(tmp_path / "s.json", spec)])
    assert code == 2 and out == ""


def test_points_are_read_in_the_domain_dimension(tmp_path, capsys):
    domain = {"kind": "polydisk", "radii": [1.0, 0.5]}
    values = []
    for x in ([0.1, 0.2], [[0.1, 0], [0.2, 0]], [0.1, [0.2, 0]]):
        spec = {"domain": domain, "x": x, "y": [[0, 0.1], [0.3, 0]]}
        code, out = _run(capsys, ["distance", "--input", _write(tmp_path / "p.json", spec)])
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values == [Polydisk((1.0, 0.5)).caratheodory((0.1, 0.2), (0.1j, 0.3))] * 3
    spec = {"domain": domain, "x": 0.1, "y": [[0, 0.1], [0.3, 0]]}
    assert _run(capsys, ["distance", "--input", _write(tmp_path / "p.json", spec)])[0] == 2


def test_kind_tables_cover_every_exported_kind():
    import cmetric
    from cmetric.cli import DOMAIN_KINDS, MAP_KINDS

    exported = [getattr(cmetric, name) for name in cmetric.__all__]
    for base, kinds in ((cmetric.Domain, DOMAIN_KINDS), (cmetric.HoloMap, MAP_KINDS)):
        concrete = {c for c in exported if isinstance(c, type) and issubclass(c, base)
                    and not inspect.isabstract(c)}
        assert concrete == set(kinds.values())


def test_missing_field_is_a_parse_error(tmp_path, capsys):
    spec = {"domain": {"kind": "unit_disk"}, "x": 0}
    code, _ = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 2


def test_invalid_domain_spec_is_a_parse_error(tmp_path, capsys):
    spec = {"domain": {"kind": "scaled_disk", "radius": 1.5}, "x": 0, "y": 0.1}
    code, _ = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 2


def test_unknown_kind_is_a_parse_error(tmp_path, capsys):
    spec = {"domain": {"kind": "euclidean_ball", "radius": 1.0}, "x": 0, "y": 0.1}
    code, _ = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 2


def test_membership_failure_is_a_hypothesis_exit(tmp_path, capsys):
    spec = {"domain": {"kind": "unit_disk"}, "x": 0, "y": [1.0, 0]}
    code, _ = _run(capsys, ["distance", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 3


def test_unbounded_nesting_is_a_hypothesis_exit(tmp_path, capsys):
    spec = {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "unit_disk"}}
    code, _ = _run(capsys, ["diameter", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 3


def test_numeric_blowup_is_a_numeric_exit(tmp_path, capsys):
    spec = {
        "ambient": {"kind": "unit_disk"},
        "inner": {"kind": "scaled_disk", "radius": 0.5},
        "map": {"kind": "polynomial", "coeffs": [[1e308, 1e308]]},
        "start": [0.9, 0],
        "tolerance": 1e-9,
    }
    code, _ = _run(capsys, ["solve", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 4


def test_nonconvergence_exit(tmp_path, capsys):
    spec = {
        "ambient": {"kind": "unit_disk"},
        "inner": {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
        "map": {"kind": "polynomial", "coeffs": [[0.25, 0.5]]},
        "start": [0, 0],
        "tolerance": 1e-12,
        "max_iter": 2,
    }
    code, _ = _run(capsys, ["solve", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 5


def test_csv_is_only_for_sweep(tmp_path, capsys):
    spec = {"domain": {"kind": "unit_disk"}, "x": 0, "y": 0.1}
    code, _ = _run(
        capsys,
        ["distance", "--input", _write(tmp_path / "d.json", spec), "--format", "csv"],
    )
    assert code == 2


def test_failed_run_leaves_existing_output_untouched(tmp_path):
    out_path = tmp_path / "report.json"
    out_path.write_text("sentinel", encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2", encoding="utf-8")
    code = main(["distance", "--input", str(bad), "--out", str(out_path)])
    assert code == 2
    assert out_path.read_text(encoding="utf-8") == "sentinel"


@pytest.mark.parametrize("depth", [600, 1200])
def test_deeply_nested_specs_are_parse_errors(depth, tmp_path, capsys):
    # 600 compose levels exhaust the stack while decoding the map, 1200 in the JSON reader
    head = {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "scaled_disk", "radius": 0.6},
            "start": 0.1, "tolerance": 1e-9}
    compose = '{"kind": "compose", "outer": {"kind": "scale", "factor": 1.0}, "inner": '
    mapping = compose * depth + '{"kind": "scale", "factor": 0.5}' + "}" * depth
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(head)[:-1] + ', "map": ' + mapping + "}", encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["solve", "--input", str(spec), "--out", str(out_path)]) == 2
    assert "parse error: input is nested too deeply" in capsys.readouterr().err
    assert not out_path.exists()


# -- diameter / verify-nesting / solve ---------------------------------------------


def test_diameter_closed_form_report(tmp_path, capsys):
    spec = {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "scaled_disk", "radius": 0.5}}
    code, out = _run(capsys, ["diameter", "--input", _write(tmp_path / "d.json", spec)])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["M"] == "1.0986122886681098"
    assert float(cert["k"]) == 0.8
    assert cert["method"] == "closed_form" and cert["sample_count"] == 0


def test_diameter_sampled_report(tmp_path, capsys):
    spec = {
        "ambient": {"kind": "unit_disk"},
        "inner": {"kind": "scaled_disk", "radius": 0.5},
        "method": "sampled",
        "boundary_margin": 1e-5,
    }
    code, out = _run(
        capsys,
        [
            "diameter",
            "--input",
            _write(tmp_path / "d.json", spec),
            "--seed",
            "7",
            "--samples",
            "20000",
        ],
    )
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["method"] == "sampled"
    assert cert["sample_count"] == 20000 and cert["seed"] == 7
    assert float(cert["M"]) <= 1.0986122886681098 + 1e-12


def test_verify_nesting_report(tmp_path, capsys):
    spec = {"ambient": {"kind": "unit_disk"}, "inner": {"kind": "scaled_disk", "radius": 0.5}}
    code, out = _run(
        capsys,
        ["verify-nesting", "--input", _write(tmp_path / "v.json", spec), "--samples", "2000"],
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert float(report["max_violation"]) <= 1e-10
    assert report["pairs_checked"] == 2000


def test_affine_image_nesting_has_a_closed_form(tmp_path, capsys):
    spec = {
        "ambient": {"kind": "polydisk", "radii": [1.0, 1.0]},
        "inner": {
            "kind": "affine_image",
            "base": {"kind": "polydisk", "radii": [0.5, 0.5]},
            "matrix": [[1, 0.3], [[0, 0.2], 1]],
            "offset": [0.1, 0],
        },
    }
    path = _write(tmp_path / "a.json", spec)
    code, out = _run(capsys, ["diameter", "--input", path])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["method"] == "closed_form"
    assert float(cert["M"]) == pytest.approx(1.5913363881021, rel=1e-13)
    code, out = _run(capsys, ["verify-nesting", "--input", path, "--samples", "2000"])
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["method"] == "closed_form"
    assert float(report["report"]["max_violation"]) <= 1e-10


def test_solve_report(tmp_path, capsys):
    spec = {
        "ambient": {"kind": "unit_disk"},
        "inner": {"kind": "affine_disk", "center": [0.25, 0], "radius": 0.55},
        "map": {"kind": "polynomial", "coeffs": [[0.25, 0.5]]},
        "start": [0, 0],
        "tolerance": 1e-11,
    }
    code, out = _run(capsys, ["solve", "--input", _write(tmp_path / "s.json", spec)])
    assert code == 0
    report = json.loads(out)
    assert abs(report["fixed_point"][0][0] - 0.5) <= 1e-10
    assert report["fixed_point"][0][1] == 0.0
    assert report["iterations"] == len(report["trace"])
    assert report["certified_bound"] <= 1e-11


def test_solve_accepts_composed_map_specs(tmp_path, capsys):
    mapping = {
        "kind": "compose",
        "outer": {"kind": "mobius", "a": [-0.3, 0]},
        "inner": {
            "kind": "compose",
            "outer": {"kind": "scale", "factor": 0.5},
            "inner": {"kind": "mobius", "a": [0.3, 0]},
        },
    }
    center = (-0.2 / 0.85 + 0.8 / 1.15) / 2
    spec = {
        "ambient": {"kind": "unit_disk"},
        "inner": {"kind": "affine_disk", "center": [center, 0], "radius": 0.47},
        "map": mapping,
        "start": [-0.5, 0.1],
        "tolerance": 1e-10,
    }
    code, out = _run(capsys, ["solve", "--input", _write(tmp_path / "s.json", spec)])
    assert code == 0
    b = json.loads(out)["fixed_point"][0]
    assert abs(complex(b[0], b[1]) - 0.3) <= 1e-9


# -- sweep --------------------------------------------------------------------------


def test_sweep_json_rows(tmp_path, capsys):
    spec = {"radii": [0.1, 0.5, 0.9]}
    code, out = _run(
        capsys,
        ["sweep", "--input", _write(tmp_path / "sw.json", spec), "--samples", "500"],
    )
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert [row["config"] for row in rows] == ["000", "001", "002"]
    for row in rows:
        assert abs(row["k"] - math.tanh(row["M"])) <= 1e-15
        assert row["max_violation"] <= 1e-10
        assert row["pairs"] == 500


def test_sweep_rows_keep_the_input_order(tmp_path, capsys):
    radii = [(i + 1) / 1002 for i in range(1001)]
    path = _write(tmp_path / "sw.json", {"radii": radii})
    code, out = _run(capsys, ["sweep", "--input", path, "--samples", "1"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["r"] for row in rows] == radii
    assert [row["config"] for row in rows] == [f"{i:03d}" for i in range(1001)]
    code, out = _run(capsys, ["sweep", "--input", path, "--samples", "1", "--format", "csv"])
    assert code == 0
    csv_rows = [line.split(",")[:2] for line in out.splitlines()[1:]]
    assert csv_rows == [[row["config"], repr(row["r"])] for row in rows]


def test_sweep_csv_format_and_values(tmp_path, capsys):
    spec = {"radii": [0.5]}
    code, out = _run(
        capsys,
        [
            "sweep",
            "--input",
            _write(tmp_path / "sw.json", spec),
            "--samples",
            "200",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "config,r,M,k,max_violation,pairs"
    assert lines[1].startswith("000,0.5,1.0986122886681098,0.8,")
    assert lines[1].endswith(",200")


def test_sweep_csv_is_deterministic(tmp_path):
    spec_path = _write(tmp_path / "sw.json", {"radii": [0.1, 0.3, 0.5, 0.7, 0.9]})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out_path in (out_a, out_b):
        code = main(
            [
                "sweep",
                "--input",
                spec_path,
                "--seed",
                "42",
                "--samples",
                "300",
                "--format",
                "csv",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"\r" not in out_a.read_bytes()  # LF line endings


def test_emit_csv_empty_report_is_header_only():
    assert emit_csv({"rows": []}) == "config,r,M,k,max_violation,pairs\n"


def test_emit_csv_same_report_is_byte_identical():
    report = {
        "rows": [
            {"config": "000", "r": 0.5, "M": 1.0986122886681098, "k": 0.8,
             "max_violation": -1.25e-3, "pairs": 10}
        ]
    }
    assert emit_csv(report).encode() == emit_csv(report).encode()


def test_module_entry_point_runs(tmp_path):
    spec_path = _write(tmp_path / "d.json", {"domain": {"kind": "unit_disk"}, "x": 0, "y": 0.25})
    proc = subprocess.run(
        [sys.executable, "-m", "cmetric", "distance", "--input", spec_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "distance"
