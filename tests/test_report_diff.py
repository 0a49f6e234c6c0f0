"""tests/report_diff.py: the field-by-field report comparison."""

import json

import report_diff


def _reports():
    parent = {
        "command": "massey",
        "massey": {
            "mu123_grid": 0.13361228975994865,
            "primitive_residuals": {"12": {"iterations": 16, "pass": True}},
            "harmonic_part": [1e-20, 0.0],
        },
    }
    return parent, json.loads(json.dumps(parent))


def test_identical_reports_pass():
    parent, change = _reports()
    floats, violations = report_diff.compare(parent, change)
    assert violations == []
    assert len(floats) == 3 and all(row[3] == 0.0 for row in floats)


def test_float_bound_is_relative_above_one_and_absolute_below():
    parent, change = _reports()
    change["massey"]["mu123_grid"] = 0.13361228975994865 + 5e-11
    change["massey"]["harmonic_part"][0] = 3e-20
    floats, violations = report_diff.compare(parent, change)
    assert violations == []
    assert floats[0][0] == "massey.mu123_grid"
    change["massey"]["mu123_grid"] += 1e-10
    _, violations = report_diff.compare(parent, change)
    assert [path for path, _ in violations] == ["massey.mu123_grid"]
    big = {"x": 1e6}
    assert report_diff.compare(big, {"x": 1e6 + 5e-5})[1] == []
    assert report_diff.compare(big, {"x": 1e6 + 2e-4})[1] != []


def test_exact_fields_and_structure_must_match():
    parent, change = _reports()
    change["massey"]["primitive_residuals"]["12"]["iterations"] = 17
    change["massey"]["primitive_residuals"]["12"]["pass"] = 1
    change["massey"]["harmonic_part"].append(0.0)
    del change["command"]
    change["extra"] = "x"
    _, violations = report_diff.compare(parent, change)
    paths = sorted(path for path, _ in violations)
    assert paths == [
        "command",
        "extra",
        "massey.harmonic_part",
        "massey.primitive_residuals.12.iterations",
        "massey.primitive_residuals.12.pass",
    ]


def test_nan_equals_only_nan():
    nan = float("nan")
    assert report_diff.compare({"x": nan}, {"x": nan})[1] == []
    assert report_diff.compare({"x": nan}, {"x": 0.0})[1] != []
    assert report_diff.compare({"x": 0.0}, {"x": nan})[1] != []


def test_main_exit_code(tmp_path, capsys):
    parent, change = _reports()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert report_diff.main([str(a), str(b)]) == 0
    change["massey"]["mu123_grid"] = 0.2
    b.write_text(json.dumps(change))
    assert report_diff.main([str(a), str(b)]) == 1
    assert "VIOLATION massey.mu123_grid" in capsys.readouterr().out
