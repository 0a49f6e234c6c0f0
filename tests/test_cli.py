"""The command-line front end: golden reports, exit codes, valid JSON.

Every report is deterministic, so each golden case runs one command in
process through `cli.main` and compares the written report byte for byte
with `tests/golden/<name>.json`.  Regenerate the goldens (only for an
intended change of a report) with

    PYTHONPATH=src python tests/test_cli.py
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlink import cli, comomentum, diagrams, linking, massey, tubes
from vortexlink import errors as E
from vortexlink.curves import (
    Link,
    PlanarCurve,
    PolygonalCurve,
    TubeParams,
    as_polygon,
    borromean_rings,
    circle,
    split_triple,
)
from vortexlink.grid import Grid3
from vortexlink.random_fields import random_vector_field
from vortexlink.scenes import dump_scene

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "1"

SCENES = {
    "borromean": ("borromean.json", "123"),
    "hopf": ("hopf.json", "12"),
    "split": ("split.json", "12"),
    "split_triple": ("split_triple.json", "123"),
}
DIAGRAMS = {"borromean_diagram": "123", "hopf_diagram": "12"}
# the co-momentum suite at N = 32
COMOMENTUM_CONFIG = "tests/golden/comomentum_config.json"
# split_triple(tube_radius=0.42) at N = 48, written by scenes.dump_scene: a
# three-component massey run that reaches the cartan_bianchi and involution
# stages in about two seconds
SPLIT_TRIPLE_N48 = "tests/golden/split_triple_n48_scene.json"
# four stacked radius-0.5 circles at N = 48 (r = 0.4, about 3.05h, and a
# spacing of 2.55r), written by scenes.dump_scene: an unlinked scene that
# runs the hierarchy to length 4 in about two seconds
SPLIT_QUAD_N48 = "tests/golden/split_quad_n48_scene.json"


def split_quad():
    comps = [circle((0.0, 0.0, z), (0, 0, 1.0), 0.5) for z in (-1.53, -0.51, 0.51, 1.53)]
    return Link(comps, TubeParams(0.4))


def _cases():
    """(golden name, argv without --out, expected exit code)."""
    cases = []
    for name, (scene, _) in SCENES.items():
        cases.append((f"lk_{name}", ["lk", "--scene", f"fixtures/{scene}"], 0))
    for name, (scene, index) in SCENES.items():
        cases.append(
            (f"oracle_{name}", ["oracle", index, "--scene", f"fixtures/{scene}"], 0)
        )
    for name, index in DIAGRAMS.items():
        cases.append(
            (f"oracle_{name}", ["oracle", index, "--diagram", f"fixtures/{name}.json"], 0)
        )
    cases.append(("massey_hopf", ["massey", "--scene", "fixtures/hopf.json"], 4))
    cases.append(("massey_split", ["massey", "--scene", "fixtures/split.json"], 0))
    cases.append(("massey_split_triple_n48", ["massey", "--scene", SPLIT_TRIPLE_N48], 0))
    cases.append(("massey_split_quad_n48", ["massey", "--scene", SPLIT_QUAD_N48], 0))
    cases.append(
        (
            "comomentum_n32",
            ["comomentum", "--pairs", "1", "--triples", "1", "--config", COMOMENTUM_CONFIG],
            0,
        )
    )
    return cases


CASES = _cases()


def _replaced(doc, path, value):
    """`doc` with the entry at `path` (keys and indices) set to `value`; the
    empty path replaces the whole document."""
    if not path:
        return value
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[last] = value
    return doc


def _run(argv, out_path):
    """Run one command from the repository root; return (exit code, report bytes)."""
    code = cli.main(argv + ["--seed", SEED, "--out", str(out_path)])
    return code, Path(out_path).read_bytes()


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    got_code, got = _run(argv, tmp_path / "report.json")
    assert got_code == code
    assert got == (GOLDEN / f"{name}.json").read_bytes()


def test_malformed_scene_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "vlink-1", "box": ')
    assert cli.main(["lk", "--scene", str(bad)]) == cli.EXIT_VALIDATION == 2


@pytest.mark.parametrize("raw", [b'{"box": "\xff"}', b'{"box": ' + b"9" * 5000 + b"}"],
                         ids=["not-utf8", "integer-too-long"])
def test_unreadable_json_exits_2(raw, tmp_path, capsys):
    # json.load raises a ValueError that is not a JSONDecodeError for these
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert cli.main(["lk", "--scene", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("SceneError: unreadable JSON: ")


HOPF = str(ROOT / "fixtures" / "hopf.json")


@pytest.mark.parametrize("argv, error", [
    (["lk", "--scene", "{tmp}/missing.json"], "FileNotFoundError"),
    (["lk", "--scene", "{tmp}"], "IsADirectoryError"),
    (["oracle", "12", "--diagram", "{tmp}"], "IsADirectoryError"),
    (["comomentum", "--config", "{tmp}"], "IsADirectoryError"),
    (["lk", "--scene", HOPF, "--out", "{tmp}"], "IsADirectoryError"),
    (["lk", "--scene", HOPF, "--out", "{tmp}/file/report.json"], "NotADirectoryError"),
    (["export", "--scene", HOPF, "--out", "{tmp}/file"], "FileExistsError"),
], ids=["missing-file", "scene-directory", "diagram-directory", "config-directory",
        "out-directory", "out-under-a-file", "export-out-file"])
def test_bad_paths_exit_2_with_one_line(argv, error, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


def test_non_solenoidal_comomentum_exits_3(monkeypatch):
    # a non-solenoidal field reaching f1 fails its divergence gate, which the
    # command reports as a numerical precondition
    def non_solenoidal(grid, rng, *args):
        comomentum.f1(random_vector_field(grid, rng))

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(comomentum, "comomentum_report", non_solenoidal)
    argv = ["comomentum", "--config", COMOMENTUM_CONFIG]
    assert cli.main(argv) == cli.EXIT_NUMERICAL == 3


@pytest.mark.parametrize("flag, value", [("--pairs", "0"), ("--pairs", "-3"), ("--triples", "-1")])
def test_comomentum_count_flags_are_checked_by_the_parser(flag, value, capsys, monkeypatch):
    # a usage error naming the flag, before any field is drawn
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["comomentum", flag, value, "--config", COMOMENTUM_CONFIG])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_comomentum_without_triples_reports_null_eq27(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["comomentum", "--pairs", "1", "--triples", "0", "--config", COMOMENTUM_CONFIG]
    code, got = _run(argv, tmp_path / "report.json")
    assert code == 0
    assert json.loads(got)["comomentum"]["eq27"] is None


def test_sidecar_reports_peak_rss_per_stage(tmp_path, monkeypatch):
    # the sidecar keeps stage seconds under "timings", and the process's peak
    # resident set, its current resident set at the end of each stage and
    # the minor page faults taken in each stage under their own keys
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert cli.main(["lk", "--scene", "fixtures/hopf.json", "--seed", SEED, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    assert set(sidecar) == {"timings", "peak_rss_mb", "rss_mb", "minflt"}
    stages = {"linking_matrix", "writhe_framing"}
    assert (set(sidecar["peak_rss_mb"]) == set(sidecar["rss_mb"]) == set(sidecar["minflt"])
            == set(sidecar["timings"]) == stages)
    assert all(isinstance(n, int) and n >= 0 for n in sidecar["minflt"].values())
    peak, now = sidecar["peak_rss_mb"], sidecar["rss_mb"]
    assert 0 < peak["linking_matrix"] <= peak["writhe_framing"]
    # the resident set at a stage's end is below the high-water mark read
    # after it, to within the kernel's batched page counts (well under 1 MiB)
    assert all(0 < now[s] <= peak[s] + 1.0 for s in stages)


def test_comomentum_sidecar_counts_transforms(tmp_path, monkeypatch):
    # one pair and one triple: each tower object is computed once and each
    # field's divergence is checked once, so the suites make 90 rfft3/irfft3
    # calls in all (92 when the ABC stage checked its field twice, as both
    # arguments of equivariance_defect; 114 when eq27 and the ABC stage
    # re-checked fields and brackets, 182 when the eq26/eq29 suite, the f2
    # gate, curl_inv and the ABC stage repeated work)
    monkeypatch.chdir(ROOT)
    argv = ["comomentum", "--pairs", "1", "--triples", "1", "--config", COMOMENTUM_CONFIG]
    _run(argv, tmp_path / "report.json")
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    assert sidecar["fft_calls"] == {
        "eq25_suite": 11, "eq26_eq29_suite": 19, "eq27_suite": 45, "abc_fixture": 15,
    }


# invalid scenes: (builder, commands, exception name, message fragment, exit
# code); the gate gives one verdict per scene whatever the command
def _polygonal_split_triple():
    link = split_triple()
    return Link([as_polygon(c) for c in link.components], link.tube)


INVALID_SCENES = {
    "thin_tube": (lambda: split_triple(tube_radius=0.15), ("massey", "export"),
                  "TubeTooThin", "< 3h", 3),
    "overlap": (lambda: borromean_rings(tube_radius=0.21), ("massey", "export"),
                "TubeOverlap", "<= 2r", 3),
    "half_box": (lambda: split_triple(separation=1.7), ("massey", "export"),
                 "SceneError", "half-box", 2),
    "polygon": (_polygonal_split_triple, ("massey",),
                "SceneError", "planar components", 2),
    "meridian": (lambda: split_triple(tube_radius=0.6), ("massey",),
                 "SceneError", "meridian torus 0 meets", 2),
}
INVALID_CASES = [(name, command) for name, (_, commands, *_) in INVALID_SCENES.items()
                 for command in commands]


def _count_gate_calls(monkeypatch):
    # export reaches the gate through LinkFields.build, massey through
    # MasseyHierarchy.from_scene
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return gate(*args, **kwargs)

    gate = tubes.validate_scene
    monkeypatch.setattr(tubes, "validate_scene", counting)
    monkeypatch.setattr(massey, "validate_scene", counting)
    return calls


@pytest.mark.parametrize("name, command", INVALID_CASES,
                         ids=[f"{c}-{n}" for n, c in INVALID_CASES])
def test_invalid_scene_is_rejected_before_any_field(name, command, tmp_path,
                                                    monkeypatch, capsys):
    build, _, exc_name, fragment, code = INVALID_SCENES[name]
    scene = tmp_path / "scene.json"
    dump_scene(scene, Grid3(96, 2 * math.pi), build())

    def no_field(*args, **kwargs):
        raise AssertionError("a field was built before the scene was rejected")

    monkeypatch.setattr(tubes._Depositor, "add", no_field)
    monkeypatch.setattr(massey, "distance_to_curve_field", no_field)
    calls = _count_gate_calls(monkeypatch)
    argv = [command, "--scene", str(scene), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{exc_name}: ") and fragment in err
    assert calls == [1]


@pytest.mark.parametrize("command", ["massey", "export"])
def test_valid_scene_is_gated_once(command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    calls = _count_gate_calls(monkeypatch)
    argv = [command, "--scene", SPLIT_TRIPLE_N48, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert calls == [1]


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def test_split_triple_massey_report_is_valid_json(tmp_path, monkeypatch):
    # grid and oracle both give mu_bar(123) = 0 on this unlinked scene
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert cli.main(
        ["massey", "--scene", "fixtures/split_triple.json", "--seed", SEED, "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    massey = report["massey"]
    assert massey["mu123_oracle"] == 0
    assert massey["agreement"]["pass"]


def test_diagram_report_ignores_path_spelling(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    spellings = ["fixtures/hopf_diagram.json", "./fixtures/hopf_diagram.json",
                 str(ROOT / "fixtures" / "hopf_diagram.json")]
    reports = []
    for k, path in enumerate(spellings):
        out = tmp_path / f"{k}.json"
        assert cli.main(["oracle", "12", "--diagram", path, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    fixture = json.loads((ROOT / "fixtures" / "hopf_diagram.json").read_text())
    assert json.loads(reports[0])["scene"] == fixture


@pytest.mark.parametrize("components", [1, 3])
def test_diagram_component_count_must_match_its_arcs(components, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    doc = json.loads((ROOT / "fixtures" / "hopf_diagram.json").read_text())
    doc["components"] = components
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["oracle", "12", "--diagram", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"InconsistentDiagram: {components} components but 2 arc lists")


# a part of fixtures/hopf_diagram.json replaced by a value of the wrong JSON type,
# or a key the diagram does not read added (a SceneError), or by a diagram whose
# parts do not fit together (an InconsistentDiagram, listed in INCONSISTENT)
MALFORMED_DIAGRAMS = {
    "list": ((), []),
    "crossings-number": (("crossings",), 5),
    "arcs-number": (("arcs",), 5),
    "arc-list-number": (("arcs", 0), 0),
    "arc-id-string": (("arcs", 0, 0), "0"),
    "crossing-number": (("crossings", 0), 5),
    "crossing-sign-fraction": (("crossings", 0, "sign"), 0.5),
    "components-string": (("components",), "2"),
    "schema": (("schema",), "vlink-1"),
    "unknown-key": (("crossing",), []),
    "crossing-unknown-key": (("crossings", 0, "signs"), 1),
    # one crossing between the two components: no closed link projects so
    "odd-crossings": (("crossings",), [{"over": 0, "under_in": 1, "under_out": 1, "sign": 1}]),
}
INCONSISTENT = {"odd-crossings"}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIAGRAMS))
def test_malformed_diagram_exits_2(case, tmp_path, capsys):
    doc = json.loads((ROOT / "fixtures" / "hopf_diagram.json").read_text())
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(_replaced(doc, *MALFORMED_DIAGRAMS[case])))
    assert cli.main(["oracle", "12", "--diagram", str(path)]) == 2
    error = "InconsistentDiagram" if case in INCONSISTENT else "SceneError"
    assert capsys.readouterr().err.startswith(f"{error}: ")


@pytest.mark.parametrize("index", ["1x", "1", "12.", "\uff11\uff12"])
def test_oracle_index_is_checked_before_any_file_is_read(index, monkeypatch, capsys):
    monkeypatch.setattr(cli, "load_scene", lambda path: pytest.fail("scene loaded"))
    monkeypatch.setattr(cli, "read_json", lambda path: pytest.fail("diagram read"))
    for source in (["--scene", "fixtures/hopf.json"], ["--diagram", "fixtures/hopf_diagram.json"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", *source, index])
        assert exc.value.code == 2
        assert "argument index: must be two or more component digits" in capsys.readouterr().err


@pytest.mark.parametrize("source", [
    ["--scene", "fixtures/hopf.json"], ["--diagram", "fixtures/hopf_diagram.json"],
], ids=["scene", "diagram"])
def test_oracle_index_is_checked_against_the_component_count(source, monkeypatch, capsys):
    # after the scene or diagram is read, before any projection or mu-bar
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(linking, "find_crossings", lambda *a: pytest.fail("projected"))
    monkeypatch.setattr(diagrams, "oracle_report", lambda *a: pytest.fail("mu-bar"))
    assert cli.main(["oracle", *source, "13"]) == 2
    assert capsys.readouterr().err.startswith(
        "SceneError: multi-index 13 names component 3 of a 2-component link")


@pytest.mark.parametrize("sources, message", [
    (["--scene", "fixtures/split.json", "--diagram", "fixtures/hopf_diagram.json"],
     "argument --diagram: not allowed with argument --scene"),
    ([], "one of the arguments --scene --diagram is required"),
], ids=["both", "neither"])
def test_oracle_reads_exactly_one_source(sources, message, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", *sources, "12"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_massey_refuses_one_component_before_the_mask(tmp_path, monkeypatch, capsys):
    # the Massey gate of tubes.validate_scene: there is no pair to solve
    doc = json.loads((ROOT / "fixtures" / "hopf.json").read_text())
    doc["components"] = doc["components"][:1]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    monkeypatch.setattr(massey.MaskedDomain, "build",
                        lambda *a, **k: pytest.fail("mask built"))
    assert cli.main(["massey", "--scene", str(scene), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "SceneError: Massey hierarchy needs at least two components, got 1")


def test_reverse_flips_the_crossing_linking_number(tmp_path, capsys):
    doc = json.loads((ROOT / "fixtures" / "hopf.json").read_text())
    crossing = []
    for reverse in (False, True):
        doc["components"][0]["reverse"] = reverse
        scene, out = tmp_path / f"{reverse}.json", tmp_path / f"r{reverse}.json"
        scene.write_text(json.dumps(doc))
        assert cli.main(["lk", "--scene", str(scene), "--out", str(out)]) == 0
        crossing.append(json.loads(out.read_text())["linking"]["crossing"][0][1])
    assert crossing == [1, -1]


def _assert_projects_once(argv, monkeypatch, capsys):
    """Every find_crossings call of the command sees the whole
    three-component link, and only a rejected direction is followed by
    another call."""
    calls = []

    def counting(curves, direction):
        calls.append([len(curves), False])
        out = find_crossings(curves, direction)
        calls[-1][1] = True
        return out

    find_crossings = linking.find_crossings
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(linking, "find_crossings", counting)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [accepted for _, accepted in calls] == [False] * (len(calls) - 1) + [True]
    assert {n for n, _ in calls} == {3}


def test_lk_projects_the_scene_once(monkeypatch, capsys):
    _assert_projects_once(["lk", "--scene", "fixtures/borromean.json"], monkeypatch, capsys)


@pytest.mark.parametrize("argv", [
    ["oracle", "123", "--scene", SPLIT_TRIPLE_N48], ["massey", "--scene", SPLIT_TRIPLE_N48],
], ids=["oracle", "massey"])
def test_scene_commands_project_the_scene_once(argv, monkeypatch, capsys):
    # through the one retry loop, diagrams.scene_diagram, as lk does
    _assert_projects_once(argv, monkeypatch, capsys)


def test_one_magnus_pass_per_oracle_report(monkeypatch, capsys):
    # mu-bar(123) and its trail 12, 13, 23: four longitudes expanded, all
    # through one meridian rewriter
    counts = {"series": 0, "rewriters": 0}

    def series(*args):
        counts["series"] += 1
        return word_series(*args)

    class Rewriter(diagrams._Rewriter):
        def __init__(self, diagram):
            counts["rewriters"] += 1
            super().__init__(diagram)

    word_series = diagrams.word_series
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(diagrams, "word_series", series)
    monkeypatch.setattr(diagrams, "_Rewriter", Rewriter)
    assert cli.main(["oracle", "--diagram", "fixtures/borromean_diagram.json", "123"]) == 0
    assert capsys.readouterr().out.endswith("mu_bar(123) = -1\n")
    assert counts == {"series": 4, "rewriters": 1}


def _with_config(command, doc, tmp_path, monkeypatch, capsys):
    """Exit code and stderr of `command` with the config `doc` (`massey` on
    the Borromean fixture), failing if the scene is read or a co-momentum
    field is drawn: a config is rejected before either."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "load_scene", lambda path: pytest.fail("scene loaded"))
    monkeypatch.setattr(comomentum, "comomentum_report",
                        lambda *args: pytest.fail("field drawn"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = [command, "--config", str(config)]
    if command == "massey":
        argv += ["--scene", "fixtures/borromean.json"]
    return cli.main(argv), capsys.readouterr().err


@pytest.mark.parametrize("value", [0.5, 2.5, -1, 0])
def test_cg_maxiter_must_be_a_whole_number(value, tmp_path, monkeypatch, capsys):
    doc = {"tolerances": {"cg_maxiter": value}}
    code, err = _with_config("massey", doc, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "SceneError: tolerance cg_maxiter must be" in err


# the tolerances a config may not set: fixed gates, read where they apply
FIXED_GATES = ["eps_div", "eps_mean", "eps_harm", "eps_ham", "eps_obstruction",
               "quad_refine", "cross_angle", "cross_sep"]
TOLERANCE_KEYS = "['cg_maxiter', 'cg_tol', 'eps_massey', 'eps_period']"
MASSEY_READS = "config may hold only ['tolerances'], got"
COMOMENTUM_READS = "config may hold only ['grid'], got"
# case -> (command, config, message): massey reads only "tolerances",
# comomentum only "grid"
MALFORMED_CONFIGS = {
    "cg_tol-string": ("massey", {"tolerances": {"cg_tol": "abc"}},
                      "tolerance cg_tol must be a finite number"),
    "cg_tol-bool": ("massey", {"tolerances": {"cg_tol": True}},
                    "tolerance cg_tol must be a finite number"),
    "eps_massey-nan": ("massey", {"tolerances": {"eps_massey": math.nan}},
                       "tolerance eps_massey must be a finite number"),
    "eps_period-negative": ("massey", {"tolerances": {"eps_period": -0.1}},
                            "tolerance eps_period must be positive"),
    "config-list": ("massey", [], "config must be a JSON object"),
    "comomentum-config-list": ("comomentum", [], "config must be a JSON object"),
    "tolerances-list": ("massey", {"tolerances": ["cg_tol"]},
                        "tolerances must be a JSON object"),
    "tolerances-misspelled": ("massey", {"tolerance": {"eps_massey": 0.2}},
                              f"{MASSEY_READS} ['tolerance']"),
    "massey-grid": ("massey", {"grid": {"N": 128}}, f"{MASSEY_READS} ['grid']"),
    "seed-fraction": ("massey", {"seed": 1.9}, f"{MASSEY_READS} ['seed']"),
    "seed-string": ("massey", {"seed": "1"}, f"{MASSEY_READS} ['seed']"),
    "grid-number": ("comomentum", {"grid": 32}, "grid must be a JSON object"),
    "N-fraction": ("comomentum", {"grid": {"N": 32.7}}, "grid N must be a whole number"),
    "N-string": ("comomentum", {"grid": {"N": "32"}}, "grid N must be a finite number"),
    "N-small": ("comomentum", {"grid": {"N": 8}}, "grid N must be at least 16, got 8"),
    "L-string": ("comomentum", {"grid": {"L": "6.28"}}, "grid L must be a finite number"),
    "L-negative": ("comomentum", {"grid": {"L": -1}}, "grid L must be positive"),
    "grid-unknown-key": ("comomentum", {"grid": {"n": 32}},
                         "grid may hold only ['L', 'N'], got ['n']"),
    "comomentum-seed": ("comomentum", {"seed": 1}, f"{COMOMENTUM_READS} ['seed']"),
    "comomentum-tolerances": ("comomentum", {"tolerances": {"cg_tol": 0.1}},
                              f"{COMOMENTUM_READS} ['tolerances']"),
    **{f"fixed-{key}": ("massey", {"tolerances": {key: 1e-3}},
                        f"tolerances may hold only {TOLERANCE_KEYS}, got ['{key}']")
       for key in FIXED_GATES},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2(case, tmp_path, monkeypatch, capsys):
    command, doc, message = MALFORMED_CONFIGS[case]
    code, err = _with_config(command, doc, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith(f"SceneError: {message}")


# component 1 of the Hopf fixture made degenerate: each is rejected when the
# scene is read, whatever the command
DEGENERATE_COMPONENTS = {
    "zero_normal": {"type": "circle", "center": [-0.5, 0, 0], "normal": [0, 0, 0], "radius": 1.0},
    "zero_radius": {"type": "circle", "center": [-0.5, 0, 0], "normal": [0, 0, 1], "radius": 0.0},
    "zero_axis": {"type": "ellipse", "center": [-0.5, 0, 0], "axis_u": [1, 0, 0],
                  "axis_v": [0, 0, 0]},
    "oblique_axes": {"type": "ellipse", "center": [-0.5, 0, 0], "axis_u": [1, 0, 0],
                     "axis_v": [0.5, 1, 0]},
}


@pytest.mark.parametrize("command", ["lk", "massey", "export"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_COMPONENTS))
def test_degenerate_component_exits_2(name, command, tmp_path, capsys):
    doc = json.loads((ROOT / "fixtures" / "hopf.json").read_text())
    doc["components"][0] = DEGENERATE_COMPONENTS[name]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    argv = [command, "--scene", str(scene), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("SceneError: ")


def test_seedless_lk_is_deterministic(tmp_path):
    # the framing of a non-planar polygon (a trefoil) depends on the
    # projection direction
    t = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
    knot = np.stack([np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t),
                     -np.sin(3 * t)], axis=1) / 3
    scene = tmp_path / "trefoil.json"
    dump_scene(scene, Grid3(96, 2 * math.pi), Link([PolygonalCurve(knot)], TubeParams(0.1)))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert cli.main(["lk", "--scene", str(scene), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# command -> (module, the function given the command's generator, the stub's
# return value, or None to call the function itself)
SEEDED = {
    "lk": ("linking", "linking_report", {}),
    "oracle": ("diagrams", "scene_diagram", None),
    "massey": ("massey", "massey_report", ({}, None)),
    "comomentum": ("comomentum", "comomentum_report", {}),
}


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("flag, config, seed", [
    (None, None, 0), (None, 7, 7), (3, 7, 3), (3, None, 3),
])
def test_one_seed_policy(command, flag, config, seed, tmp_path, monkeypatch, capsys):
    # --seed, else 0: the flag is the only seed source.  `config` is the
    # seed a config sets and `seed` the one drawn when the run goes ahead;
    # a config "seed" refuses the run before any generator is drawn, whether
    # or not --seed is given
    module, name, result = SEEDED[command]
    owner = importlib.import_module(f"vortexlink.{module}")
    real = getattr(owner, name)
    states = []

    def capture(*args):
        rng = next(a for a in args if isinstance(a, np.random.Generator))
        states.append(rng.bit_generator.state)
        return real(*args) if result is None else result

    monkeypatch.setattr(owner, name, capture)
    argv = [command] + (["12"] if command == "oracle" else [])
    if command != "comomentum":
        argv += ["--scene", str(ROOT / "fixtures" / "hopf.json")]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": config}))
        argv += ["--config", str(cfg)]
    if flag is not None:
        argv += ["--seed", str(flag)]
    argv += ["--out", str(tmp_path / "out.json")]
    if config is None:
        assert cli.main(argv) == 0
        assert states == [np.random.default_rng(seed).bit_generator.state]
    elif command in ("massey", "comomentum"):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("SceneError: config may hold only")
        assert states == []
    else:
        # lk and oracle take no --config at all
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert states == []


@pytest.mark.parametrize("command", ["massey", "comomentum"])
def test_config_seed_is_refused(command, tmp_path, monkeypatch, capsys):
    # lk and oracle take no --config (test_unread_inputs_are_usage_errors)
    code, err = _with_config(command, {"seed": 7}, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("SceneError: config may hold only") and "['seed']" in err


# two unlinked rings (1, 2), each linked once with ring 3: the (1, 3) and
# (2, 3) classes are nonzero, and the (2, 3) solve is the one that raises
CHAIN = [((-0.9, 0, 0), (0.6, 0, 0), (0, 0.6, 0)),
         ((0.9, 0, 0), (0.6, 0, 0), (0, 0.6, 0)),
         ((0, 0, 0), (0.9, 0, 0), (0, 0, 0.6))]


def test_obstructed_report_names_the_failed_solve(tmp_path, capsys):
    comps = [PlanarCurve(*map(np.array, ellipse)) for ellipse in CHAIN]
    scene = tmp_path / "chain.json"
    dump_scene(scene, Grid3(128, 2 * math.pi), Link(comps, TubeParams(0.15)))
    out = tmp_path / "report.json"
    assert cli.main(["massey", "--scene", str(scene), "--out", str(out)]) == 4
    obstructed = json.loads(out.read_text())["massey"]["obstructed"]
    assert obstructed["pair"] == "2,3"
    assert "dT2" in obstructed["message"] and "dT3" in obstructed["message"]
    assert "dT1" not in obstructed["message"]
    assert capsys.readouterr().err == f"ObstructedClass: {obstructed['message']}\n"


@pytest.mark.parametrize("argv", [
    ["lk", "--scene", "fixtures/borromean.json"],
    ["oracle", "123", "--scene", "fixtures/borromean.json"],
    ["comomentum", "--pairs", "1", "--triples", "1", "--config", COMOMENTUM_CONFIG],
    ["massey", "--scene", "fixtures/split.json"],
    ["export", "--scene", SPLIT_TRIPLE_N48],
], ids=["lk", "oracle", "comomentum", "massey", "export"])
def test_no_command_imports_scipy(argv, tmp_path):
    # scipy.fft costs more to import than the whole package: the spectral
    # layer is built on numpy.fft, and no other module needs scipy
    out = tmp_path / ("out" if argv[0] == "export" else "r.json")
    code = ("import sys; from vortexlink import cli; "
            f"assert cli.main({argv + ['--out', str(out)]!r}) == 0; "
            "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    ["lk", "--scene", "fixtures/hopf.json"],
    ["oracle", "12", "--scene", "fixtures/hopf.json"],
    ["oracle", "12", "--diagram", "fixtures/hopf_diagram.json"],
], ids=["lk", "oracle-scene", "oracle-diagram"])
def test_projection_commands_import_no_field_module(argv, tmp_path):
    # lk and oracle build no field, so they never import the spectral layer
    # or the modules built on it
    code = ("import sys; from vortexlink import cli; "
            f"assert cli.main({argv + ['--out', str(tmp_path / 'r.json')]!r}) == 0; "
            "print([m for m in ('operators', 'massey', 'comomentum') "
            "if 'vortexlink.' + m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["export", "--scene", "fixtures/split.json", "--config", "c.json"],
    ["lk", "--scene", "fixtures/split.json", "--config", "c.json"],
    ["oracle", "12", "--scene", "fixtures/split.json", "--config", "c.json"],
    ["oracle", "12", "--diagram", "fixtures/hopf_diagram.json", "--config", "c.json"],
    ["comomentum", "--scene", "fixtures/split.json"],
], ids=["export-config", "lk-config", "oracle-scene-config", "oracle-diagram-config",
        "comomentum-scene"])
def test_unread_inputs_are_usage_errors(argv, capsys):
    # a command takes only the inputs it reads, so an option that it would
    # ignore is refused by the parser before any work
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _ring(nan_at=None):
    """Twelve vertices of a unit circle, with a NaN height at index `nan_at`."""
    return [[math.cos(t), math.sin(t), math.nan if k == nan_at else 0.0]
            for k, t in enumerate(np.linspace(0, 6, 12))]


# a section of fixtures/split.json replaced by a value of the wrong JSON type
# or out of range, or a key it does not read added
MISTYPED_SCENES = {
    "box-number": (("box",), 5, "box must be a JSON object"),
    "tube-list": (("tube",), [0.1], "tube must be a JSON object"),
    "components-number": (("components",), 5, "components must be a JSON array"),
    "components-object": (("components",), {"type": "circle"},
                          "components must be a JSON array"),
    "component-number": (("components", 0), 5, "component must be a JSON object"),
    "box-N-string": (("box", "N"), "96", "box N must be a finite number"),
    "box-N-fraction": (("box", "N"), 96.5, "box N must be a whole number"),
    "tube-radius-string": (("tube", "radius"), "0.1", "tube radius must be a finite number"),
    "scene-list": ((), [], "scene must be a JSON object"),
    "phase-list": (("components", 0, "phase"), [1], "ellipse phase must be a finite number"),
    "center-two": (("components", 0, "center"), [0, 0],
                   "ellipse center must be three finite numbers"),
    "axis-string": (("components", 0, "axis_u"), ["0.45", 0, 0],
                    "ellipse axis_u must be three finite numbers"),
    "samples-string": (("components", 0, "samples"), "abc",
                       "ellipse samples must be a finite number"),
    "samples-fraction": (("components", 0, "samples"), 64.5,
                         "ellipse samples must be a whole number"),
    "samples-few": (("components", 0, "samples"), 4, "ellipse samples must be at least 8"),
    "circle-radius-list": (("components", 0),
                           {"type": "circle", "center": [-1.1, 0, 0], "normal": [0, 0, 1],
                            "radius": [1]},
                           "circle radius must be a finite number"),
    "circle-normal-null": (("components", 0),
                           {"type": "circle", "center": [-1.1, 0, 0], "normal": None,
                            "radius": 0.45},
                           "circle normal must be three finite numbers"),
    "polygon-nan": (("components", 0),
                    {"type": "polygon", "vertices": _ring(nan_at=3)},
                    "polygon vertex must be three finite numbers"),
    "polygon-three": (("components", 0), {"type": "polygon", "vertices": _ring()[:3]},
                      "polygon needs at least 8 vertices of dimension 3, got (3, 3)"),
    "polygon-coincident": (("components", 0),
                           {"type": "polygon", "vertices": _ring()[:1] + _ring()},
                           "polygon has two consecutive vertices that coincide"),
    "polygon-vertices-string": (("components", 0), {"type": "polygon", "vertices": "abc"},
                                "polygon vertices must be a JSON array"),
    "box-N-small": (("box", "N"), 4, "grid N must be at least 8, got 4"),
    "box-N-huge": (("box", "N"), 10**400, "box N must be a finite number"),
    "box-L-negative": (("box", "L"), -1, "grid L must be positive"),
    "tube-radius-negative": (("tube", "radius"), -0.1, "tube radius must be positive"),
    "tube-flux-zero": (("tube", "flux"), 0, "tube flux must be nonzero"),
    "reverse-string": (("components", 0, "reverse"), "no",
                       "ellipse reverse must be true or false, got 'no'"),
    "reverse-number": (("components", 0, "reverse"), 1,
                       "ellipse reverse must be true or false, got 1"),
    "circle-radius-negative": (("components", 0),
                               {"type": "circle", "center": [-1.1, 0, 0], "normal": [0, 0, 1],
                                "radius": -0.45},
                               "circle radius must be positive, got -0.45"),
    "scene-unknown-key": (("grid",), {"N": 48}, "scene may hold only "
                          "['box', 'components', 'schema', 'tube'], got ['grid']"),
    "box-unknown-key": (("box", "n"), 48, "box may hold only ['L', 'N'], got ['n']"),
    "tube-unknown-key": (("tube", "fluxx"), 3,
                         "tube may hold only ['flux', 'radius'], got ['fluxx']"),
    "ellipse-normal": (("components", 0, "normal"), [0, 0, 1], "ellipse may hold only "
                       "['axis_u', 'axis_v', 'center', 'phase', 'reverse', 'samples', 'type'], "
                       "got ['normal']"),
    "circle-unknown-key": (("components", 0),
                           {"type": "circle", "center": [-1.1, 0, 0], "normal": [0, 0, 1],
                            "radius": 0.45, "sample": 64},
                           "circle may hold only ['center', 'normal', 'phase', 'radius', "
                           "'reverse', 'samples', 'type'], got ['sample']"),
    "polygon-unknown-key": (("components", 0),
                            {"type": "polygon", "vertices": _ring(), "phase": 0.5},
                            "polygon may hold only ['reverse', 'type', 'vertices'], "
                            "got ['phase']"),
}


@pytest.mark.parametrize("command", ["lk", "massey", "export"])
@pytest.mark.parametrize("case", sorted(MISTYPED_SCENES))
def test_mistyped_scene_section_exits_2(case, command, tmp_path, capsys):
    path, value, message = MISTYPED_SCENES[case]
    doc = json.loads((ROOT / "fixtures" / "split.json").read_text())
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(_replaced(doc, path, value)))
    argv = [command, "--scene", str(scene), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"SceneError: {message}")


EXIT_CODES = {
    "SceneError": 2, "InconsistentDiagram": 2,
    "NotDivergenceFree": 3, "NonzeroMean": 3, "NonzeroHarmonicPart": 3,
    "ObstructedPotential": 3, "NoConvergence": 3, "TubeTooThin": 3,
    "TubeOverlap": 3, "CurvesIntersect": 3, "DegenerateProjection": 3,
    "NotPlanar": 3,
    "ObstructedClass": 4,
    "IndeterminateInvariant": 5,
    # programming errors: uncaught, with a traceback
    "VortexLinkError": None, "MixedGridError": None, "MissingPrimitive": None,
}


def test_every_error_carries_its_exit_code():
    errors = {name: cls for name, cls in vars(E).items()
              if isinstance(cls, type) and issubclass(cls, E.VortexLinkError)}
    assert {name: cls.exit_code for name, cls in errors.items()} == EXIT_CODES
    assert (cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_OBSTRUCTION,
            cli.EXIT_INDETERMINATE) == (2, 3, 4, 5)


def test_programming_errors_propagate(monkeypatch):
    # an error without an exit code, or a stray ValueError, is a fault of
    # the program, not of the input: it is not reported as a usage error
    for error in (E.MissingPrimitive("primitive (1, 2) not solved"),
                  ValueError("shapes do not match")):
        def broken(*args):
            raise error

        monkeypatch.setattr(linking, "linking_report", broken)
        with pytest.raises(type(error)):
            cli.main(["lk", "--scene", str(ROOT / "fixtures" / "hopf.json")])


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    dump_scene(SPLIT_TRIPLE_N48, Grid3(48, 2 * math.pi), split_triple(tube_radius=0.42))
    dump_scene(SPLIT_QUAD_N48, Grid3(48, 2 * math.pi), split_quad())
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, code in CASES:
            got_code, got = _run(argv, Path(tmp) / "report.json")
            assert got_code == code, (name, got_code)
            (GOLDEN / f"{name}.json").write_bytes(got)
            print(f"wrote {name}.json (exit {got_code})")
