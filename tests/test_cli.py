"""The command-line front end: golden reports, exit codes, valid JSON.

Every report is deterministic, so each golden case runs one command in
process through `cli.main` and compares the written report byte for byte
with `tests/golden/<name>.json`.  Regenerate the goldens (only for an
intended change of a report) with

    PYTHONPATH=src python tests/test_cli.py
"""

import json
import math
from pathlib import Path

import pytest

from vortexlink import cli, massey, tubes
from vortexlink.curves import Link, as_polygon, borromean_rings, split_triple
from vortexlink.grid import Grid3
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
    cases.append(
        (
            "comomentum_n32",
            ["comomentum", "--pairs", "1", "--triples", "1", "--config", COMOMENTUM_CONFIG],
            0,
        )
    )
    return cases


CASES = _cases()


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


def test_non_solenoidal_comomentum_exits_3(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["comomentum", "--non-solenoidal", "--config", COMOMENTUM_CONFIG]
    assert cli.main(argv) == cli.EXIT_NUMERICAL == 3


def test_sidecar_reports_peak_rss_per_stage(tmp_path, monkeypatch):
    # the sidecar keeps stage seconds under "timings" and the process's peak
    # resident set at the end of each stage under its own key
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert cli.main(["lk", "--scene", "fixtures/hopf.json", "--seed", SEED, "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    assert set(sidecar) == {"timings", "peak_rss_mb"}
    assert set(sidecar["peak_rss_mb"]) == set(sidecar["timings"]) == {"linking_matrix", "writhe_framing"}
    rss = sidecar["peak_rss_mb"]
    assert 0 < rss["linking_matrix"] <= rss["writhe_framing"]


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
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return gate(*args, **kwargs)

    gate = tubes.validate_scene
    monkeypatch.setattr(tubes, "validate_scene", counting)
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


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    dump_scene(SPLIT_TRIPLE_N48, Grid3(48, 2 * math.pi), split_triple(tube_radius=0.42))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, code in CASES:
            got_code, got = _run(argv, Path(tmp) / "report.json")
            assert got_code == code, (name, got_code)
            (GOLDEN / f"{name}.json").write_bytes(got)
            print(f"wrote {name}.json (exit {got_code})")
