"""The benchmark harness still fits the package.

Every function the traced benchmark wraps still exists under its name:
`perfbench/traced_cli.py` wraps functions by (module, attribute) name; a
rename in the package would otherwise surface only as a crash of a traced
benchmark run.  The lookup below is the one `Tracer.install` makes.  And
every config the benchmark passes still loads through the section reader of
the command it is passed to, so that a key the package stops accepting fails
here and not on every benchmark operation.  And every stage a command writes
to its timings sidecar is one that `perfbench/layers.py` lists, since
`stage_metrics` refuses an unlisted stage and so would fail the whole run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from vortexlink import cli
from vortexlink.scenes import grid_config, tolerance_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
INPUTS = sorted((PERFBENCH / "inputs").glob("*.json"))


def _perfbench(name):
    """A module of perfbench/, loaded without leaving perfbench/ on sys.path."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


TRACED = _perfbench("traced_cli").TRACED
# the config section each command reads
READERS = {"comomentum": grid_config, "massey": tolerance_config}


def _config_commands():
    """{config path: the commands the benchmark passes it to}."""
    run = _perfbench("run")
    passed = {}
    for workload in run.WORKLOADS:
        for _, argv, _, _ in run.workload_ops(workload, 0, Path("out")):
            if "--config" in argv:
                path = PERFBENCH.parent / argv[argv.index("--config") + 1]
                passed.setdefault(path, set()).add(argv[0])
    return passed


@pytest.mark.parametrize(
    "mod_name, attr", [row[:2] for row in TRACED], ids=[f"{r[0]}.{r[1]}" for r in TRACED]
)
def test_traced_name_resolves(mod_name, attr):
    owner = importlib.import_module(f"vortexlink.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = getattr(owner, cls_name).__dict__[meth]
        if isinstance(raw, classmethod):
            raw = raw.__func__
    else:
        raw = getattr(owner, attr)
    assert callable(raw)


@pytest.mark.parametrize("path", INPUTS, ids=[p.name for p in INPUTS])
def test_benchmark_config_loads(path):
    commands = _config_commands().get(path)
    assert commands, f"no benchmark operation passes {path.name}"
    for command in commands:
        READERS[command](path)


# one small run of each command the benchmark times, the massey runs on a
# three- and a four-component scene; argv without --out
STAGED_COMMANDS = {
    "massey-split_triple": ["massey", "--scene", "tests/golden/split_triple_n48_scene.json"],
    "massey-split_quad": ["massey", "--scene", "tests/golden/split_quad_n48_scene.json"],
    "lk": ["lk", "--scene", "fixtures/borromean.json"],
    "oracle-scene": ["oracle", "123", "--scene", "fixtures/borromean.json"],
    "oracle-diagram": ["oracle", "123", "--diagram", "fixtures/borromean_diagram.json"],
    "comomentum": ["comomentum", "--pairs", "1", "--triples", "1",
                   "--config", "tests/golden/comomentum_config.json"],
    "export": ["export", "--scene", "tests/golden/split_triple_n48_scene.json"],
}


@pytest.mark.parametrize("name", sorted(STAGED_COMMANDS))
def test_sidecar_stages_are_listed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = STAGED_COMMANDS[name]
    out = tmp_path / "out"
    assert cli.main(argv[:1] + ["--out", str(out)] + argv[1:]) == 0
    report = out / "export_report.json" if argv[0] == "export" else out
    stages = json.loads(Path(f"{report}.timings.json").read_text())["timings"]
    assert stages and set(stages) <= set(_perfbench("layers").STAGES)
