"""The benchmark harness still fits the package.

Every function the traced benchmark wraps still exists under its name:
`perfbench/traced_cli.py` wraps functions by (module, attribute) name; a
rename in the package would otherwise surface only as a crash of a traced
benchmark run.  The lookup below is the one `Tracer.install` makes.  And
every config the benchmark passes still loads through the section reader of
the command it is passed to, so that a key the package stops accepting fails
here and not on every benchmark operation.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from vortexlink.scenes import grid_config, tolerance_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
