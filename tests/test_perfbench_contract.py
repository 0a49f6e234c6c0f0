"""The benchmark harness still fits the package.

Every function the traced benchmark wraps still exists under its name:
`perfbench/traced_cli.py` wraps functions by (module, attribute) name; a
rename in the package would otherwise surface only as a crash of a traced
benchmark run.  The lookup below is the one `Tracer.install` makes.  And
every config the benchmark passes still loads, so that a tolerance key the
package stops accepting fails here and not on every benchmark operation.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vortexlink.scenes import Config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED_CLI = PERFBENCH / "traced_cli.py"
INPUTS = sorted((PERFBENCH / "inputs").glob("*.json"))


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


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
    Config.load(path)
