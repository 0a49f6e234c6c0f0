"""Run one vortexlink CLI command with spans recorded at module boundaries.

    python3 perfbench/traced_cli.py SPANS_JSON <vortexlink arguments...>

The program is not changed: after importing every vortexlink module, this
script replaces each traced function with a wrapper in every module that
holds it under its own name (``massey`` imports ``rfft3``, ``ext_d`` and
others directly, so patching ``operators`` alone would miss those calls).
Spans stay in memory and are written to SPANS_JSON when the command ends,
one ``[name, start, end, parent, count]`` row per call, where ``parent`` is
the index of the enclosing span (-1 at top level) and ``count`` is a
per-call quantity (bytes for FFTs and writers, points for deposition and
interpolation, 1 for a projection direction that was accepted).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time

T_START = time.perf_counter()

import vortexlink  # noqa: E402
import vortexlink.cli as cli  # noqa: E402  (the import is what cli.import_s times)

IMPORT_S = time.perf_counter() - T_START


def _fft_bytes(args, kwargs, out):
    return args[0].nbytes + out.nbytes


def _points(args, kwargs, out):
    return len(args[2])


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# (module, attribute, span name, per-call count)
TRACED = (
    ("operators", "rfft3", "operators.fft", _fft_bytes),
    ("operators", "irfft3", "operators.fft", _fft_bytes),
    ("operators", "ext_d", "operators.ext_d", None),
    ("operators", "codiff", "operators.codiff", None),
    ("operators", "curl_inv", "operators.curl_inv", None),
    ("operators", "laplace_inv", "operators.laplace_inv", None),
    ("operators", "wedge", "operators.wedge", None),
    ("massey", "_precondition", "massey.precondition", None),
    ("massey", "solve_primitive", "massey.solve_primitive", None),
    ("massey", "MaskedDomain.build", "massey.masked_domain", None),
    ("massey", "distance_to_curve_field", "massey.distance_to_curve_field", None),
    ("massey", "bianchi_residual", "massey.bianchi_residual", None),
    ("massey", "involution_report", "massey.involution_report", None),
    ("tubes", "_Depositor.add", "tubes.deposit", lambda a, k, o: 1),
    ("tubes", "disc_dual_1form", "tubes.disc_dual_1form", None),
    ("tubes", "LinkFields.build", "tubes.link_fields", None),
    ("tubes", "meridian_period", "tubes.meridian_period", None),
    ("interpolate", "trilinear", "interpolate.trilinear", _points),
    ("linking", "gauss_linking", "linking.gauss_linking", None),
    ("linking", "find_crossings", "linking.find_crossings", lambda a, k, o: 1),
    ("diagrams", "mu_bar", "diagrams.mu_bar", None),
    ("comomentum", "f1", "comomentum.f1", None),
    ("comomentum", "f2", "comomentum.f2", None),
    ("random_fields", "tower_pair", "random_fields", None),
    ("random_fields", "tower_triple", "random_fields", None),
    ("random_fields", "random_vector_field", "random_fields", None),
    ("fieldio", "write_vtk", "fieldio.write_vtk", _file_bytes),
    ("fieldio", "write_vlf", "fieldio.write_vlf", _file_bytes),
    ("scenes", "load_scene", "scenes.load_scene", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if count is not None:
                row[4] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        for info in pkgutil.iter_modules(vortexlink.__path__):
            importlib.import_module(f"vortexlink.{info.name}")
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "vortexlink"]
        for mod_name, attr, name, count in TRACED:
            owner = sys.modules[f"vortexlink.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, count))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
