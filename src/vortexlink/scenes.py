"""Link-scene documents (schema "vlink-1") and the config sections."""

from __future__ import annotations

import json
import sys

import numpy as np

from .constants import DEFAULT_TOLERANCES, TOWER_MIN_N
from .curves import Link, PlanarCurve, PolygonalCurve, TubeParams, circle
from .errors import SceneError
from .grid import Grid3
from .reports import dump_report

SCENE_SCHEMA = "vlink-1"


def _require(doc, key, where="scene"):
    if key not in doc:
        raise SceneError(f"{where} document is missing the {key!r} key")
    return doc[key]


def _object(value, what) -> dict:
    """A JSON object of a scene, diagram or config document, else SceneError."""
    if not isinstance(value, dict):
        raise SceneError(f"{what} must be a JSON object, got {value!r}")
    return value


def _only(value, keys, what) -> dict:
    """A JSON object holding none but the given keys, else SceneError."""
    bad = sorted(set(_object(value, what)) - set(keys))
    if bad:
        raise SceneError(f"{what} may hold only {sorted(keys)}, got {bad}")
    return value


def _array(value, what) -> list:
    """A JSON array of a scene or diagram document, else SceneError."""
    if not isinstance(value, list):
        raise SceneError(f"{what} must be a JSON array, got {value!r}")
    return value


def _finite(value) -> bool:
    """True for a number within the float range (no bool, NaN or huge int)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _number(value, what, whole=False):
    """A finite, non-bool number of a scene or config document (a whole one
    when `whole`), else SceneError."""
    if not _finite(value):
        raise SceneError(f"{what} must be a finite number, got {value!r}")
    if whole and not float(value).is_integer():
        raise SceneError(f"{what} must be a whole number, got {value!r}")
    return value


def _vector(value, what) -> np.ndarray:
    """Three finite numbers of a scene document, else SceneError."""
    if not (isinstance(value, list) and len(value) == 3 and all(map(_finite, value))):
        raise SceneError(f"{what} must be three finite numbers, got {value!r}")
    return np.array(value, dtype=float)


# the keys each component type may hold
_COMPONENT_KEYS = {
    "circle": ("type", "center", "normal", "radius", "phase", "samples", "reverse"),
    "ellipse": ("type", "center", "axis_u", "axis_v", "phase", "samples", "reverse"),
    "polygon": ("type", "vertices", "reverse"),
}


def component_from_doc(doc) -> PlanarCurve | PolygonalCurve:
    kind = _require(doc, "type", "component")
    if not isinstance(kind, str) or kind not in _COMPONENT_KEYS:
        raise SceneError(f"unknown component type {kind!r}")
    _only(doc, _COMPONENT_KEYS[kind], kind)

    def vector(key):
        return _vector(_require(doc, key, kind), f"{kind} {key}")

    if kind in ("circle", "ellipse"):
        n_samples = int(_number(doc.get("samples", 256), f"{kind} samples", whole=True))
        if n_samples < 8:
            raise SceneError(f"{kind} samples must be at least 8, got {n_samples}")
        phase = float(_number(doc.get("phase", 0.0), f"{kind} phase"))
    if kind == "circle":
        radius = float(_number(_require(doc, "radius", kind), "circle radius"))
        if not radius > 0:
            raise SceneError(f"circle radius must be positive, got {radius}")
        c = circle(vector("center"), vector("normal"), radius, phase, n_samples)
    elif kind == "ellipse":
        c = PlanarCurve(vector("center"), vector("axis_u"), vector("axis_v"), phase, n_samples)
    else:
        vertices = _array(_require(doc, "vertices", kind), "polygon vertices")
        c = PolygonalCurve(np.array([_vector(v, "polygon vertex") for v in vertices]))
    reverse = doc.get("reverse", False)
    if not isinstance(reverse, bool):
        raise SceneError(f"{kind} reverse must be true or false, got {reverse!r}")
    return c.reversed() if reverse else c


def component_to_doc(c) -> dict:
    if isinstance(c, PlanarCurve):
        return {
            "type": "ellipse",
            "center": c.center.tolist(),
            "axis_u": c.axis_u.tolist(),
            "axis_v": c.axis_v.tolist(),
            "phase": c.phase,
            "samples": c.n_samples,
        }
    return {"type": "polygon", "vertices": c.vertices.tolist()}


def scene_from_doc(doc) -> tuple[Grid3, Link]:
    doc = _object(doc, "scene")
    if doc.get("schema") != SCENE_SCHEMA:
        raise SceneError(f"expected schema {SCENE_SCHEMA!r}, got {doc.get('schema')!r}")
    _only(doc, ("schema", "box", "tube", "components"), "scene")
    box = _only(_require(doc, "box"), ("N", "L"), "box")
    grid = Grid3(int(_number(_require(box, "N", "box"), "box N", whole=True)),
                 float(_number(_require(box, "L", "box"), "box L")))
    tube_doc = _only(_require(doc, "tube"), ("radius", "flux"), "tube")
    tube = TubeParams(
        float(_number(_require(tube_doc, "radius", "tube"), "tube radius")),
        float(_number(tube_doc.get("flux", 1.0), "tube flux")),
    )
    comps = [component_from_doc(_object(c, "component"))
             for c in _array(_require(doc, "components"), "components")]
    if not comps:
        raise SceneError("scene has no components")
    return grid, Link(comps, tube)


def read_json(path):
    """The JSON document in a file; a file that is not JSON raises SceneError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SceneError(
                f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except ValueError as e:  # not UTF-8 text, or an integer too long to read
            raise SceneError(f"unreadable JSON: {e}") from None


def load_scene(path) -> tuple[Grid3, Link]:
    return scene_from_doc(read_json(path))


def scene_to_doc(grid: Grid3, link: Link) -> dict:
    return {
        "schema": SCENE_SCHEMA,
        "box": {"N": grid.n_points, "L": grid.box_length},
        "tube": {"radius": link.tube.radius, "flux": link.tube.flux},
        "components": [component_to_doc(c) for c in link.components],
    }


def dump_scene(path, grid: Grid3, link: Link) -> None:
    dump_report(path, scene_to_doc(grid, link))


# -- config files: each command that takes one reads one section --------------

def grid_config(path) -> Grid3:
    """The grid of a `comomentum` config file, {"grid": {"N": ..., "L": ...}}
    (None: no file).  N defaults to 96 and must be at least
    constants.TOWER_MIN_N (30), the least grid that resolves the tower's
    products, so a smaller one is refused before any field is drawn; L
    defaults to 2 pi."""
    doc = {} if path is None else read_json(path)
    grid = _only(_only(doc, {"grid"}, "config").get("grid", {}), {"N", "L"}, "grid")
    n = int(_number(grid.get("N", 96), "grid N", whole=True))
    if n < TOWER_MIN_N:
        raise SceneError(f"grid N must be at least {TOWER_MIN_N}, got {n}")
    return Grid3(n, float(_number(grid.get("L", 2 * np.pi), "grid L")))


def tolerance_config(path) -> dict:
    """The tolerances a `massey` config file (None: no file) sets: positive
    numbers under keys of constants.DEFAULT_TOLERANCES, cg_maxiter whole."""
    doc = {} if path is None else read_json(path)
    tols = _only(_only(doc, {"tolerances"}, "config").get("tolerances", {}),
                 DEFAULT_TOLERANCES, "tolerances")
    out = {}
    for k, val in tols.items():
        whole = k == "cg_maxiter"
        if not _number(val, f"tolerance {k}", whole=whole) > 0:
            raise SceneError(f"tolerance {k} must be positive")
        out[k] = int(val) if whole else float(val)
    return out
