"""Link-scene documents (schema "vlink-1") and run configuration."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_TOLERANCES
from .curves import Link, PlanarCurve, PolygonalCurve, TubeParams, circle
from .errors import SceneError
from .grid import Grid3
from .reports import report_text

SCENE_SCHEMA = "vlink-1"


def _require(doc, key, where="scene"):
    if key not in doc:
        raise SceneError(f"{where} document is missing the {key!r} key")
    return doc[key]


def _object(value, what) -> dict:
    """A JSON object of a scene, diagram or config document, else
    SceneError."""
    if not isinstance(value, dict):
        raise SceneError(f"{what} must be a JSON object, got {value!r}")
    return value


def _array(value, what) -> list:
    """A JSON array of a scene or diagram document, else SceneError."""
    if not isinstance(value, list):
        raise SceneError(f"{what} must be a JSON array, got {value!r}")
    return value


def _finite(value) -> bool:
    """True for a finite JSON number (a bool is not one)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


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


def component_from_doc(doc) -> PlanarCurve | PolygonalCurve:
    kind = _require(doc, "type", "component")

    def vector(key):
        return _vector(_require(doc, key, kind), f"{kind} {key}")

    if kind in ("circle", "ellipse"):
        n_samples = int(_number(doc.get("samples", 256), f"{kind} samples", whole=True))
        if n_samples < 8:
            raise SceneError(f"{kind} samples must be at least 8, got {n_samples}")
        phase = float(_number(doc.get("phase", 0.0), f"{kind} phase"))
    if kind == "circle":
        radius = float(_number(_require(doc, "radius", kind), "circle radius"))
        c = circle(vector("center"), vector("normal"), radius, phase, n_samples)
    elif kind == "ellipse":
        c = PlanarCurve(vector("center"), vector("axis_u"), vector("axis_v"), phase, n_samples)
    elif kind == "polygon":
        c = PolygonalCurve(np.asarray(_require(doc, "vertices", "polygon"), dtype=float))
    else:
        raise SceneError(f"unknown component type {kind!r}")
    return c.reversed() if doc.get("reverse") else c


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
    box = _object(_require(doc, "box"), "box")
    grid = Grid3(int(_number(_require(box, "N", "box"), "box N", whole=True)),
                 float(_number(_require(box, "L", "box"), "box L")))
    tube_doc = _object(_require(doc, "tube"), "tube")
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
    """The JSON document in a file; malformed JSON raises SceneError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SceneError(
                f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None


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
    with open(path, "w") as fh:
        fh.write(report_text(scene_to_doc(grid, link)))


@dataclass
class Config:
    """Run configuration with documented defaults.  `tolerances` holds the
    four keys of constants.DEFAULT_TOLERANCES, the only ones a config may
    set."""

    grid_n: int = 96
    grid_l: float = 2 * np.pi
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 0

    @classmethod
    def from_doc(cls, doc) -> "Config":
        cfg = cls()
        grid = _object(_object(doc, "config").get("grid", {}), "grid")
        cfg.grid_n = int(_number(grid.get("N", cfg.grid_n), "grid N", whole=True))
        cfg.grid_l = float(_number(grid.get("L", cfg.grid_l), "grid L"))
        tols = _object(doc.get("tolerances", {}), "tolerances")
        bad = set(tols) - set(cfg.tolerances)
        if bad:
            raise SceneError(f"unknown tolerance keys: {sorted(bad)}")
        for k, val in tols.items():
            if not _number(val, f"tolerance {k}", whole=k == "cg_maxiter") > 0:
                raise SceneError(f"tolerance {k} must be positive")
            cfg.tolerances[k] = float(val)
        cfg.seed = int(_number(doc.get("seed", 0), "seed", whole=True))
        if cfg.grid_n < 16:
            raise SceneError("grid N must be at least 16")
        return cfg

    @classmethod
    def load(cls, path) -> "Config":
        if path is None:
            return cls()
        return cls.from_doc(read_json(path))
