"""Shipped scene fixtures and built-in scenes pass the scene gate."""

from pathlib import Path

import numpy as np
import pytest

from vortexlink.curves import as_polygon, borromean_rings, pairwise_d2, split_triple
from vortexlink.diagrams import diagram_from_doc, diagram_to_doc
from vortexlink.errors import SceneError
from vortexlink.grid import Grid3
from vortexlink.massey import MasseyConfig
from vortexlink.scenes import grid_config, load_scene, read_json, tolerance_config
from vortexlink.tubes import meridian_torus_panels, validate_scene

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCENES = ("borromean.json", "hopf.json", "split.json", "split_triple.json")
DIAGRAMS = ("borromean_diagram.json", "hopf_diagram.json")


def test_every_fixture_is_checked():
    shipped = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert shipped == sorted(SCENES + DIAGRAMS)


@pytest.mark.parametrize("name", SCENES)
def test_scene_fixture_validates_on_its_grid(name):
    grid, link = load_scene(FIXTURES / name)
    validate_scene(link, grid, MasseyConfig())


@pytest.mark.parametrize("name", DIAGRAMS)
def test_diagram_fixture_validates(name):
    doc = read_json(FIXTURES / name)
    # the fixture is in the document layout the oracle report echoes
    assert diagram_to_doc(diagram_from_doc(doc)) == doc


@pytest.mark.parametrize("n, tube_radius", [(96, 0.2), (96, 0.42), (48, 0.42)])
def test_split_triple_is_a_valid_massey_scene(n, tube_radius):
    grid = Grid3(n, 2 * np.pi)
    # the default meridian tori clear every neighbouring tube support
    validate_scene(split_triple(tube_radius=tube_radius), grid, MasseyConfig())


def test_config_readers_without_a_file():
    # no --config: the default grid, and no tolerance overridden
    assert grid_config(None) == Grid3(96, 2 * np.pi)
    assert tolerance_config(None) == {}


def test_half_box_violation_is_a_scene_error():
    # s = 1.7 exceeds L/4 = 1.571 at L = 2 pi
    with pytest.raises(SceneError, match="half-box"):
        validate_scene(split_triple(separation=1.7), Grid3(96, 2 * np.pi))


def test_pairwise_d2_matches_the_summed_squares_bitwise():
    # the reference is the expression the distance checks used before: a
    # (P, Q, 3) difference array summed over its last axis
    def reference(a, b):
        return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)

    polys = [as_polygon(c) for c in borromean_rings().components]
    # min_distance's refined samples: 1156 points per component
    fine = [p.refined(p.length() / (4 * p.n_vertices)).vertices for p in polys]
    centers, _, _ = meridian_torus_panels(borromean_rings().components[0], 0.2, (16, 64))
    pairs = [(fine[0], fine[1]), (fine[0], fine[2]), (fine[1], fine[2]),
             (centers, polys[1].vertices)]
    for a, b in pairs:
        assert pairwise_d2(a, b).tobytes() == reference(a, b).tobytes()
