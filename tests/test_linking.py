"""Gauss quadrature vs crossing combinatorics for linking numbers."""

from pathlib import Path

import numpy as np
import pytest
from conftest import _traced

from vortexlink import linking
from vortexlink.curves import (
    Link,
    PolygonalCurve,
    TubeParams,
    borromean_rings,
    circle,
    hopf_link,
    split_link,
)
from vortexlink.diagrams import diagram_from_curves, scene_diagram
from vortexlink.errors import CurvesIntersect, DegenerateProjection
from vortexlink.linking import find_crossings, gauss_linking, gauss_writhe
from vortexlink.scenes import load_scene

HOPF = hopf_link(centered=False)
DIRS = np.random.default_rng(11).standard_normal((20, 3))


def diagram_counts(curves, direction):
    """The linking matrix and the blackboard framings read off the diagram
    of one projection of all `curves`."""
    d = diagram_from_curves(curves, direction)
    return d.linking_matrix(), [d.self_writhe(c) for c in range(d.n_components)]


def crossing_lk(c1, c2, direction):
    """The crossing linking number of a pair, from its joint projection."""
    matrix, _ = diagram_counts([c1, c2], direction)
    return matrix[0][1]


def test_hopf_gauss_vs_crossing():
    c1, c2 = HOPF.components
    lk = gauss_linking(c1, c2)
    n = crossing_lk(c1, c2, (0.13, 0.21, 0.95))
    assert abs(n) == 1
    assert abs(lk - n) < 1e-3


def test_split_pair_zero():
    c1, c2 = split_link().components
    assert abs(gauss_linking(c1, c2)) < 1e-3
    assert crossing_lk(c1, c2, (0.1, 0.2, 0.97)) == 0


def test_borromean_pairs_zero():
    comps = borromean_rings().components
    matrix, framing = diagram_counts(comps, (0.11, 0.23, 0.96))
    assert matrix == [[0] * 3] * 3
    assert framing == [0] * 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(gauss_linking(comps[i], comps[j])) < 1e-3


def test_crossing_direction_independence():
    c1, c2 = HOPF.components
    values = set()
    for d in DIRS:
        try:
            values.add(crossing_lk(c1, c2, d))
        except DegenerateProjection:
            continue
    assert len(values) == 1


def test_orientation_reversal_negates():
    c1, c2 = HOPF.components
    d = (0.17, -0.08, 0.98)
    assert crossing_lk(c1.reversed(), c2, d) == -crossing_lk(c1, c2, d)
    lk = gauss_linking(c1, c2)
    assert abs(gauss_linking(c1.reversed(), c2) + lk) < 2e-3


def test_gauss_symmetry():
    c1, c2 = HOPF.components
    assert gauss_linking(c1, c2) == gauss_linking(c2, c1)


def test_random_circle_pairs_agree(rng):
    made = 0
    while made < 8:
        center = rng.uniform(-1.0, 1.0, size=3)
        normal = rng.standard_normal(3)
        r1, r2 = rng.uniform(0.6, 1.4, size=2)
        c1 = circle((0, 0, 0), (0, 0, 1), r1, n_samples=128)
        c2 = circle(center, normal, r2, n_samples=128)
        try:
            lk = gauss_linking(c1, c2)
            n = scene_diagram(Link([c1, c2], TubeParams(0.1)), rng).linking_matrix()[0][1]
        except (CurvesIntersect, DegenerateProjection):
            continue
        made += 1
        assert abs(lk - n) < 1e-3, (center, normal, r1, r2)


def test_intersecting_curves_rejected():
    c1 = circle((0, 0, 0), (0, 0, 1), 1.0)
    c2 = circle((0, 0, 0), (0, 1, 0), 1.0)  # meets c1 at (+-1, 0, 0)
    with pytest.raises(CurvesIntersect):
        gauss_linking(c1, c2)


def test_degenerate_projection_detected():
    c1 = circle((0, 0, 0), (0, 0, 1), 1.0, n_samples=64)
    c2 = circle((0, 0, 0.5), (0, 0, 1), 1.0, n_samples=64)  # identical shadow
    with pytest.raises(DegenerateProjection):
        find_crossings([c1, c2], (0, 0, 1.0))


def test_planar_convex_curve_framing_and_writhe():
    c = circle((0, 0, 0), (0, 0, 1), 1.0, n_samples=128)
    _, framing = diagram_counts([c], (0.05, -0.03, 0.99))
    assert framing == [0]
    assert abs(gauss_writhe(c)) < 1e-3  # identically zero for planar curves


def figure_eight_curve(z_sign=-1.0, n=160):
    # phase offset keeps the self-crossing away from polygon vertices
    t = 2 * np.pi * (np.arange(n) + 0.37) / n
    verts = np.stack(
        [np.sin(2 * t), np.sin(t), z_sign * 0.3 * np.cos(t)], axis=1
    )
    return PolygonalCurve(verts)


def test_figure_eight_framing():
    c = figure_eight_curve()
    _, framing = diagram_counts([c], (0, 0, 1.0))
    assert framing == [+1]


def test_joint_projection_reads_matrix_and_framings():
    # a Hopf pair beside a figure eight: the pair's linking number and the
    # figure eight's framing come from one projection, unmixed
    c1, c2 = HOPF.components
    eight = figure_eight_curve().translated((0.0, 0.0, 3.0))
    d = (0.02, -0.01, 1.0)
    matrix, framing = diagram_counts([c1, eight, c2], d)
    lk = crossing_lk(c1, c2, d)
    assert abs(lk) == 1
    assert matrix == [[0, 0, lk], [0, 0, 0], [lk, 0, 0]]
    assert framing == [0, +1, 0]


SPLIT_TRIPLE_N48 = Path(__file__).parent / "golden" / "split_triple_n48_scene.json"


def _crossings_or_refusal(curves, direction):
    try:
        return find_crossings(curves, direction)
    except DegenerateProjection:
        return "degenerate"


def test_find_crossings_peak_is_bounded():
    # three 256-sample components: the segment pairs go in blocks, where
    # each component pair's 65,536 pairs at once peaked at 11.85 MB traced
    _, link = load_scene(SPLIT_TRIPLE_N48)
    direction = np.random.default_rng(0).standard_normal(3)
    crossings, base, peak = _traced(lambda: find_crossings(link.components, direction))
    assert len(crossings) == 6
    assert peak - base <= 4e6


@pytest.mark.parametrize("chunk", [1, 1 << 30], ids=["one-row", "whole-pair"])
def test_find_crossings_blocks_keep_crossings_and_order(chunk, monkeypatch):
    # one segment row per block, or every pair of a component pair at once,
    # gives the crossings of the default blocks in the same order
    _, link = load_scene(SPLIT_TRIPLE_N48)
    c1, c2 = HOPF.components
    scenes = [link.components, [c1, figure_eight_curve().translated((0.0, 0.0, 3.0)), c2]]
    directions = np.random.default_rng(1).standard_normal((6, 3))
    want = [_crossings_or_refusal(s, d) for s in scenes for d in directions]
    assert any(w != "degenerate" and len(w) > 0 for w in want)
    monkeypatch.setattr(linking, "_PAIR_CHUNK", chunk)
    assert [_crossings_or_refusal(s, d) for s in scenes for d in directions] == want


def test_knife_edge_crossing_rejected():
    t = 2 * np.pi * np.arange(160) / 160  # vertex exactly at the crossing
    c = PolygonalCurve(np.stack([np.sin(2 * t), np.sin(t), -0.3 * np.cos(t)], axis=1))
    with pytest.raises(DegenerateProjection):
        find_crossings([c], (0, 0, 1.0))


def test_writhe_mirror_negates():
    c = figure_eight_curve()
    mirror = PolygonalCurve(c.vertices * np.array([1.0, 1.0, -1.0]))
    w1 = gauss_writhe(c)
    w2 = gauss_writhe(mirror)
    assert abs(w1 + w2) < 1e-6
