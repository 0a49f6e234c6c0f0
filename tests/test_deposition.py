"""The batched scatter kernel gives the bits of the per-point loops it replaced.

`tubes._Depositor.add` and `massey.distance_to_curve_field` work on chunks of
points.  Each property test below keeps the per-point loop as the reference
and requires bitwise equality (compared as uint64) on random points anywhere
in the box, so the wrapped boxes at the faces are covered too.
"""

import hashlib
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vortexlink.curves import PolygonalCurve, split_triple
from vortexlink import tubes
from vortexlink.grid import Grid3
from vortexlink.massey import MasseyHierarchy, distance_to_curve_field
from vortexlink.tubes import _BUMP_POWER, _Depositor, mollifier_normalization

L = 2 * np.pi


def _box(grid, reach):
    """The per-point box of the reference loops: offsets and node offsets."""
    h = grid.spacing
    offs = np.arange(min(int(np.ceil(2 * reach / h)) + 2, grid.n_points))
    return offs, offs[:, None, None] * h, offs[None, :, None] * h, offs[None, None, :] * h


def _around(grid, reach, box, point):
    """(index selector, squared node distances) of one point, as the loop did."""
    n, h = grid.n_points, grid.spacing
    offs, dx, dy, dz = box
    base = np.floor((point + grid.box_length / 2 - reach) / h).astype(np.int64)
    cx, cy, cz = (-grid.box_length / 2 + base * h) - point
    d2 = (dx + cx) ** 2 + (dy + cy) ** 2 + (dz + cz) ** 2
    sel = np.ix_((base[0] + offs) % n, (base[1] + offs) % n, (base[2] + offs) % n)
    return sel, d2


def reference_deposit(grid, radius, points, weights):
    """One bump per point, added point by point over the whole box."""
    box = _box(grid, radius)
    norm = mollifier_normalization(radius)
    data = np.zeros((weights.shape[1],) + grid.shape)
    for point, w in zip(points, weights):
        sel, d2 = _around(grid, radius, box, point)
        u2 = d2 / (radius * radius)
        np.minimum(u2, 1.0, out=u2)
        vals = (1.0 - u2) ** _BUMP_POWER * norm
        for c, wc in enumerate(w):
            if wc != 0.0:
                data[c][sel] += wc * vals
    return data


def reference_distance(grid, curve, reach):
    """Distance field with one buffered minimum per polygon vertex."""
    box = _box(grid, reach)
    d2 = np.full(grid.shape, (10 * reach) ** 2)
    for p in curve.refined(grid.spacing / 2).vertices:
        sel, dist2 = _around(grid, reach, box, p)
        np.minimum(d2[sel], dist2, out=dist2)
        d2[sel] = dist2
    return np.sqrt(d2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


coordinate = st.floats(min_value=-L / 2, max_value=L / 2, allow_nan=False)
point = st.tuples(coordinate, coordinate, coordinate)
weight = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0, allow_nan=False))
# box nodes per chunk: one point per chunk, a few points, and the default
chunk_nodes = st.sampled_from([1, 5000, tubes._CHUNK_NODES])


@st.composite
def deposits(draw):
    n = draw(st.sampled_from([16, 24, 32]))
    h = L / n
    radius = draw(st.floats(min_value=3 * h, max_value=L / 4))
    n_channels = draw(st.sampled_from([1, 3]))
    pts = draw(st.lists(point, min_size=1, max_size=24))
    w = draw(st.lists(st.tuples(*[weight] * n_channels), min_size=len(pts),
                      max_size=len(pts)))
    return Grid3(n, L), radius, np.array(pts), np.array(w).reshape(len(pts), n_channels)


@settings(max_examples=60, deadline=None)
@given(deposits(), chunk_nodes)
def test_depositor_matches_point_loop(case, nodes):
    grid, radius, pts, w = case
    with mock.patch.object(tubes, "_CHUNK_NODES", nodes):
        dep = _Depositor(grid, radius, w.shape[1])
    dep.add(pts, w)
    ref = reference_deposit(grid, radius, pts, w)
    assert np.array_equal(_bits(dep.data), _bits(ref))


@st.composite
def polygons(draw):
    n = draw(st.sampled_from([16, 24, 32]))
    h = L / n
    # up to 0.6 L, so the box is capped at the grid width
    reach = draw(st.floats(min_value=3 * h, max_value=0.6 * L))
    # a small polygon anywhere in the box, so it may straddle a face
    centre = np.array(draw(point))
    offset = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
    verts = draw(st.lists(st.tuples(offset, offset, offset), min_size=8, max_size=12))
    return Grid3(n, L), reach, centre + np.array(verts)


@settings(max_examples=40, deadline=None)
@given(polygons(), chunk_nodes)
def test_distance_field_matches_vertex_loop(case, nodes):
    grid, reach, verts = case
    assume(np.all(np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1) > 0))
    curve = PolygonalCurve(verts)
    with mock.patch.object(tubes, "_CHUNK_NODES", nodes):
        got = distance_to_curve_field(grid, curve, reach)
    assert np.array_equal(_bits(got), _bits(reference_distance(grid, curve, reach)))


# SHA-256 of the little-endian float64 bytes, recorded with the per-point loops
SPLIT_TRIPLE_N48 = {
    "v1": "cbebed40ae51bc09fa487f2500f8057bca37e903188c82f57c4d6e82960f73c3",
    "v2": "faaf76e01a9b994983fd80fc14f915d5dbb1021438ff64cd3180f0220249ee0e",
    "v3": "7a06e61d8468b1793cbaaf5e18b21745d5dc9a8069f175e6198784c3696d3cd0",
    "mask": "f3d03966fb001c70d18d509e8f8212ceb568486d77560b520dab397e58c0a9fe",
    "core": "8caf6654da3889ba0ce2b5bf39d8ae5cd6db6720890df12c142bd457470f09b7",
    "xi1": "a313369b8626cf9008a30c994d91ac3e6cb23da735fa463af3d51a256627bcd8",
    "xi2": "abebc298dd52f26f47073f5a8260832444685e4c2a4083e88c92f6ec604e3112",
    "xi3": "3e92b070597e134d9285b2c6210444a290f0b0560b60c9aa75ba247722328627",
}


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_split_triple_fields_are_byte_identical():
    h = MasseyHierarchy.from_scene(split_triple(tube_radius=0.42), Grid3(48, L))
    got = {f"v{i}": _sha(h.v[(i,)].comps) for i in (1, 2, 3)}
    got["mask"] = _sha(h.dom.mask)
    got["core"] = _sha(h.dom.core)
    # xi_i = *omega_i is a view of the tube form, which the hierarchy
    # deposits afresh whenever it is read
    got.update({f"xi{k}": _sha(h.tube_form(k).comps) for k in (1, 2, 3)})
    assert got == SPLIT_TRIPLE_N48
