"""VLF1 binary and VTK text export."""

import json
from pathlib import Path

import numpy as np

from vortexlink import cli
from vortexlink.fieldio import _CHUNK_ROWS, _COMPONENT_NAMES, read_vlf, write_vlf, write_vtk
from vortexlink.grid import FORM_COMPONENTS, Grid3, GridField, VectorField
from vortexlink.random_fields import random_form, random_vector_field

# split_triple(tube_radius=0.42) at N = 48: an export in about a second
SPLIT_TRIPLE_N48 = Path(__file__).resolve().parent / "golden" / "split_triple_n48_scene.json"


def test_vlf_roundtrip_form(tmp_path, rng):
    g = Grid3(16, 2.5)
    f = random_form(g, 2, rng, kmax=3)
    path = tmp_path / "field.vlf"
    write_vlf(path, f)
    back = read_vlf(path)
    assert isinstance(back, GridField)
    assert back.degree == 2
    assert back.grid == g
    assert np.array_equal(back.comps, f.comps)


def test_vlf_roundtrip_vector(tmp_path, rng):
    g = Grid3(16, 1.0)
    v = random_vector_field(g, rng, kmax=3)
    path = tmp_path / "vec.vlf"
    write_vlf(path, v)
    back = read_vlf(path)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.comps, v.comps)


def test_vlf_magic(tmp_path):
    path = tmp_path / "header.vlf"
    g = Grid3(16, 1.0)
    write_vlf(path, GridField.zeros(g, 0))
    raw = path.read_bytes()
    assert raw[:4] == b"VLF1"
    # uint32 N, float64 L, int32 degree, uint32 ncomp, then doubles
    assert len(raw) == 4 + 20 + 16**3 * 8


def test_vtk_structure(tmp_path, rng):
    g = Grid3(16, 2.0)
    f = random_form(g, 1, rng, kmax=2)
    path = tmp_path / "form.vtk"
    write_vtk(path, f, name="beta")
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in text
    assert f"POINT_DATA {16**3}" in text
    scalars = [line for line in text if line.startswith("SCALARS")]
    assert len(scalars) == 3  # one block per 1-form component
    v = random_vector_field(g, rng, kmax=2)
    vpath = tmp_path / "vec.vtk"
    write_vtk(vpath, v, name="xi")
    vtext = vpath.read_text().splitlines()
    vectors = [line for line in vtext if line.startswith("VECTORS")]
    assert len(vectors) == 1


def test_vtk_ordering(tmp_path):
    # VTK iterates x fastest: the value at (i,j,k) lands at i + N*(j + N*k)
    g = Grid3(16, 2.0)
    f = GridField.zeros(g, 0)
    f.comps[0, 3, 5, 7] = 42.0
    path = tmp_path / "order.vtk"
    write_vtk(path, f)
    lines = path.read_text().splitlines()
    start = lines.index("LOOKUP_TABLE default") + 1
    values = lines[start:]
    assert float(values[3 + 16 * (5 + 16 * 7)]) == 42.0


def _write_vtk_lines(path, field, name="field"):
    """The line-list VTK writer that write_vtk replaced, kept as the reference."""
    grid = field.grid
    n, h = grid.n_points, grid.spacing
    origin = -grid.box_length / 2
    lines = [
        "# vtk DataFile Version 3.0",
        name,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {n} {n} {n}",
        f"ORIGIN {origin:.17g} {origin:.17g} {origin:.17g}",
        f"SPACING {h:.17g} {h:.17g} {h:.17g}",
        f"POINT_DATA {n**3}",
    ]

    def flat(a):
        return a.transpose(2, 1, 0).reshape(-1)

    if isinstance(field, VectorField):
        lines.append(f"VECTORS {name} double")
        vx, vy, vz = (flat(c) for c in field.comps)
        lines.extend(f"{a:.17g} {b:.17g} {c:.17g}" for a, b, c in zip(vx, vy, vz))
    else:
        for comp, cname in zip(field.comps, _COMPONENT_NAMES[field.degree]):
            lines.append(f"SCALARS {name}_{cname} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in flat(comp))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _vtk_order(flat, n):
    """Component array whose VTK (x fastest) flattening is `flat`."""
    return flat.reshape(n, n, n).transpose(2, 1, 0)


def test_vtk_bytes_match_line_writer(tmp_path, rng):
    # N = 20: blocks of 8000 rows, so every block spans a full chunk and a
    # shorter last one
    g = Grid3(20, 2.0)
    size = g.n_points**3
    assert _CHUNK_ROWS < size < 2 * _CHUNK_ROWS
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.0, 1.0 / 3.0])
    dense = rng.standard_normal((3,) + g.shape) * 10.0 ** rng.integers(-300, 300, (3,) + g.shape)
    dense.reshape(3, -1)[:, : special.size] = special
    # VTK order: whole chunks of +0.0; a lone -0.0 in an otherwise zero
    # chunk; nan and +-inf; a nonzero last value
    sparse = np.zeros((3, size))
    sparse[1, 1234] = -0.0
    sparse[1, [_CHUNK_ROWS + 5, _CHUNK_ROWS + 6, _CHUNK_ROWS + 7]] = [np.nan, np.inf, -np.inf]
    sparse[2, -1] = 2.5
    sparse = np.stack([_vtk_order(c, g.n_points) for c in sparse])
    # sparse[[0, 0, 2]] has a zero first VECTORS chunk
    fields = [VectorField(g, sparse[[0, 0, 2]])]
    for comps in (dense, sparse):
        fields.append(VectorField(g, comps.copy()))
        fields.extend(GridField(g, k, comps[: FORM_COMPONENTS[k]].copy()) for k in range(4))
    for i, f in enumerate(fields):
        new, old = tmp_path / f"new{i}.vtk", tmp_path / f"old{i}.vtk"
        write_vtk(new, f, name="w")
        _write_vtk_lines(old, f, name="w")
        assert new.read_bytes() == old.read_bytes()


def _export(out, monkeypatch, cwd):
    monkeypatch.chdir(cwd)
    assert cli.main(["export", "--scene", str(SPLIT_TRIPLE_N48), "--out", out]) == 0


def test_export_vtk_matches_line_writer(tmp_path, monkeypatch):
    _export(str(tmp_path), monkeypatch, tmp_path)
    names = ["omega_1", "omega_2", "omega_3", "velocity_primitive"]
    report = json.loads((tmp_path / "export_report.json").read_text())
    assert report["written"] == sorted(f"{b}.{e}" for b in names for e in ("vlf", "vtk"))
    for name in names:
        ref = tmp_path / f"{name}.ref"
        _write_vtk_lines(ref, read_vlf(tmp_path / f"{name}.vlf"), name=name)
        assert (tmp_path / f"{name}.vtk").read_bytes() == ref.read_bytes()


def test_export_report_ignores_out_spelling(tmp_path, monkeypatch):
    reports = []
    for out in ("out", "./out/", str(tmp_path / "out")):
        _export(out, monkeypatch, tmp_path)
        reports.append((tmp_path / "out" / "export_report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
