"""Field export: legacy VTK structured-points text and VLF1 flat binary.

VLF1 layout (little endian):
    bytes 0-3   magic "VLF1"
    uint32      N (points per axis)
    float64     L (box length)
    int32       degree (0..3 for forms, -1 for a vector field)
    uint32      component count
    float64[]   components, C order, one block per component
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import FORM_COMPONENTS, Grid3, GridField, VectorField

_MAGIC = b"VLF1"

# rows per formatted VTK chunk: a few thousand keeps each % call's tuple and
# string small while most chunks of a tube 2-form are all zero
_CHUNK_ROWS = 4096

_COMPONENT_NAMES = {
    0: ("value",),
    1: ("dx", "dy", "dz"),
    2: ("dy_dz", "dz_dx", "dx_dy"),
    3: ("dx_dy_dz",),
}


def write_vlf(path, field) -> None:
    grid = field.grid
    if isinstance(field, VectorField):
        degree, comps = -1, field.comps
    else:
        degree, comps = field.degree, field.comps
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IdiI", grid.n_points, grid.box_length,
                             degree, comps.shape[0]))
        fh.write(np.ascontiguousarray(comps, dtype="<f8").tobytes())


def read_vlf(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        n, L, degree, ncomp = struct.unpack("<IdiI", fh.read(20))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(ncomp, n, n, n)
    grid = Grid3(n, L)
    if degree == -1:
        return VectorField(grid, data.copy())
    if ncomp != FORM_COMPONENTS[degree]:
        raise ValueError(f"degree {degree} with {ncomp} components")
    return GridField(grid, degree, data.copy())


def write_vtk(path, field, name="field") -> None:
    """ASCII legacy VTK structured points; one SCALARS block per form
    component, a VECTORS block for vector fields, each value as "%.17g".

    Each block is copied once into rows (x fastest, as VTK iterates), written
    before the next is made, and walked in chunks of _CHUNK_ROWS rows (the
    last one shorter).  A chunk is formatted by one % call on a format
    string of its rows, which gives the bytes "{:.17g}".format gives for
    every double.  A chunk whose bit patterns are all zero holds only +0.0,
    which formats as "0", so it is written as a prebuilt run of zero rows;
    -0.0 has its sign bit set, so a chunk holding it is formatted ("-0").
    """
    grid = field.grid
    n, h = grid.n_points, grid.spacing
    origin = -grid.box_length / 2
    header = [
        "# vtk DataFile Version 3.0",
        name,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {n} {n} {n}",
        f"ORIGIN {origin:.17g} {origin:.17g} {origin:.17g}",
        f"SPACING {h:.17g} {h:.17g} {h:.17g}",
        f"POINT_DATA {n**3}",
    ]
    # VTK structured points iterate x fastest: (C, x, y, z) in C order becomes
    # one (z, y, x) row of C values per point, copied once
    def rows(comps):
        return comps.transpose(3, 2, 1, 0).reshape(-1, comps.shape[0])

    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        if isinstance(field, VectorField):
            fh.write(f"VECTORS {name} double\n")
            _write_rows(fh, rows(field.comps))
        else:
            for comp, cname in zip(field.comps, _COMPONENT_NAMES[field.degree]):
                fh.write(f"SCALARS {name}_{cname} double 1\nLOOKUP_TABLE default\n")
                _write_rows(fh, rows(comp[None]))


def _write_rows(fh, rows) -> None:
    """Write a (count, width) float64 array as text rows of width
    space-separated "%.17g" values, chunk by chunk (see write_vtk)."""
    row_format = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    zero_row = row_format % ((0.0,) * rows.shape[1])
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        if chunk.view(np.uint64).any():
            fh.write(row_format * chunk.shape[0] % tuple(chunk.ravel().tolist()))
        else:
            fh.write(zero_row * chunk.shape[0])
