"""Field export: legacy VTK structured-points text and VLF1 flat binary.

VLF1 layout (little endian):
    bytes 0-3   magic "VLF1"
    uint32      N (points per axis)
    float64     L (box length)
    int32       degree (0..3)
    uint32      component count
    float64[]   components, C order, one block per component
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import FORM_COMPONENTS, Grid3, GridField

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


def write_vlf(path, field: GridField) -> None:
    grid, comps = field.grid, field.comps
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IdiI", grid.n_points, grid.box_length,
                             field.degree, comps.shape[0]))
        fh.write(np.ascontiguousarray(comps, dtype="<f8").tobytes())


def read_vlf(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        n, L, degree, ncomp = struct.unpack("<IdiI", fh.read(20))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(ncomp, n, n, n)
    if degree not in FORM_COMPONENTS:
        raise ValueError(f"degree {degree} is not a form degree 0..3")
    grid = Grid3(n, L)
    if ncomp != FORM_COMPONENTS[degree]:
        raise ValueError(f"degree {degree} with {ncomp} components")
    return GridField(grid, degree, data.copy())


def write_vtk(path, field: GridField, name="field") -> None:
    """ASCII legacy VTK structured points; one SCALARS block per form
    component, each value as "%.17g".

    Each block is copied once into VTK order (x fastest), written before
    the next is made, and walked in chunks of _CHUNK_ROWS values (the last
    one shorter).  A chunk is formatted by one % call on a format string of
    its rows, which gives the bytes "{:.17g}".format gives for every double.
    A chunk whose bit patterns are all zero holds only +0.0, which formats
    as "0", so it is written as a prebuilt run of zero rows; -0.0 has its
    sign bit set, so a chunk holding it is formatted ("-0").
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
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for comp, cname in zip(field.comps, _COMPONENT_NAMES[field.degree]):
            fh.write(f"SCALARS {name}_{cname} double 1\nLOOKUP_TABLE default\n")
            # (x, y, z) in C order, copied once into (z, y, x) order
            _write_values(fh, comp.transpose(2, 1, 0).ravel())


def _write_values(fh, values) -> None:
    """Write a flat float64 array as "%.17g" text rows, chunk by chunk (see
    write_vtk)."""
    for start in range(0, values.size, _CHUNK_ROWS):
        chunk = values[start:start + _CHUNK_ROWS]
        if chunk.view(np.uint64).any():
            fh.write("%.17g\n" * chunk.size % tuple(chunk.tolist()))
        else:
            fh.write("0\n" * chunk.size)
