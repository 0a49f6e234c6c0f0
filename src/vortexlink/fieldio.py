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
    component, a VECTORS block for vector fields.  Each block is formatted
    from Python floats in one pass and written before the next is made."""
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
    # VTK structured points iterate x fastest: transpose from (x,y,z) C order
    def flat(a):
        return a.transpose(2, 1, 0).reshape(-1).tolist()

    with open(path, "w") as fh:

        def block(title, lines):
            fh.write(title + "\n")
            fh.write("\n".join(lines))
            fh.write("\n")

        fh.write("\n".join(header) + "\n")
        if isinstance(field, VectorField):
            row = "{:.17g} {:.17g} {:.17g}".format
            block(f"VECTORS {name} double", map(row, *(flat(c) for c in field.comps)))
        else:
            for comp, cname in zip(field.comps, _COMPONENT_NAMES[field.degree]):
                block(f"SCALARS {name}_{cname} double 1\nLOOKUP_TABLE default",
                      map("{:.17g}".format, flat(comp)))
