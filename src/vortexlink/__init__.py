"""Spectral exterior calculus, vortex helicity and higher-order linking
numbers on the periodic box, with a combinatorial Milnor-invariant oracle."""

from .grid import Grid3, GridField
from .curves import (
    Link,
    PlanarCurve,
    PolygonalCurve,
    TubeParams,
    borromean_rings,
    circle,
    hopf_link,
    split_link,
    split_triple,
)

__all__ = [
    "Grid3",
    "GridField",
    "Link",
    "PlanarCurve",
    "PolygonalCurve",
    "TubeParams",
    "borromean_rings",
    "circle",
    "hopf_link",
    "split_link",
    "split_triple",
]

__version__ = "0.1.0"
