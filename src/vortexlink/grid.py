"""Periodic grid and the field container living on it.

The computational domain is the flat torus [-L/2, L/2)^3 sampled on N^3
points; every analytic object is a GridField, an array of point samples of
a form.  Degree-k forms are stored in the coordinate bases

    k=0: 1            k=1: dx, dy, dz
    k=2: dy^dz, dz^dx, dx^dy            k=3: dx^dy^dz

A vector field x is stored as its flat, the 1-form with the same components
under the Euclidean metric.  The Hodge star is then a pure relabelling of
the component array, and so is iota_x nu = *(x flat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixedGridError, SceneError

FORM_COMPONENTS = {0: 1, 1: 3, 2: 3, 3: 1}


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic N^3 grid on a cube of side `box_length`."""

    n_points: int
    box_length: float

    def __post_init__(self):
        if self.n_points < 8:
            raise SceneError(f"grid N must be at least 8, got {self.n_points}")
        if not self.box_length > 0:
            raise SceneError(f"grid L must be positive, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_points

    @property
    def shape(self):
        n = self.n_points
        return (n, n, n)

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis, box centered at the origin."""
        n, L = self.n_points, self.box_length
        return -L / 2 + L / n * np.arange(n)

    def meshgrid(self):
        x = self.axis()
        return np.meshgrid(x, x, x, indexing="ij")

    def __eq__(self, other):
        return (
            isinstance(other, Grid3)
            and self.n_points == other.n_points
            and math.isclose(self.box_length, other.box_length, rel_tol=1e-14)
        )

    def __hash__(self):
        # equal grids may differ in the last bits of box_length (see __eq__)
        return hash(self.n_points)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise MixedGridError(
            f"grids differ: N={a.grid.n_points},L={a.grid.box_length} vs "
            f"N={b.grid.n_points},L={b.grid.box_length}"
        )


@dataclass
class GridField:
    """A degree-k form sampled on a Grid3; a vector field is the 1-form of
    its flat.

    `comps` has shape (C(3,k), N, N, N) with the component order fixed in the
    module docstring.
    """

    grid: Grid3
    degree: int
    comps: np.ndarray

    def __post_init__(self):
        if self.degree not in FORM_COMPONENTS:
            raise ValueError(f"degree must be 0..3, got {self.degree}")
        self.comps = np.asarray(self.comps, dtype=np.float64)
        want = (FORM_COMPONENTS[self.degree],) + self.grid.shape
        if self.comps.shape != want:
            raise ValueError(f"component shape {self.comps.shape}, expected {want}")

    @classmethod
    def zeros(cls, grid, degree):
        return cls(grid, degree, np.zeros((FORM_COMPONENTS[degree],) + grid.shape))

    @classmethod
    def from_scalar(cls, grid, values, degree=0):
        if degree not in (0, 3):
            raise ValueError("scalar constructor only for degrees 0 and 3")
        return cls(grid, degree, np.asarray(values, dtype=np.float64)[None])

    def copy(self):
        return GridField(self.grid, self.degree, self.comps.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return GridField(self.grid, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        _check_same_grid(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degree")
        return GridField(self.grid, self.degree, self.comps - other.comps)

    def __mul__(self, scalar):
        return GridField(self.grid, self.degree, self.comps * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return GridField(self.grid, self.degree, -self.comps)

    def sup_norm(self) -> float:
        return sup_abs(self.comps)

    def l2_norm(self) -> float:
        """L2 norm with the midpoint-rule measure."""
        return float(np.sqrt(np.sum(self.comps**2) * self.grid.cell_volume))

    def mean(self) -> np.ndarray:
        """Componentwise mean: the harmonic part on the flat torus."""
        return self.comps.reshape(self.comps.shape[0], -1).mean(axis=1)


def sup_abs(a: np.ndarray) -> float:
    """max |a| without an |a| temporary.  On an all-zero array max() can be
    -0.0; the + 0.0 makes it +0.0, as np.abs would."""
    return float(max(a.max(), -a.min()) + 0.0)


def cross_comps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v of two (3, ...) component arrays, written into one output with
    one scalar scratch array: component c is u_a v_b - u_b v_a."""
    out = np.empty_like(u)
    tmp = np.empty_like(u[0])
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u[a], v[b], out=out[c])
        out[c] -= np.multiply(u[b], v[a], out=tmp)
    return out


def dot_comps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v of two (3, ...) component arrays, summed in place in the order
    np.sum(u * v, axis=0) uses: from +0.0, + u0 v0, + u1 v1, + u2 v2."""
    out = np.multiply(u[0], v[0])
    out += 0.0  # the sum's +0.0 start turns a -0.0 first product into +0.0
    tmp = np.empty_like(out)
    for a, b in zip(u[1:], v[1:]):
        out += np.multiply(a, b, out=tmp)
    return out


def cross(a: GridField, b: GridField) -> GridField:
    _check_same_grid(a, b)
    return GridField(a.grid, 1, cross_comps(a.comps, b.comps))


def dot(a: GridField, b: GridField) -> np.ndarray:
    _check_same_grid(a, b)
    return dot_comps(a.comps, b.comps)
