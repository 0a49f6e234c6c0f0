"""Curves, tubes and link scenes.

Components are closed oriented curves.  Planar components carry their plane
and smooth boundary data (circle or ellipse) plus a polygonal sampling; they
are the ones admitting flat Seifert discs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import QUAD_REFINE
from .errors import NotPlanar, SceneError


@dataclass(frozen=True)
class PolygonalCurve:
    """Closed oriented polygon: vertices (M, 3), M >= 8, last joins first."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 8:
            raise SceneError(f"polygon needs at least 8 vertices of dimension 3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise SceneError("polygon has a vertex that is not finite")
        object.__setattr__(self, "vertices", v)
        if np.any(np.linalg.norm(self.segments(), axis=1) == 0):
            raise SceneError("polygon has two consecutive vertices that coincide")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def segments(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def midpoint_samples(self, subdiv: int = 1):
        """The composite midpoint rule with `subdiv` equal pieces per
        segment: the piece midpoints and the piece vectors, (M * subdiv, 3)
        each, in traversal order."""
        v = self.vertices
        seg = self.segments()
        ts = (np.arange(subdiv) + 0.5) / subdiv
        mids = (v[:, None, :] + seg[:, None, :] * ts[None, :, None]).reshape(-1, 3)
        return mids, np.repeat(seg / subdiv, subdiv, axis=0)

    def length(self) -> float:
        return float(np.sum(np.linalg.norm(self.segments(), axis=1)))

    def diameter(self) -> float:
        v = self.vertices
        return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))

    def reversed(self) -> "PolygonalCurve":
        return PolygonalCurve(self.vertices[::-1].copy())

    def translated(self, offset) -> "PolygonalCurve":
        return PolygonalCurve(self.vertices + np.asarray(offset, dtype=float))

    def refined(self, max_seg_length: float) -> "PolygonalCurve":
        """Subdivide segments so none exceeds the given length."""
        out = []
        for a, seg in zip(self.vertices, self.segments()):
            m = max(1, int(np.ceil(np.linalg.norm(seg) / max_seg_length)))
            out.extend(a + seg * j / m for j in range(m))
        return PolygonalCurve(np.array(out))


@dataclass(frozen=True)
class PlanarCurve:
    """Planar closed curve (circle or ellipse) with its sampled polygon.

    `axis_u`/`axis_v` are the semi-axis vectors in the plane; the curve is
    t -> center + cos(t + phase) axis_u + sin(t + phase) axis_v, so its
    orientation is right-handed around normal = unit(axis_u x axis_v).
    """

    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    phase: float = 0.0
    n_samples: int = 256

    def __post_init__(self):
        for name in ("center", "axis_u", "axis_v"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise SceneError(f"planar curve {name} is not finite: {value.tolist()}")
            object.__setattr__(self, name, value)
        if not (np.any(self.axis_u) and np.any(self.axis_v)):
            raise SceneError("planar curve has a zero semi-axis")
        if abs(np.dot(self.axis_u, self.axis_v)) > 1e-10 * (
            np.linalg.norm(self.axis_u) * np.linalg.norm(self.axis_v)
        ):
            raise SceneError("planar curve semi-axes must be orthogonal")

    @property
    def normal(self) -> np.ndarray:
        n = np.cross(self.axis_u, self.axis_v)
        return n / np.linalg.norm(n)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return (
            self.center
            + np.cos(t + self.phase)[..., None] * self.axis_u
            + np.sin(t + self.phase)[..., None] * self.axis_v
        )

    def polygon(self, n_samples=None) -> PolygonalCurve:
        m = n_samples or self.n_samples
        t = 2 * np.pi * np.arange(m) / m
        verts = self.point(t)
        planarity = np.max(np.abs((verts - self.center) @ self.normal))
        scale = max(np.linalg.norm(self.axis_u), np.linalg.norm(self.axis_v))
        if planarity > 1e-12 * scale:
            raise NotPlanar(f"sampled vertices off-plane by {planarity:.2e}")
        return PolygonalCurve(verts)

    @property
    def vertices(self) -> np.ndarray:
        return self.polygon().vertices

    def reversed(self) -> "PlanarCurve":
        # swapping the axes reverses orientation and flips the normal
        return replace(self, axis_u=self.axis_v.copy(), axis_v=self.axis_u.copy())

    def translated(self, offset) -> "PlanarCurve":
        return replace(self, center=self.center + np.asarray(offset, dtype=float))


def orthonormal_frame(direction):
    """Right-handed orthonormal frame (e1, e2, d) with d the unit vector of
    `direction`; e1 is the x axis (the y axis when d is within 0.9 of x)
    made orthogonal to d.  A zero or non-finite direction raises SceneError."""
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if not (np.isfinite(nd) and nd > 0):
        raise SceneError(f"direction {d.tolist()} is zero or not finite")
    d = d / nd
    seed = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(seed, d)) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - np.dot(seed, d) * d
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(d, e1), d


def circle(center, normal, radius, phase=0.0, n_samples=256) -> PlanarCurve:
    """Round circle oriented right-handed around the given normal."""
    u, v, _ = orthonormal_frame(normal)
    return PlanarCurve(
        np.asarray(center, dtype=float), radius * u, radius * v, phase, n_samples
    )


def as_polygon(c) -> PolygonalCurve:
    if isinstance(c, PolygonalCurve):
        return c
    return c.polygon()


def pairwise_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (P, Q) between the points a (P, 3) and b (Q, 3).

    The squares are accumulated axis by axis, (dx^2 + dy^2) + dz^2, which is
    the order of np.sum(diff**2, axis=2), so the result has the same bits
    without its (P, Q, 3) temporary.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    for k in (1, 2):
        d2 += np.subtract.outer(a[:, k], b[:, k]) ** 2
    return d2


def min_distance(c1, c2) -> float:
    """Minimum distance between two curves, brute force over samples refined
    to a quarter of each polygon's mean segment length."""
    p1 = as_polygon(c1)
    p2 = as_polygon(c2)
    a = p1.refined(p1.length() / (4 * p1.n_vertices)).vertices
    b = p2.refined(p2.length() / (4 * p2.n_vertices)).vertices
    return float(np.sqrt(pairwise_d2(a, b).min()))


def dyadic_refinement(quadrature, levels):
    """quadrature(subdiv) of a curve integral at subdiv = 1, 2, 4, ...
    until two successive levels agree to QUAD_REFINE * max(1, |value|); the
    last of `levels` levels otherwise."""
    prev = None
    for level in range(levels):
        val = quadrature(2**level)
        if prev is not None and abs(val - prev) <= QUAD_REFINE * max(1.0, abs(val)):
            return val
        prev = val
    return prev


@dataclass(frozen=True)
class TubeParams:
    """Tube cross-section: compactly supported mollifier radius and flux."""

    radius: float
    flux: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise SceneError(f"tube radius must be positive, got {self.radius}")
        if self.flux == 0:
            raise SceneError("tube flux must be nonzero")


@dataclass
class Link:
    """An oriented link: components plus shared tube parameters."""

    components: list
    tube: TubeParams


# -- standard fixtures --------------------------------------------------------

def hopf_link(radius=1.0, tube_radius=0.3, n_samples=256, centered=True) -> Link:
    """Two unit circles in orthogonal planes, each through the other's
    center; linking number +-1, minimum distance = radius.

    With `centered` the pair is translated so the scene is symmetric about
    the box center (the canonical placement keeps one circle at the origin
    and the other centered at (radius, 0, 0))."""
    shift = np.array([-radius / 2, 0.0, 0.0]) if centered else np.zeros(3)
    c1 = circle(shift, (0.0, 0.0, 1.0), radius, n_samples=n_samples)
    c2 = circle(shift + [radius, 0.0, 0.0], (0.0, 1.0, 0.0), radius,
                n_samples=n_samples)
    return Link([c1, c2], TubeParams(tube_radius))


def split_link(separation=2.2, radius=0.45, tube_radius=0.3, n_samples=256) -> Link:
    """Two coplanar circles far apart: every linking number vanishes."""
    c1 = circle((-separation / 2, 0.0, 0.0), (0.0, 0.0, 1.0), radius, n_samples=n_samples)
    c2 = circle((+separation / 2, 0.0, 0.0), (0.0, 0.0, 1.0), radius, n_samples=n_samples)
    return Link([c1, c2], TubeParams(tube_radius))


def borromean_rings(a=1.0, b=0.5, tube_radius=0.131, n_samples=256) -> Link:
    """Three mutually orthogonal ellipses in the coordinate planes with
    semi-axes (a, b); Brunnian for a > b.  Minimum pairwise distance is
    about 0.41 a at b = a/2."""
    e1 = PlanarCurve(np.zeros(3), a * np.array([1.0, 0, 0]), b * np.array([0, 1.0, 0]),
                     n_samples=n_samples)
    e2 = PlanarCurve(np.zeros(3), a * np.array([0, 1.0, 0]), b * np.array([0, 0, 1.0]),
                     n_samples=n_samples)
    e3 = PlanarCurve(np.zeros(3), a * np.array([0, 0, 1.0]), b * np.array([1.0, 0, 0]),
                     n_samples=n_samples)
    return Link([e1, e2, e3], TubeParams(tube_radius))


def split_triple(separation=1.3, radius=0.5, tube_radius=0.2, n_samples=256) -> Link:
    """Three coaxial circles stacked at z = -s, 0, +s (s = separation): the
    trivial three-component scene.

    The disc slabs of the components are disjoint, so every obstruction
    form v_i ^ v_j vanishes identically.  No side-by-side layout fits: three
    radius-0.5 circles with 2r gaps need more than the half-box side pi.  A
    stack is valid on a box of side L with tube radius r when s lies in the
    window (2.5 r, L/4]: s <= L/4 keeps the scene in the central half-box,
    and s > 2.5 r lets the default meridian torus (minor radius 1.5 r) clear
    each neighbour's tube support.  The default s = 1.3 fits r = 0.2 and
    r = 0.42 at L = 2 pi.
    """
    comps = [
        circle((0.0, 0.0, z), (0, 0, 1.0), radius, n_samples=n_samples)
        for z in (-separation, 0.0, +separation)
    ]
    return Link(comps, TubeParams(tube_radius))
