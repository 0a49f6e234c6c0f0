"""Linking numbers: Gauss double quadrature and signed crossing counts.

The two estimators are independent (quadrature of the Gauss kernel vs
combinatorics of a generic planar projection) and cross-validate each other
throughout the test suite.  `find_crossings` finds the double points of
one projection of all components; `diagrams.scene_diagram` retries it over
directions and assembles the diagram, off which `linking_report` reads the
linking matrix and every component's blackboard framing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CROSS_ANGLE, CROSS_SEP
from .curves import as_polygon, dyadic_refinement, orthonormal_frame, pairwise_d2
from .diagrams import scene_diagram
from .errors import CurvesIntersect, DegenerateProjection
from .reports import checked

# sample rows per block of the Gauss double sums, bounding their
# (rows, samples, 3) temporaries
_GAUSS_CHUNK = 256
# segment pairs per block of find_crossings, bounding its per-pair arrays
_PAIR_CHUNK = 8192


# -- Gauss double integral -----------------------------------------------------

def _gauss_sum(m1, t1, m2, t2):
    """(1/4pi) sum of det[t1, t2, r] / |r|^3 over all sample pairs."""
    total = 0.0
    for lo in range(0, len(m1), _GAUSS_CHUNK):
        r = m1[lo:lo + _GAUSS_CHUNK, None, :] - m2[None, :, :]
        d3 = np.sum(r * r, axis=2) ** 1.5
        cr = np.cross(t1[lo:lo + _GAUSS_CHUNK, None, :], t2[None, :, :])
        total += float(np.sum(np.sum(cr * r, axis=2) / d3))
    return total / (4 * np.pi)


def gauss_linking(c1, c2) -> float:
    """Gauss linking integral of two disjoint closed curves.

    Midpoint quadrature per sub-segment pair, dyadic refinement (up to 6
    levels) until two successive levels agree to QUAD_REFINE; converges to
    the integer linking number.  Curves whose vertices come within 1e-6 of
    their diameter raise CurvesIntersect.
    """
    p1, p2 = as_polygon(c1), as_polygon(c2)
    # the kernel is symmetric; computing in a canonical argument order makes
    # l(1,2) = l(2,1) bitwise, not just mathematically
    if (p2.n_vertices, p2.vertices.tobytes()) < (p1.n_vertices, p1.vertices.tobytes()):
        p1, p2 = p2, p1
    min_sep = 1e-6 * max(p1.diameter(), p2.diameter())
    dist = float(np.sqrt(pairwise_d2(p1.vertices, p2.vertices).min()))
    if dist <= min_sep:
        raise CurvesIntersect(f"curves at distance {dist:.3e} <= {min_sep:.3e}")
    return dyadic_refinement(
        lambda sub: _gauss_sum(*p1.midpoint_samples(sub), *p2.midpoint_samples(sub)), 6
    )


def gauss_writhe(c) -> float:
    """Gauss self-integral (writhe), excluding self and adjacent segment
    pairs of the original polygon, refined as gauss_linking is (up to 5
    levels).  Vanishes identically for planar curves."""
    poly = as_polygon(c)
    n = poly.n_vertices

    def writhe_sum(sub):
        m, t = poly.midpoint_samples(sub)
        parent = np.repeat(np.arange(n), sub)
        total = 0.0
        for lo in range(0, len(m), _GAUSS_CHUNK):
            hi = min(lo + _GAUSS_CHUNK, len(m))
            r = m[lo:hi, None, :] - m[None, :, :]
            gap = np.abs(parent[lo:hi, None] - parent[None, :])
            keep = (gap > 1) & (gap < n - 1)
            d2 = np.sum(r * r, axis=2)
            d3 = np.where(keep, d2, 1.0) ** 1.5
            cr = np.cross(t[lo:hi, None, :], t[None, :, :])
            val = np.sum(cr * r, axis=2) / d3
            total += float(np.sum(np.where(keep, val, 0.0)))
        return total / (4 * np.pi)

    return dyadic_refinement(writhe_sum, 5)


# -- generic projections and signed crossings ----------------------------------

@dataclass(frozen=True)
class Crossing:
    """One transverse double point of a generic projection."""

    comp_over: int
    seg_over: int
    s_over: float
    comp_under: int
    seg_under: int
    s_under: float
    sign: int
    point2d: tuple


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _point_segment_dist2(p, a, d):
    """Squared distance from points p to segments a -> a+d (all (M, 2))."""
    dd = np.sum(d * d, axis=1)
    t = np.clip(np.sum((p - a) * d, axis=1) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    q = a + t[:, None] * d
    return np.sum((p - q) ** 2, axis=1)


def _parallel_overlap(a1, da, b1, db, sep):
    """True when any near-parallel segment pair comes within sep."""
    d2 = np.minimum.reduce(
        [
            _point_segment_dist2(a1, b1, db),
            _point_segment_dist2(a1 + da, b1, db),
            _point_segment_dist2(b1, a1, da),
            _point_segment_dist2(b1 + db, a1, da),
        ]
    )
    return bool(np.any(d2 < sep * sep))


def _segment_pairs(lo, hi, n1, n2, same_curve):
    """Segment pairs (i, j), i-major, of polygons with n1 and n2 segments,
    for lo <= i < hi; on one curve only i < j, and no adjacent pair."""
    i, j = np.meshgrid(np.arange(lo, hi), np.arange(n2), indexing="ij")
    i, j = i.ravel(), j.ravel()
    if same_curve:
        gap = np.abs(i - j)
        keep = (gap > 1) & (gap < n1 - 1) & (i < j)
        i, j = i[keep], j[keep]
    return i, j


def _block_crossings(ci, cj, proj, seg, depth, ii, jj, sep):
    """The crossings of segments ii of component ci with segments jj of
    component cj, in pair order, each pair's over/under resolved by depth."""
    pi, pj = proj[ci], proj[cj]
    a1, da = pi[ii], seg[ci][ii]
    b1, db = pj[jj], seg[cj][jj]
    denom = _cross2(da, db)
    rhs = b1 - a1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = _cross2(rhs, db) / denom
        t = _cross2(rhs, da) / denom
    # parallel segments give s, t = inf or nan, which every window
    # below excludes
    hit = (s >= 0) & (s < 1) & (t >= 0) & (t < 1)
    # knife-edge crossings at segment endpoints are silently missed
    # or double-counted by the open/half-open window: refuse them
    eps_end = 1e-9
    near_end = (
        (np.minimum(np.abs(s), np.abs(s - 1)) < eps_end)
        & (t > -eps_end) & (t < 1 + eps_end)
    ) | (
        (np.minimum(np.abs(t), np.abs(t - 1)) < eps_end)
        & (s > -eps_end) & (s < 1 + eps_end)
    )
    if np.any(near_end):
        raise DegenerateProjection("crossing at a segment endpoint")
    # transversality at actual intersections
    la = np.linalg.norm(da, axis=1)
    lb = np.linalg.norm(db, axis=1)
    sin_angle = np.abs(denom) / np.where(la * lb > 0, la * lb, 1.0)
    if np.any(hit & (sin_angle < CROSS_ANGLE)):
        raise DegenerateProjection("near-tangent crossing")
    # near-parallel segments are degenerate when they overlap: the
    # intersection solve cannot see tangencies of coincident shadows
    par = sin_angle < CROSS_ANGLE
    if np.any(par):
        if _parallel_overlap(a1[par], da[par], b1[par], db[par], sep):
            raise DegenerateProjection("near-parallel overlapping segments")
    crossings = []
    for idx in np.nonzero(hit)[0]:
        i, j = int(ii[idx]), int(jj[idx])
        ss, tt = float(s[idx]), float(t[idx])
        pt = a1[idx] + ss * da[idx]
        zi = depth[ci][i] + ss * (depth[ci][(i + 1) % len(pi)] - depth[ci][i])
        zj = depth[cj][j] + tt * (depth[cj][(j + 1) % len(pj)] - depth[cj][j])
        if abs(zi - zj) < sep:
            raise DegenerateProjection("ambiguous over/under depth")
        # sign: orientation of (over tangent, under tangent)
        over, under = (ci, i, ss), (cj, j, tt)
        sgn = int(np.sign(_cross2(da[idx], db[idx])))
        if zi < zj:
            over, under, sgn = under, over, -sgn
        crossings.append(Crossing(*over, *under, sgn, (float(pt[0]), float(pt[1]))))
    return crossings


def find_crossings(curves, direction):
    """All transverse double points of the projection of `curves` along
    `direction`, with over/under resolved by depth.

    Raises DegenerateProjection on tangencies (angle below CROSS_ANGLE),
    crossings or depths closer than CROSS_SEP of the diameter; the caller
    retries with a perturbed direction.  Each component pair's segment
    pairs are taken in i-major blocks of about _PAIR_CHUNK, which bounds the
    per-pair arrays and keeps the crossings in pair order; a projection
    with degeneracies of two kinds in two blocks may name another of them
    than a single block would, but it raises all the same.
    """
    e1, e2, d = orthonormal_frame(direction)
    polys = [as_polygon(c) for c in curves]
    sep = CROSS_SEP * max(p.diameter() for p in polys)

    proj = [np.stack([p.vertices @ e1, p.vertices @ e2], axis=1) for p in polys]
    seg = [np.roll(p, -1, axis=0) - p for p in proj]
    depth = [p.vertices @ d for p in polys]

    crossings = []
    for ci in range(len(polys)):
        for cj in range(ci, len(polys)):
            n1, n2 = len(proj[ci]), len(proj[cj])
            rows = max(1, _PAIR_CHUNK // n2)
            for lo in range(0, n1, rows):
                ii, jj = _segment_pairs(lo, min(lo + rows, n1), n1, n2, ci == cj)
                if len(ii):
                    crossings += _block_crossings(ci, cj, proj, seg, depth, ii, jj, sep)
    pts = np.array([c.point2d for c in crossings]) if crossings else np.zeros((0, 2))
    if len(pts) > 1:
        dd = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(dd, np.inf)
        if float(np.sqrt(dd.min())) < sep:
            raise DegenerateProjection("crossings too close")
    return crossings


def linking_report(link, rng, timer) -> dict:
    """The `lk` report section: the Gauss and crossing linking matrices,
    writhe and blackboard framing per component, and the largest
    disagreement of the two linking estimators (gate 1e-3).

    The crossing matrix and the framings are read off the diagram of one
    projection of the whole link, `diagrams.scene_diagram(link, rng)`.  The
    stage "linking_matrix" times the Gauss matrix and the projection,
    "writhe_framing" the Gauss writhes; both are timed on `timer`.
    """
    comps = link.components
    n = len(comps)
    gauss = [[0.0] * n for _ in range(n)]
    timer.start("linking_matrix")
    for i in range(n):
        for j in range(i + 1, n):
            gauss[i][j] = gauss[j][i] = gauss_linking(comps[i], comps[j])
    diagram = scene_diagram(link, rng)
    crossing = diagram.linking_matrix()
    timer.stop()
    timer.start("writhe_framing")
    writhe = [gauss_writhe(c) for c in comps]
    framing = [diagram.self_writhe(c) for c in range(n)]
    timer.stop()
    agreement = max(
        (abs(gauss[i][j] - crossing[i][j]) for i in range(n) for j in range(n) if i != j),
        default=0.0,
    )
    return {
        "gauss": gauss,
        "crossing": crossing,
        "writhe": writhe,
        "framing": framing,
        "estimator_agreement": checked(agreement, 1e-3),
    }
