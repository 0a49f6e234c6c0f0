"""Trilinear sampling of grid fields at arbitrary points (periodic wrap)."""

from __future__ import annotations

import numpy as np

from .curves import as_polygon
from .grid import Grid3, GridField

# fourier_eval keeps the modes above _ACTIVE_TOL times the peak amplitude and
# gives up (returns None) past _MODE_POINT_BUDGET modes x points
_ACTIVE_TOL = 1e-14
_MODE_POINT_BUDGET = 60_000_000


def trilinear(grid: Grid3, comps: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sample each component array at the given (M, 3) points.

    Returns (ncomp, M).  Points may lie anywhere; coordinates wrap mod L.
    """
    n, L, h = grid.n_points, grid.box_length, grid.spacing
    p = np.asarray(points, dtype=float)
    u = (p + L / 2) / h
    i0 = np.floor(u).astype(np.int64)
    w = u - i0
    i0 %= n
    i1 = (i0 + 1) % n
    ix0, iy0, iz0 = i0[:, 0], i0[:, 1], i0[:, 2]
    ix1, iy1, iz1 = i1[:, 0], i1[:, 1], i1[:, 2]
    wx, wy, wz = w[:, 0], w[:, 1], w[:, 2]
    out = np.empty((comps.shape[0], p.shape[0]))
    for c in range(comps.shape[0]):
        a = comps[c]
        c000 = a[ix0, iy0, iz0]; c100 = a[ix1, iy0, iz0]
        c010 = a[ix0, iy1, iz0]; c110 = a[ix1, iy1, iz0]
        c001 = a[ix0, iy0, iz1]; c101 = a[ix1, iy0, iz1]
        c011 = a[ix0, iy1, iz1]; c111 = a[ix1, iy1, iz1]
        out[c] = (
            c000 * (1 - wx) * (1 - wy) * (1 - wz)
            + c100 * wx * (1 - wy) * (1 - wz)
            + c010 * (1 - wx) * wy * (1 - wz)
            + c110 * wx * wy * (1 - wz)
            + c001 * (1 - wx) * (1 - wy) * wz
            + c101 * wx * (1 - wy) * wz
            + c011 * (1 - wx) * wy * wz
            + c111 * wx * wy * wz
        )
    return out


def fourier_eval(grid: Grid3, comps: np.ndarray, points: np.ndarray):
    """Evaluate the trigonometric interpolant of each component exactly at
    arbitrary points via a direct sum over its active Fourier modes.

    Returns None when the active spectrum is too large for the budget; the
    caller falls back to trilinear interpolation.
    """
    from .operators import rfft3  # local import to avoid a cycle

    n, L = grid.n_points, grid.box_length
    p = np.asarray(points, dtype=float) + L / 2  # FFT phases live on [0, L)
    hats = rfft3(comps)
    power = np.abs(hats).max(axis=0)
    peak = float(power.max())
    if peak == 0.0:
        return np.zeros((comps.shape[0], len(p)))
    active = np.argwhere(power > _ACTIVE_TOL * peak)
    if active.shape[0] * len(p) > _MODE_POINT_BUDGET:
        return None
    freq = np.fft.fftfreq(n, d=1.0 / n)  # integer modes
    mx = freq[active[:, 0]]
    my = freq[active[:, 1]]
    mz = active[:, 2].astype(float)  # rfft axis: modes 0..N/2
    k = (2 * np.pi / L) * np.stack([mx, my, mz], axis=1)
    # the kz = 0 plane and, at even n only, the Nyquist plane are their own
    # conjugates: every other rfft plane stands for two modes
    once = (active[:, 2] == 0) | ((active[:, 2] == n // 2) & (n % 2 == 0))
    weight = np.where(once, 1.0, 2.0)
    out = np.empty((comps.shape[0], len(p)))
    phases = np.exp(1j * (p @ k.T))  # (M, modes)
    for c in range(comps.shape[0]):
        coef = hats[c][active[:, 0], active[:, 1], active[:, 2]] * weight
        out[c] = np.real(phases @ coef) / n**3
    return out


def sample_form1_along(form: GridField, curve, subdiv: int = 1) -> float:
    """Line integral of a 1-form along a closed polygonal curve.

    Each segment is split into `subdiv` equal pieces integrated by the
    midpoint rule (`PolygonalCurve.midpoint_samples`).  Fields with a small
    active spectrum are evaluated exactly by fourier_eval (the quadrature is
    then the only error, spectrally small on smooth closed curves); dense
    spectra fall back to trilinear interpolation.
    """
    if form.degree != 1:
        raise ValueError("line integral needs a 1-form")
    mids, pieces = as_polygon(curve).midpoint_samples(subdiv)
    vals = fourier_eval(form.grid, form.comps, mids)
    if vals is None:
        vals = trilinear(form.grid, form.comps, mids)
    return float(np.sum(vals.T * pieces))


def surface_integral_2form(form: GridField, points, du, dv) -> float:
    """Integral of a 2-form over a quadrilateral-panel surface.

    `points` are panel centers (M, 3); `du`, `dv` the panel edge vectors
    (M, 3).  Uses Omega(u, v) = <(P,Q,R), u x v> per panel (midpoint rule).
    """
    if form.degree != 2:
        raise ValueError("surface integral needs a 2-form")
    vals = trilinear(form.grid, form.comps, points)  # (3, M)
    n = np.cross(du, dv)
    return float(np.sum(vals.T * n))
