"""Spectral exterior calculus on the periodic grid.

All differential operators act by Fourier multipliers, so the structural
identities (d^2 = 0, delta^2 = 0, ** = id, adjointness of d and delta,
curl grad = 0, div curl = 0) hold to rounding error on band-limited fields.
The Nyquist wavenumber is zeroed in every differentiation symbol to keep
derivatives of real fields real and the operators skew-adjoint.

This module is the package's one spectral layer.  `rfft3`/`irfft3` act on
the last three axes, so a whole (C, N, N, N) field goes through one call;
they are the only FFT entry points.  The symbols (K, K2, mode) are cached
per grid, and the curl symbol `_k_cross` and the Leray split `_leray` are
written once here for every caller.

Sign conventions come from constants.py; the Laplacian is Riemannian
(Delta = d delta + delta d, Fourier symbol +|k|^2).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .constants import CODIFF_SIGN, DEFAULT_TOLERANCES
from .errors import NonzeroHarmonicPart, NonzeroMean, NotDivergenceFree
from .grid import Grid3, GridField, VectorField, _check_same_grid


def _workers() -> int:
    env = os.environ.get("VORTEXLINK_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@lru_cache(maxsize=16)
def _spectral(n: int, box_length: float):
    """Symbols of an N^3 rfft grid, cached per grid: (K, K2, mode).

    K = (KX, KY, KZ) are the broadcastable derivative wavenumbers (Nyquist
    zeroed), K2 = |K|^2, and mode the true mode magnitudes (Nyquist not
    zeroed) in integer-mode units.
    """
    h = box_length / n
    kfull = 2 * np.pi * sfft.fftfreq(n, d=h)
    krf = 2 * np.pi * sfft.rfftfreq(n, d=h)
    kd = kfull.copy()
    kd[n // 2] = 0.0
    krd = krf.copy()
    krd[-1] = 0.0
    KX = kd[:, None, None]
    KY = kd[None, :, None]
    KZ = krd[None, None, :]
    K2 = KX**2 + KY**2 + KZ**2
    mode = np.sqrt(
        kfull[:, None, None] ** 2 + kfull[None, :, None] ** 2 + krf[None, None, :] ** 2
    ) * (box_length / (2 * np.pi))
    return (KX, KY, KZ), K2, mode


def _symbols(grid: Grid3):
    return _spectral(grid.n_points, grid.box_length)


def rfft3(a: np.ndarray) -> np.ndarray:
    """Real FFT over the last three axes: one call for every component."""
    return sfft.rfftn(a, axes=(-3, -2, -1), workers=_workers())


def irfft3(ah: np.ndarray, shape) -> np.ndarray:
    """Inverse of rfft3 onto real arrays whose last three axes have `shape`."""
    return sfft.irfftn(ah, s=shape, axes=(-3, -2, -1), workers=_workers())


def _k_cross(K, vh):
    """Curl symbol: i k x v for a spectral vector field vh of shape (3, ...).
    Each component is 1j * (K_a v_b - K_b v_a), computed in place with one
    scratch component."""
    out = np.empty_like(vh)
    tmp = np.empty_like(out[0])
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(K[a], vh[b], out=out[c])
        out[c] -= np.multiply(K[b], vh[a], out=tmp)
        out[c] *= 1j
    return out


def _k_dot(K, vh):
    """Divergence symbol: i k . v for a spectral vector field vh of shape (3, ...)."""
    KX, KY, KZ = K
    return 1j * (KX * vh[0] + KY * vh[1] + KZ * vh[2])


def _leray(K, K2, vh):
    """Leray split of a spectral vector field into (transverse, longitudinal)
    parts; modes with K2 = 0 (the zero mode) count as transverse."""
    kdot = K[0] * vh[0] + K[1] * vh[1] + K[2] * vh[2]
    lon = np.empty_like(vh)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, k in enumerate(K):
            lon[i] = np.where(K2 > 0, k * kdot / K2, 0.0)
    # lon is exactly zero where K2 = 0, so vh - lon keeps vh's bits there
    return vh - lon, lon


def _zero_k2(vh, K2):
    """Set every mode with K2 = 0 (the zero mode, Nyquist lines) to zero, in place."""
    vh[..., K2 == 0] = 0.0
    return vh


def _inverse_k2(vh, K2):
    """vh / K2 in place, with every K2 = 0 mode set to zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vh /= K2
    return _zero_k2(vh, K2)


# -- component-level vector calculus ----------------------------------------

def _grad(grid, f):
    K, _, _ = _symbols(grid)
    fh = rfft3(f)
    return irfft3(np.stack([1j * k * fh for k in K]), grid.shape)


def _div(grid, v):
    K, _, _ = _symbols(grid)
    return irfft3(_k_dot(K, rfft3(v)), grid.shape)


def _curl(grid, v):
    K, _, _ = _symbols(grid)
    return irfft3(_k_cross(K, rfft3(v)), grid.shape)


def spectral_div(x: VectorField) -> np.ndarray:
    return _div(x.grid, x.comps)


def spectral_curl(x: VectorField) -> VectorField:
    return VectorField(x.grid, _curl(x.grid, x.comps))


# -- algebraic (pointwise) operations ---------------------------------------
# The star, the musical maps and alpha only relabel components: the result
# shares the input's array, so neither may be mutated while both are in use.

def hodge_star(f: GridField) -> GridField:
    """Euclidean Hodge dual: a degree swap k -> 3-k on the same array, so
    ** = id exactly."""
    return GridField(f.grid, 3 - f.degree, f.comps)


def musical(x: VectorField) -> GridField:
    """Flat: vector field -> 1-form (Euclidean metric, shared array)."""
    return GridField(x.grid, 1, x.comps)


def musical_inv(f: GridField) -> VectorField:
    """Sharp: 1-form -> vector field (shared array)."""
    if f.degree != 1:
        raise ValueError("sharp expects a 1-form")
    return VectorField(f.grid, f.comps)


def alpha(x: VectorField) -> GridField:
    """iota_x nu = x^1 dy^dz + x^2 dz^dx + x^3 dx^dy  (= *(x flat)), shared array."""
    return GridField(x.grid, 2, x.comps)


def alpha_inv(f: GridField) -> VectorField:
    """Inverse of alpha: (*beta) sharp, shared array."""
    if f.degree != 2:
        raise ValueError("alpha_inv expects a 2-form")
    return VectorField(f.grid, f.comps)


def wedge(f: GridField, g: GridField) -> GridField:
    """Pointwise exterior product; graded anticommutativity is exact."""
    _check_same_grid(f, g)
    j, k = f.degree, g.degree
    if j + k > 3:
        raise ValueError(f"wedge degrees {j}+{k} exceed 3")
    if j > k:
        out = wedge(g, f)
        if (j * k) % 2 == 1:
            out = -out
        return out
    a, b = f.comps, g.comps
    if j == 0:
        return GridField(f.grid, k, a[0][None] * b)
    if j == 1 and k == 1:
        # (a dx + ...) ^ (b dx + ...) = cross product in the 2-form basis
        c = np.stack(
            [
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            ]
        )
        return GridField(f.grid, 2, c)
    if j == 1 and k == 2:
        return GridField(f.grid, 3, np.sum(a * b, axis=0)[None])
    raise AssertionError("unreachable")


def contract(x: VectorField, f: GridField) -> GridField:
    """Interior product iota_x f (pointwise)."""
    _check_same_grid(x, f)
    k = f.degree
    if k < 1:
        raise ValueError("cannot contract a 0-form")
    v, a = x.comps, f.comps
    if k == 1:
        return GridField(f.grid, 0, np.sum(v * a, axis=0)[None])
    if k == 2:
        # iota_x beta = (beta_vec x x) flat
        c = np.stack(
            [
                a[1] * v[2] - a[2] * v[1],
                a[2] * v[0] - a[0] * v[2],
                a[0] * v[1] - a[1] * v[0],
            ]
        )
        return GridField(f.grid, 1, c)
    return GridField(f.grid, 2, a[0][None] * v)


def volume_form(grid: Grid3) -> GridField:
    return GridField(grid, 3, np.ones((1,) + grid.shape))


# -- differential operators ---------------------------------------------------

def ext_d(f: GridField) -> GridField:
    """Spectral exterior derivative (grad / curl / div in the fixed bases)."""
    k = f.degree
    if k > 2:
        raise ValueError("d on a 3-form")
    if k == 0:
        return GridField(f.grid, 1, _grad(f.grid, f.comps[0]))
    if k == 1:
        return GridField(f.grid, 2, _curl(f.grid, f.comps))
    return GridField(f.grid, 3, _div(f.grid, f.comps)[None])


def codiff(f: GridField) -> GridField:
    """Codifferential, the L2 adjoint of ext_d: delta = sign(k) * (*d*)."""
    k = f.degree
    if k < 1:
        raise ValueError("codifferential on a 0-form")
    dual = ext_d(hodge_star(f))
    out = hodge_star(dual)
    if CODIFF_SIGN[k] < 0:
        out = -out
    return out


def harmonic_proj(f: GridField) -> GridField:
    """Componentwise mean: the harmonic part on the flat torus."""
    means = f.comps.reshape(f.comps.shape[0], -1).mean(axis=1)
    out = np.broadcast_to(
        means[:, None, None, None], f.comps.shape
    ).copy()
    return GridField(f.grid, f.degree, out)


def laplace_inv(f: GridField, eps_harm: float | None = None) -> GridField:
    """Invert the Riemannian Hodge Laplacian (symbol +|k|^2) componentwise.

    Requires zero harmonic part; the output zero mode is set to zero.
    """
    if eps_harm is None:
        eps_harm = DEFAULT_TOLERANCES["eps_harm"]
    sup = f.sup_norm()
    means = np.abs(f.comps.reshape(f.comps.shape[0], -1).mean(axis=1))
    if sup > 0 and np.max(means) > eps_harm * sup:
        raise NonzeroHarmonicPart(
            f"harmonic part {np.max(means):.3e} exceeds {eps_harm:.1e} * sup"
        )
    _, K2, _ = _symbols(f.grid)
    out = irfft3(_inverse_k2(rfft3(f.comps), K2), f.grid.shape)
    return GridField(f.grid, f.degree, out)


def divergence_residual(x: VectorField) -> float:
    sup = x.sup_norm()
    if sup == 0:
        return 0.0
    return float(np.max(np.abs(spectral_div(x)))) / sup


def require_divergence_free(x: VectorField, eps_div: float | None = None, what="field"):
    if eps_div is None:
        eps_div = DEFAULT_TOLERANCES["eps_div"]
    r = divergence_residual(x)
    if r > eps_div:
        raise NotDivergenceFree(f"{what}: relative divergence {r:.3e} > {eps_div:.1e}")


def require_zero_mean(x: VectorField, eps_mean: float | None = None, what="field"):
    if eps_mean is None:
        eps_mean = DEFAULT_TOLERANCES["eps_mean"]
    sup = x.sup_norm()
    if sup == 0:
        return
    if np.max(np.abs(x.mean())) > eps_mean * sup:
        raise NonzeroMean(f"{what}: component mean exceeds {eps_mean:.1e} * sup")


def solenoidal_part(x: VectorField) -> VectorField:
    """Leray projection: remove the gradient part spectrally (zero mode kept)."""
    K, K2, _ = _symbols(x.grid)
    transverse, _ = _leray(K, K2, rfft3(x.comps))
    return VectorField(x.grid, irfft3(transverse, x.grid.shape))


def curl_inv(b: VectorField, eps_div=None, eps_mean=None) -> VectorField:
    """Coulomb-gauge vector potential: curl B = b, div B = 0, zero mean.

    Fourier formula B(k) = i k x b(k) / |k|^2 with the zero mode set to zero.
    """
    require_divergence_free(b, eps_div, what="curl_inv input")
    require_zero_mean(b, eps_mean, what="curl_inv input")
    K, K2, _ = _symbols(b.grid)
    comps = irfft3(_inverse_k2(_k_cross(K, rfft3(b.comps)), K2), b.grid.shape)
    return VectorField(b.grid, comps)


def lie_derivative(x: VectorField, f: GridField, df: GridField | None = None) -> GridField:
    """Cartan's formula: L_x f = d(iota_x f) + iota_x(d f); `df` is d f when
    the caller already holds it."""
    k = f.degree
    terms = []
    if k >= 1:
        terms.append(ext_d(contract(x, f)))
    if k <= 2:
        terms.append(contract(x, ext_d(f) if df is None else df))
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


# -- integrals ---------------------------------------------------------------

def l2_inner(f: GridField, g: GridField) -> float:
    """L2 inner product by the midpoint rule (exact for band-limited data)."""
    _check_same_grid(f, g)
    if f.degree != g.degree:
        raise ValueError("inner product of forms of different degree")
    return float(np.sum(f.comps * g.comps) * f.grid.cell_volume)


def l2_inner_exact(f: GridField, g: GridField) -> float:
    """Correctly rounded inner product (math.fsum): invariant under lattice
    translations of both fields, at the cost of speed."""
    import math

    _check_same_grid(f, g)
    if f.degree != g.degree:
        raise ValueError("inner product of forms of different degree")
    return math.fsum((f.comps * g.comps).ravel()) * f.grid.cell_volume


def integrate(f: GridField) -> float:
    """Integral of a 3-form over the box."""
    if f.degree != 3:
        raise ValueError("integrate expects a 3-form")
    return float(np.sum(f.comps) * f.grid.cell_volume)
