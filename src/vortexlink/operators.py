"""Spectral exterior calculus on the periodic grid.

All differential operators act by Fourier multipliers, so the structural
identities (d^2 = 0, delta^2 = 0, ** = id, adjointness of d and delta,
curl grad = 0, div curl = 0) hold to rounding error on band-limited fields.
At even N the Nyquist wavenumber is zeroed in every differentiation
symbol to keep derivatives of real fields real and the operators
skew-adjoint; odd N has no Nyquist mode, so its top modes +-(N-1)/2 keep
their wavenumbers.

This module is the package's one spectral layer.  `rfft3`/`irfft3` act on
the last three axes, so a whole (C, N, N, N) field goes through one call;
they are the only FFT entry points, and they count their calls in
`fft_calls` for the timings sidecar.  They run numpy's 1-D transforms in the
pass order of scipy.fft's rfftn/irfftn, which gives that library's bits
without importing it (scipy.fft alone costs more to import than the whole
package), and each pass is split over `_workers()` threads.  `irfft3`
overwrites the spectrum it inverts.

`rfft3(a, band)` transforms only the modes of a boolean half-spectrum mask,
as the band-limited random fields need: the r2c pass runs on every line, the
axis -3 pass only on the kz planes the band reaches and the axis -2 pass
only on its kx rows, and every mode outside the band is +0.0.  A kept mode
is the same 1-D transforms of the same lines as in the whole transform, and
numpy transforms each line on its own, so it has the whole transform's bits
(pruning in the sense of Markel, IEEE Trans. Audio Electroacoust. 19, 1971).
`irfft3` has no band: skipping its zero lines saves little and could flip
the sign of an exactly zero output.  The symbols (K, K2, mode) are cached
per grid, and the curl symbol `_k_cross` and the Leray split `_leray` are
written once here for every caller.

Pointwise products (`wedge`, `contract`, and `grid.cross`/`grid.dot`
underneath) write one output array: each component is a product written
into it, and further products are added or subtracted in place through one
scalar scratch array, in the order the stacked expressions used, so the bits
are those of the stacked form without its temporaries.

Sign conventions come from constants.py; the Laplacian is Riemannian
(Delta = d delta + delta d, Fourier symbol +|k|^2).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .constants import CODIFF_SIGN, EPS_DIV, EPS_HARM, EPS_MEAN
from .errors import NonzeroHarmonicPart, NonzeroMean, NotDivergenceFree
from .grid import Grid3, GridField, _check_same_grid, cross_comps, dot_comps


def _workers() -> int:
    env = os.environ.get("VORTEXLINK_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@lru_cache(maxsize=16)
def _spectral(n: int, box_length: float):
    """Symbols of an N^3 rfft grid, cached per grid: (K, K2, mode).

    K = (KX, KY, KZ) are the broadcastable derivative wavenumbers (Nyquist
    zeroed at even n), K2 = |K|^2, and mode the true mode magnitudes
    (Nyquist not zeroed) in integer-mode units.
    """
    h = box_length / n
    kfull = 2 * np.pi * np.fft.fftfreq(n, d=h)
    krf = 2 * np.pi * np.fft.rfftfreq(n, d=h)
    kd = kfull.copy()
    krd = krf.copy()
    if n % 2 == 0:
        kd[n // 2] = 0.0
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


# Transforms made by this process so far.  Like the peak resident set, it is
# process-wide and only ever grows; reports.StageTimer reads it per stage.
fft_calls = 0


@lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="vortexlink-fft")


def _along(axis: int, s: slice) -> tuple:
    """Index taking `s` along the negative axis `axis`."""
    return (Ellipsis, s) + (slice(None),) * (-1 - axis)


def _pass(transform, src, dst, axis: int, split: int, **kwargs) -> None:
    """One 1-D numpy transform of every line of `src` along `axis`, written
    into `dst` (which may be `src`).  The lines are cut into _workers()
    blocks along the untransformed axis `split`, one block per thread (numpy
    releases the GIL while it transforms); each line is transformed on its
    own, so the cut leaves the bits alone."""
    n = src.shape[split]
    k = min(_workers(), n)
    edges = [n * i // k for i in range(k + 1)]

    def run(lo, hi):
        block = _along(split, slice(lo, hi))
        transform(src[block], axis=axis, out=dst[block], **kwargs)

    futures = [_pool(k - 1).submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        run(edges[0], edges[1])
    finally:
        # no block may still be written after the pass returns or raises
        for f in futures:
            f.result()


def rfft3(a: np.ndarray, band: np.ndarray | None = None) -> np.ndarray:
    """Real FFT over the last three axes: one call for every component.

    The passes are those of scipy.fft.rfftn: r2c along the last axis, then
    c2c along axis -3 and then along axis -2, in place.

    `band`, a boolean mask of the half spectrum (the last three axes of the
    result), keeps only the modes inside it: the r2c pass runs on every
    line, the axis -3 pass only on the kz planes the band reaches and the
    axis -2 pass only on its kx rows.  Every kept mode has the bits of the
    whole transform, and every other mode is +0.0."""
    global fft_calls
    fft_calls += 1
    out = np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), dtype=np.complex128)
    _pass(np.fft.rfft, a, out, axis=-1, split=-3)
    if band is None:
        _pass(np.fft.fft, out, out, axis=-3, split=-2)
        _pass(np.fft.fft, out, out, axis=-2, split=-3)
        return out
    rows = _runs(band.any(axis=(1, 2)))
    for planes in _runs(band.any(axis=(0, 1))):
        box = out[..., planes]
        _pass(np.fft.fft, box, box, axis=-3, split=-2)
        for r in rows:
            box = out[..., r, :, planes]
            _pass(np.fft.fft, box, box, axis=-2, split=-3)
    np.copyto(out, 0.0, where=~band)
    return out


def _runs(mask: np.ndarray) -> list[slice]:
    """The runs of True of a 1-D boolean mask, as slices."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return [slice(lo, hi) for lo, hi in zip(edges[::2], edges[1::2])]


def irfft3(ah: np.ndarray, shape) -> np.ndarray:
    """Inverse of rfft3 onto real arrays whose last three axes have `shape`.

    `ah` is the workspace of the c2c passes and is overwritten: a caller
    that still needs the spectrum passes a copy.  The passes are those of
    scipy.fft.irfftn: unscaled c2c along axis -3 and then along axis -2,
    unscaled c2r along the last axis, and one multiply by 1/(n0 n1 n2)."""
    global fft_calls
    fft_calls += 1
    n0, n1, n2 = shape
    if ah.shape[-3:] != (n0, n1, n2 // 2 + 1):
        raise ValueError(f"spectrum of shape {ah.shape} is not the rfft3 of {tuple(shape)}")
    _pass(np.fft.ifft, ah, ah, axis=-3, split=-2, norm="forward")
    _pass(np.fft.ifft, ah, ah, axis=-2, split=-3, norm="forward")
    out = np.empty(ah.shape[:-1] + (n2,))
    _pass(np.fft.irfft, ah, out, axis=-1, split=-3, n=n2, norm="forward")
    out *= 1.0 / (n0 * n1 * n2)
    return out


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


def _k_dot(K, vh, overwrite=False):
    """Divergence symbol: i k . v for a spectral vector field vh of shape (3, ...),
    accumulated in place: K_x v_x, + K_y v_y, + K_z v_z, then times 1j.

    The sum is made in a new array with one scratch component, or, with
    `overwrite`, inside vh itself: each product is written over its own
    component and the result is vh[0], so a caller that keeps vh must not
    pass it."""
    out = np.multiply(K[0], vh[0], out=vh[0] if overwrite else None)
    tmp = None if overwrite else np.empty_like(out)
    for k, c in zip(K[1:], vh[1:]):
        out += np.multiply(k, c, out=c if overwrite else tmp)
    out *= 1j
    return out


def _k_grad(K, fh):
    """Gradient symbol: i k f for a spectral scalar fh, written into one
    (3, ...) output."""
    out = np.empty((3,) + fh.shape, dtype=fh.dtype)
    for c, k in enumerate(K):
        np.multiply(1j * k, fh, out=out[c])
    return out


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
    """Set every mode with K2 = 0 (the zero mode and, at even N, the Nyquist
    lines) to zero, in place."""
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
    return irfft3(_k_grad(K, rfft3(f)), grid.shape)


def _div(grid, v):
    K, _, _ = _symbols(grid)
    # the spectrum is this call's own, so the sum is made inside it
    return irfft3(_k_dot(K, rfft3(v), overwrite=True), grid.shape)


def _curl(grid, v):
    K, _, _ = _symbols(grid)
    return irfft3(_k_cross(K, rfft3(v)), grid.shape)


# -- algebraic (pointwise) operations ---------------------------------------
# The star is the one relabelling: its result shares the input's array, so
# neither may be mutated while both are in use.  A vector field x is held as
# its flat, so iota_x nu = *x, and the vector field of a 2-form b is *b.

def hodge_star(f: GridField) -> GridField:
    """Euclidean Hodge dual: a degree swap k -> 3-k on the same array, so
    ** = id exactly."""
    return GridField(f.grid, 3 - f.degree, f.comps)


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
        return GridField(f.grid, 2, cross_comps(a, b))
    if j == 1 and k == 2:
        return GridField(f.grid, 3, dot_comps(a, b)[None])
    raise AssertionError("unreachable")


def contract(x: GridField, f: GridField) -> GridField:
    """Interior product iota_x f (pointwise) by the vector field x held as
    its flat."""
    _check_same_grid(x, f)
    k = f.degree
    if k < 1:
        raise ValueError("cannot contract a 0-form")
    v, a = x.comps, f.comps
    if k == 1:
        return GridField(f.grid, 0, dot_comps(v, a)[None])
    if k == 2:
        # iota_x beta = (beta_vec x x) flat
        return GridField(f.grid, 1, cross_comps(a, v))
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


def laplace_inv(f: GridField) -> GridField:
    """Invert the Riemannian Hodge Laplacian (symbol +|k|^2) componentwise.

    Requires zero harmonic part; the output zero mode is set to zero.
    """
    sup = f.sup_norm()
    means = np.abs(f.mean())
    if sup > 0 and np.max(means) > EPS_HARM * sup:
        raise NonzeroHarmonicPart(
            f"harmonic part {np.max(means):.3e} exceeds {EPS_HARM:.1e} * sup"
        )
    _, K2, _ = _symbols(f.grid)
    out = irfft3(_inverse_k2(rfft3(f.comps), K2), f.grid.shape)
    return GridField(f.grid, f.degree, out)


def divergence_residual(x: GridField, xh: np.ndarray | None = None) -> float:
    """sup |div x| / sup |x|; `xh` is rfft3(x.comps) when the caller already
    holds it."""
    sup = x.sup_norm()
    if sup == 0:
        return 0.0
    K, _, _ = _symbols(x.grid)
    if xh is None:
        xh = rfft3(x.comps)
    return float(np.max(np.abs(irfft3(_k_dot(K, xh), x.grid.shape)))) / sup


def require_divergence_free(x: GridField, what="field", xh: np.ndarray | None = None):
    """Raise NotDivergenceFree unless divergence_residual(x, xh) <= EPS_DIV."""
    r = divergence_residual(x, xh)
    if r > EPS_DIV:
        raise NotDivergenceFree(f"{what}: relative divergence {r:.3e} > {EPS_DIV:.1e}")


def solenoidal_part(x: GridField) -> GridField:
    """Leray projection: remove the gradient part spectrally (zero mode kept)."""
    K, K2, _ = _symbols(x.grid)
    # bind the transverse part alone: the longitudinal one dies here
    transverse = _leray(K, K2, rfft3(x.comps))[0]
    return GridField(x.grid, 1, irfft3(transverse, x.grid.shape))


def curl_inv(b: GridField, eps_mean: float = EPS_MEAN) -> GridField:
    """Coulomb-gauge vector potential: curl B = b, div B = 0, zero mean.

    Fourier formula B(k) = i k x b(k) / |k|^2 with the zero mode set to zero.
    b is transformed once: the divergence certificate reads the spectrum
    that is inverted.  The divergence gate runs before the mean gate, which
    allows each component mean up to eps_mean * sup|b|.
    """
    bh = rfft3(b.comps)
    require_divergence_free(b, "curl_inv input", xh=bh)
    sup = b.sup_norm()
    if sup > 0 and np.max(np.abs(b.mean())) > eps_mean * sup:
        raise NonzeroMean(f"curl_inv input: component mean exceeds {eps_mean:.1e} * sup")
    K, K2, _ = _symbols(b.grid)
    # rebinding frees b's spectrum before the inverse transform allocates
    bh = _inverse_k2(_k_cross(K, bh), K2)
    return GridField(b.grid, 1, irfft3(bh, b.grid.shape))


def lie_derivative(x: GridField, f: GridField) -> GridField:
    """Cartan's formula: L_x f = d(iota_x f) + iota_x(d f), the second term
    added in place."""
    k = f.degree
    if k == 0:
        return contract(x, ext_d(f))
    out = ext_d(contract(x, f))
    if k <= 2:
        out.comps += contract(x, ext_d(f)).comps
    return out


# -- integrals ---------------------------------------------------------------

def l2_inner(f: GridField, g: GridField) -> float:
    """L2 inner product by the midpoint rule (exact for band-limited data)."""
    _check_same_grid(f, g)
    if f.degree != g.degree:
        raise ValueError("inner product of forms of different degree")
    return float(np.sum(f.comps * g.comps) * f.grid.cell_volume)


def integrate(f: GridField) -> float:
    """Integral of a 3-form over the box."""
    if f.degree != 3:
        raise ValueError("integrate expects a 3-form")
    return float(np.sum(f.comps) * f.grid.cell_volume)
