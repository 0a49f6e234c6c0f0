"""Seeded random field ensembles for property suites.

Band limits are enforced on true mode magnitudes, kmin <= |k| <= kmax in
integer-mode units, so a band with kmax >= N/2 keeps modes of the Nyquist
planes of an even N.  Only the band's modes are transformed (`rfft3` with a
band) and Leray-projected; every mode outside it is +0.0, which gives the
bits of transforming and projecting the whole spectrum.

The identity suites for the co-momentum tower draw solenoidal fields from
pairwise-disjoint Fourier shells: for shells S1, S2, S3 with
(Si + Sj) disjoint from Sk for all permutations, every product appearing in
the tower (cross products, brackets of pairs against the third field) has an
exactly vanishing zero mode, which is the torus realization of the
rapid-decay hypothesis.  Without this, the constant mode of xi1 x xi2 is a
genuine cohomological obstruction on the torus and the potential equations
only hold modulo constants.
"""

from __future__ import annotations

import numpy as np

from .grid import FORM_COMPONENTS, Grid3, GridField, sup_abs
from .operators import _leray, _symbols, _zero_k2, irfft3, rfft3

# default shells (integer mode magnitudes): pairwise disjoint and sumset-safe
TOWER_SHELLS = ((1.0, 2.0), (3.0, 4.0), (8.0, 10.0))


def _band_mask(grid: Grid3, kmin: float, kmax: float) -> np.ndarray:
    _, _, mode = _symbols(grid)
    return (mode >= kmin - 1e-9) & (mode <= kmax + 1e-9)


def _band_limited_hat(grid: Grid3, n_comps: int, rng, band) -> np.ndarray:
    """Spectrum of n_comps white-noise components restricted to `band`:
    only the band's modes are transformed, and every other mode is +0.0."""
    return rfft3(rng.standard_normal((n_comps,) + grid.shape), band)


def _sup_normalized(comps: np.ndarray) -> np.ndarray:
    sup = sup_abs(comps)
    if sup > 0:
        comps /= sup
    return comps


def random_form(grid: Grid3, degree: int, rng: np.random.Generator, kmax=6.0, kmin=1.0) -> GridField:
    """Random band-limited k-form with zero mean, sup-normalized."""
    band = _band_mask(grid, kmin, kmax)
    vh = _band_limited_hat(grid, FORM_COMPONENTS[degree], rng, band)
    return GridField(grid, degree, _sup_normalized(irfft3(vh, grid.shape)))


def random_vector_field(grid: Grid3, rng, kmax=6.0, kmin=1.0) -> GridField:
    """Random band-limited vector field (held as its flat, a 1-form)."""
    return random_form(grid, 1, rng, kmax=kmax, kmin=kmin)


def random_solenoidal(grid: Grid3, rng, kmax=6.0, kmin=1.0) -> GridField:
    """Random divergence-free, zero-mean, band-limited vector field."""
    K, K2, _ = _symbols(grid)
    band = _band_mask(grid, kmin, kmax)
    vh = _band_limited_hat(grid, 3, rng, band)
    # the Leray split and the K2 = 0 zeroing act mode by mode, so the band's
    # modes alone give the whole spectrum's bits; outside the band both hold
    # +0.0.  Only the transverse part is bound: the longitudinal one dies here
    k2 = K2[band]
    kb = [np.broadcast_to(k, K2.shape)[band] for k in K]
    vh[:, band] = _zero_k2(_leray(kb, k2, vh[:, band])[0], k2)
    return GridField(grid, 1, _sup_normalized(irfft3(vh, grid.shape)))


def shell_solenoidal(grid: Grid3, rng, shell) -> GridField:
    """Solenoidal field supported on one Fourier shell (mode magnitudes)."""
    lo, hi = shell
    return random_solenoidal(grid, rng, kmax=hi, kmin=lo)


def tower_pair(grid: Grid3, rng) -> tuple[GridField, GridField]:
    """Solenoidal pair with structurally vanishing product zero modes."""
    return (
        shell_solenoidal(grid, rng, TOWER_SHELLS[0]),
        shell_solenoidal(grid, rng, TOWER_SHELLS[1]),
    )


def tower_triple(grid: Grid3, rng):
    """Solenoidal triple safe for the full tower of product identities."""
    return tuple(shell_solenoidal(grid, rng, s) for s in TOWER_SHELLS)
