"""The spectral-state CG of `solve_primitive` against the physical-space CG it
replaced.

The references below are the old loop: CG vectors held as real fields, the
normal operator applied with `ext_d`/`codiff` and the preconditioner as an
FFT, a Leray split and a division.  The new solver holds rfft3 coefficients
and must reach the same iterates up to rounding.
"""

import numpy as np
import pytest
from conftest import _fields, _traced

from vortexlink.curves import split_triple
from vortexlink.grid import Grid3, GridField
from vortexlink.massey import (
    MaskedDomain,
    MasseyConfig,
    _parseval_weights,
    _precondition,
    _precondition_symbols,
    _spectral_dot,
    solve_primitive,
)
from vortexlink.operators import (
    _leray,
    _symbols,
    _zero_k2,
    codiff,
    ext_d,
    irfft3,
    rfft3,
)
from vortexlink.random_fields import random_form

L = 2 * np.pi


def reference_precondition(grid, r_comps, reg, shift):
    """Spectral inverse of delta d + reg * d delta + shift, from a real field."""
    K, K2, _ = _symbols(grid)
    tra, lon = _leray(K, K2, rfft3(r_comps))
    with np.errstate(divide="ignore", invalid="ignore"):
        vh = tra / (K2 + shift) + lon / (reg * K2 + shift)
    if shift == 0.0:
        _zero_k2(vh, K2)
    return irfft3(vh, grid.shape)


def reference_solve(omega, dom, cfg):
    """The physical-space preconditioned CG: (v, iterations)."""
    grid = omega.grid
    m2 = dom.mask**2
    shift = cfg.core_shift / dom.r_mask**2

    def apply_A(vc):
        v = GridField(grid, 1, vc)
        term1 = codiff(GridField(grid, 2, m2[None] * ext_d(v).comps))
        term2 = ext_d(codiff(v))
        return term1.comps + cfg.reg * term2.comps + shift * dom.core[None] * vc

    rhs = -codiff(GridField(grid, 2, m2[None] * omega.comps)).comps
    rhs_norm = float(np.sqrt(np.sum(rhs**2)))
    v = np.zeros_like(rhs)
    r = rhs.copy()
    z = reference_precondition(grid, r, cfg.reg, shift)
    p = z.copy()
    rz = float(np.sum(r * z))
    for niter in range(1, cfg.cg_maxiter + 1):
        Ap = apply_A(p)
        alpha_step = rz / float(np.sum(p * Ap))
        v += alpha_step * p
        r -= alpha_step * Ap
        if float(np.sqrt(np.sum(r**2))) / rhs_norm <= cfg.cg_tol:
            return v, niter
        z = reference_precondition(grid, r, cfg.reg, shift)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


@pytest.fixture(scope="module")
def grid24():
    return Grid3(24, L)


@pytest.fixture(scope="module")
def masked24(grid24):
    return MaskedDomain.build(split_triple(tube_radius=0.42), grid24)


@pytest.mark.parametrize("n", [8, 9, 16, 15])
def test_parseval_dot_matches_physical_sum(n, rng):
    a = rng.standard_normal((3, n, n, n))
    b = a + 0.5 * rng.standard_normal(a.shape)
    w = _parseval_weights(n)
    ah, bh = rfft3(a), rfft3(b)
    for x, y, xh, yh in ((a, b, ah, bh), (a, a, ah, ah)):
        want = float(np.sum(x * y))
        assert abs(_spectral_dot(xh, yh, w) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("shift", [0.0, 3.6])
@pytest.mark.parametrize("reg", [1.0, 0.3])
def test_diagonal_precondition_matches_leray(grid24, rng, reg, shift):
    r = random_form(grid24, 1, rng, kmax=12).comps
    want = reference_precondition(grid24, r, reg, shift)
    symbols = _precondition_symbols(grid24, reg, shift)
    got = irfft3(_precondition(rfft3(r), symbols), grid24.shape)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("reg, cg_tol", [(1.0, 1e-8), (0.5, 1e-5)])
def test_spectral_cg_matches_physical_cg(grid24, masked24, rng, reg, cg_tol):
    omega = ext_d(random_form(grid24, 1, rng, kmax=4))
    cfg = MasseyConfig(reg=reg, cg_tol=cg_tol)
    want, iterations = reference_solve(omega, masked24, cfg)
    v, info = solve_primitive(omega, masked24, cfg, gate_periods=False)
    assert info["iterations"] == iterations > 16
    assert np.max(np.abs(v.comps - want)) <= 1e-12 * np.max(np.abs(want))
    tele = info["telemetry"]
    assert tele["iterations"] == iterations
    assert tele["fft_calls"] == 4 * iterations + 2
    assert len(tele["residual_every_16"]) == iterations // 16


def test_solve_keeps_only_the_cg_state_alive(grid48, rng):
    """The right-hand side dies once transformed, z before the next apply_A
    and apply_A's masked field before its core field is made."""
    dom = MaskedDomain.build(split_triple(tube_radius=0.42), grid48)
    omega = random_form(grid48, 2, rng)
    cfg = MasseyConfig(cg_tol=0.1)
    solve_primitive(omega, dom, cfg, gate_periods=False)  # warm the symbol caches
    (_, info), base, peak = _traced(
        lambda: solve_primitive(omega, dom, cfg, gate_periods=False))
    assert info["iterations"] > 0
    # 11.1 fields with the right-hand side, z and the masked field kept
    # through every apply_A; 8.7 now
    assert _fields(peak - base, grid48) < 9.2
