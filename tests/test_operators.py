"""Exterior-calculus operator identities on the periodic grid."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import _fields, _traced

from vortexlink import operators, random_fields
from vortexlink.errors import (
    MixedGridError,
    NonzeroHarmonicPart,
    NonzeroMean,
    NotDivergenceFree,
)
from vortexlink.grid import Grid3, GridField, cross, dot
from vortexlink.interpolate import fourier_eval
from vortexlink.operators import (
    codiff,
    contract,
    curl_inv,
    ext_d,
    hodge_star,
    integrate,
    irfft3,
    l2_inner,
    laplace_inv,
    rfft3,
    solenoidal_part,
    volume_form,
    wedge,
)
from vortexlink.random_fields import random_form, random_solenoidal, random_vector_field


def test_hodge_star_basis(grid32):
    # *(dx) = dy^dz: component permutation only
    one_form = GridField.zeros(grid32, 1)
    one_form.comps[0] = 1.0
    star = hodge_star(one_form)
    assert star.degree == 2
    assert np.array_equal(star.comps, one_form.comps)


def test_hodge_star_volume_identity(grid32, rng):
    f = rng.standard_normal(grid32.shape)
    three = GridField.from_scalar(grid32, f, degree=3)
    assert np.array_equal(hodge_star(three).comps[0], f)


def test_hodge_star_involution(grid32, rng):
    beta = random_form(grid32, 1, rng)
    assert np.array_equal(hodge_star(hodge_star(beta)).comps, beta.comps)


def test_alpha_matches_star_flat(grid32, rng):
    # iota_x nu = *(x flat): the interior product with the volume form is
    # the star of the field held as its flat
    x = random_vector_field(grid32, rng)
    a = contract(x, volume_form(grid32))
    assert a.degree == 2
    assert np.array_equal(a.comps, hodge_star(x).comps)
    assert np.array_equal(hodge_star(hodge_star(x)).comps, x.comps)


def test_ext_d_constant_and_dd(grid32, rng):
    const = GridField.from_scalar(grid32, np.ones(grid32.shape))
    assert ext_d(const).sup_norm() == 0.0
    f = random_form(grid32, 0, rng)
    assert ext_d(ext_d(f)).sup_norm() < 1e-10 * max(f.sup_norm(), 1)
    g = random_form(grid32, 1, rng)
    assert ext_d(ext_d(g)).sup_norm() < 1e-10 * max(g.sup_norm(), 1)


def test_ext_d_analytic(grid48):
    # d(sin(2 pi x / L) dy) = (2 pi / L) cos(2 pi x / L) dx^dy
    L = grid48.box_length
    x, _, _ = grid48.meshgrid()
    f = GridField.zeros(grid48, 1)
    f.comps[1] = np.sin(2 * np.pi * x / L)
    df = ext_d(f)
    want = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
    assert np.max(np.abs(df.comps[2] - want)) < 1e-10
    assert np.max(np.abs(df.comps[0])) < 1e-12
    assert np.max(np.abs(df.comps[1])) < 1e-12


def test_codiff_adjoint_all_degrees(grid32, rng):
    for k in range(3):
        f = random_form(grid32, k, rng)
        g = random_form(grid32, k + 1, rng)
        lhs = l2_inner(ext_d(f), g)
        rhs = l2_inner(f, codiff(g))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_codiff_squared_and_constant(grid32, rng):
    const = GridField.zeros(grid32, 1)
    const.comps[:] = 1.0
    assert codiff(const).sup_norm() == 0.0
    g = random_form(grid32, 2, rng)
    assert codiff(codiff(g)).sup_norm() < 1e-10


def test_codiff_is_minus_div(grid48):
    # xi = (sin x, cos y, sin z) on the 2 pi box: div xi = cos x - sin y + cos z
    x, y, z = grid48.meshgrid()
    xi = GridField(grid48, 1, np.stack([np.sin(x), np.cos(y), np.sin(z)]))
    div = np.cos(x) - np.sin(y) + np.cos(z)
    assert np.max(np.abs(codiff(xi).comps[0] + div)) < 1e-12


def test_wedge_basis_and_alternation(grid32, rng):
    dx = GridField.zeros(grid32, 1); dx.comps[0] = 1.0
    dy = GridField.zeros(grid32, 1); dy.comps[1] = 1.0
    w = wedge(dx, dy)
    assert np.all(w.comps[2] == 1.0) and np.all(w.comps[:2] == 0.0)
    v = random_form(grid32, 1, rng)
    assert wedge(v, v).sup_norm() == 0.0
    g = random_form(grid32, 2, rng)
    assert np.array_equal(wedge(v, g).comps, wedge(g, v).comps)


def test_wedge_leibniz(grid32, rng):
    f = random_form(grid32, 1, rng, kmax=4)
    g = random_form(grid32, 1, rng, kmax=4)
    lhs = ext_d(wedge(f, g))
    rhs = wedge(ext_d(f), g) - wedge(f, ext_d(g))
    assert (lhs - rhs).sup_norm() < 1e-8 * max(lhs.sup_norm(), 1)


def test_contract_basics(grid32, rng):
    # e_x held as its flat is dx
    dx = GridField.zeros(grid32, 1); dx.comps[0] = 1.0
    assert np.all(contract(dx, dx).comps[0] == 1.0)
    xi = random_vector_field(grid32, rng)
    assert contract(xi, hodge_star(xi)).sup_norm() == 0.0


def test_triple_contraction_is_determinant(grid32, rng):
    x1 = random_vector_field(grid32, rng)
    x2 = random_vector_field(grid32, rng)
    x3 = random_vector_field(grid32, rng)
    nu = volume_form(grid32)
    val = contract(x3, contract(x2, contract(x1, nu)))
    det = dot(cross(x1, x2), x3)
    assert np.max(np.abs(val.comps[0] - det)) < 1e-12


def test_laplace_inv_eigenfunction(grid48):
    L = grid48.box_length
    x, _, _ = grid48.meshgrid()
    f = GridField.from_scalar(grid48, np.sin(2 * np.pi * x / L))
    g = laplace_inv(f)
    want = (L / (2 * np.pi)) ** 2 * np.sin(2 * np.pi * x / L)
    assert np.max(np.abs(g.comps[0] - want)) < 1e-10
    assert laplace_inv(GridField.zeros(grid48, 0)).sup_norm() == 0.0


def test_laplace_inv_residual_and_gate(grid32, rng):
    f = random_form(grid32, 1, rng)
    g = laplace_inv(f)
    back = codiff(ext_d(g)) + ext_d(codiff(g))
    assert (back - f).sup_norm() < 1e-10 * f.sup_norm()
    bad = f.copy()
    bad.comps[0] += 1.0
    with pytest.raises(NonzeroHarmonicPart):
        laplace_inv(bad)


def test_curl_inv_abc_eigenfield(grid48):
    x, y, z = grid48.meshgrid()
    A = B = C = 1.0
    v = GridField(grid48, 1, np.stack([
        A * np.sin(z) + C * np.cos(y),
        B * np.sin(x) + A * np.cos(z),
        C * np.sin(y) + B * np.cos(x),
    ]))
    w = curl_inv(v)
    assert (w - v).sup_norm() < 1e-10 * v.sup_norm()


def test_curl_inv_roundtrip_and_gates(grid32, rng):
    b = random_solenoidal(grid32, rng)
    B = curl_inv(b)
    assert codiff(B).sup_norm() < 1e-10 * B.sup_norm()
    assert (hodge_star(ext_d(B)) - b).sup_norm() < 1e-8 * b.sup_norm()
    zero = GridField.zeros(grid32, 1)
    assert curl_inv(zero).sup_norm() == 0.0
    with pytest.raises(NotDivergenceFree):
        curl_inv(random_vector_field(grid32, rng))


def test_curl_inv_checks_divergence_before_mean(grid32, rng):
    # the divergence gate reads the spectrum curl_inv inverts; it still runs
    # first, so a field failing both gates reports its divergence
    constant = GridField(grid32, 1, np.broadcast_to(
        np.array([0.5, -1.0, 0.25])[:, None, None, None], (3,) + grid32.shape).copy())
    with pytest.raises(NonzeroMean, match="curl_inv input: component mean"):
        curl_inv(constant)
    both = random_vector_field(grid32, rng) + constant
    with pytest.raises(NotDivergenceFree, match="curl_inv input: relative divergence"):
        curl_inv(both)


def test_curl_grad_and_div_curl_vanish(grid32, rng):
    f = random_form(grid32, 0, rng)
    assert ext_d(ext_d(f)).sup_norm() < 1e-10
    x = random_vector_field(grid32, rng)
    curl_x = hodge_star(ext_d(x))
    assert codiff(curl_x).sup_norm() < 1e-10 * max(curl_x.sup_norm(), 1)


@pytest.mark.parametrize("n", [30, 31])
def test_top_mode_is_exact_at_even_and_odd_n(n):
    """f = cos(m z + 0.3) with m = (n - 1) // 2, the highest mode below
    Nyquist.  Odd n has no Nyquist mode, so m = 15 at n = 31 is an ordinary
    mode: d f keeps its wavenumber (zeroing it was off by 15.0) and
    fourier_eval weights its rfft plane twice (once was off by 0.50)."""
    grid = Grid3(n, 2 * np.pi)
    x, y, z = grid.meshgrid()
    m = (n - 1) // 2
    f = GridField.from_scalar(grid, np.cos(m * z + 0.3), degree=0)
    df = ext_d(f)
    want = np.stack([0 * z, 0 * z, -m * np.sin(m * z + 0.3)])
    assert np.max(np.abs(df.comps - want)) < 1e-12
    nodes = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)[::97]
    vals = fourier_eval(grid, f.comps, nodes)
    assert np.max(np.abs(vals[0] - np.cos(m * nodes[:, 2] + 0.3))) < 1e-12


def test_inner_product_translation_invariance(grid32, rng):
    f = random_form(grid32, 1, rng)
    g = random_form(grid32, 1, rng)
    before = l2_inner(f, g)
    shift = (3, 7, 11)
    fs = GridField(grid32, 1, np.roll(f.comps, shift, axis=(1, 2, 3)))
    gs = GridField(grid32, 1, np.roll(g.comps, shift, axis=(1, 2, 3)))
    # a lattice translation only reorders the sum: equal to rounding
    assert abs(l2_inner(fs, gs) - before) < 1e-13 * max(abs(before), 1)


def test_mixed_grid_rejected(grid32, rng):
    other = Grid3(32, 4.0)
    f = random_form(grid32, 1, rng)
    g = GridField.zeros(other, 1)
    with pytest.raises(MixedGridError):
        l2_inner(f, g)


def test_equal_grids_hash_equal():
    # box lengths a few ulps apart: equal grids, so one hash
    a, b = Grid3(96, 2 * math.pi), Grid3(96, 2 * math.pi * (1 + 1.5e-15))
    assert a.box_length != b.box_length
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_integrate_volume(grid32):
    nu = volume_form(grid32)
    assert abs(integrate(nu) - grid32.box_length**3) < 1e-9


def test_batched_fft_matches_per_component_bitwise(grid32, rng):
    # one call over the last three axes gives the bits of one call per component
    comps = rng.standard_normal((3,) + grid32.shape)
    hats = rfft3(comps)
    assert hats.tobytes() == np.stack([rfft3(c) for c in comps]).tobytes()
    # irfft3 overwrites its input, so each inverse gets its own copy
    back = irfft3(hats.copy(), grid32.shape)
    assert back.tobytes() == np.stack([irfft3(h.copy(), grid32.shape) for h in hats]).tobytes()



# shapes (components, N0, N1, N2): a scalar, an odd N, a six-component stack
# and an uneven box with odd and even sides
FFT_SHAPES = [(32, 32, 32), (3, 45, 45, 45), (6, 32, 32, 32), (2, 16, 15, 17)]


@pytest.mark.parametrize("shape", FFT_SHAPES, ids=["x".join(map(str, s)) for s in FFT_SHAPES])
def test_fft_gives_the_bits_of_scipy(shape, rng):
    # numpy's 1-D passes in the order of scipy's rfftn/irfftn give its bits
    sfft = pytest.importorskip("scipy.fft")
    a = rng.standard_normal(shape)
    ah = rfft3(a)
    assert ah.tobytes() == sfft.rfftn(a, axes=(-3, -2, -1)).tobytes()
    want = sfft.irfftn(ah, s=shape[-3:], axes=(-3, -2, -1))
    assert irfft3(ah, shape[-3:]).tobytes() == want.tobytes()


def test_fft_thread_split_is_exact(rng, monkeypatch):
    # one thread, the default and an uneven split over more threads than
    # cores, switching often, give one set of bits
    a = rng.standard_normal((3, 45, 45, 45))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", None, "7"):
            if threads is None:
                monkeypatch.delenv("VORTEXLINK_THREADS", raising=False)
            else:
                monkeypatch.setenv("VORTEXLINK_THREADS", threads)
            ah = rfft3(a)
            runs.append(ah.tobytes() + irfft3(ah, a.shape[1:]).tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]


# (N, kmin, kmax): the tower's three shells, and bands that reach the Nyquist
# planes of an even N (kmax >= N / 2) or the last modes of an odd one
BAND_CASES = [(24, 1.0, 2.0), (25, 3.0, 4.0), (32, 8.0, 10.0),
              (24, 1.0, 12.0), (25, 10.0, 13.0), (32, 0.0, 17.0)]


@pytest.mark.parametrize("n, kmin, kmax", BAND_CASES,
                         ids=[f"n{n}-k{kmin:g}-{kmax:g}" for n, kmin, kmax in BAND_CASES])
def test_banded_rfft3_keeps_the_bits_of_the_full_transform(n, kmin, kmax, rng, monkeypatch):
    # the band's modes carry the full transform's bits and every other mode
    # is +0.0, with one thread, the default and an uneven split over more
    # threads than cores
    grid = Grid3(n, 2 * np.pi)
    band = random_fields._band_mask(grid, kmin, kmax)
    a = rng.standard_normal((3,) + grid.shape)
    want = rfft3(a)[..., band].tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", None, "7"):
            if threads is None:
                monkeypatch.delenv("VORTEXLINK_THREADS", raising=False)
            else:
                monkeypatch.setenv("VORTEXLINK_THREADS", threads)
            ah = rfft3(a, band)
            assert ah[..., band].tobytes() == want
            outside = ah[..., ~band]
            assert not np.any(outside)
            assert not np.any(np.signbit(outside.real) | np.signbit(outside.imag))
    finally:
        sys.setswitchinterval(interval)


def test_irfft3_rejects_a_spectrum_of_another_shape(grid32, rng):
    ah = rfft3(rng.standard_normal(grid32.shape))
    with pytest.raises(ValueError, match="not the rfft3 of"):
        irfft3(ah, (32, 32, 30))


def test_kept_spectra_and_fields_are_not_overwritten(grid32, rng):
    # irfft3 overwrites its input, so the operators hand it only spectra of
    # their own: a caller's spectrum and every input field keep their bits
    from vortexlink.operators import divergence_residual, solenoidal_part

    b = random_solenoidal(grid32, rng)
    bh = rfft3(b.comps)
    keep = bh.copy()
    divergence_residual(b, bh)
    assert bh.tobytes() == keep.tobytes()
    for op, f in ((curl_inv, b), (solenoidal_part, b), (ext_d, b), (codiff, b),
                  (laplace_inv, b), (ext_d, hodge_star(b))):
        before = f.comps.copy()
        op(f)
        assert f.comps.tobytes() == before.tobytes()


def test_k_cross_in_place_matches_expression_bitwise(grid32, rng):
    # the in-place curl symbol against the expression it replaced
    from vortexlink.operators import _k_cross, _symbols

    K, _, _ = _symbols(grid32)
    KX, KY, KZ = K
    vh = rfft3(rng.standard_normal((3,) + grid32.shape))
    want = np.empty_like(vh)
    want[0] = 1j * (KY * vh[2] - KZ * vh[1])
    want[1] = 1j * (KZ * vh[0] - KX * vh[2])
    want[2] = 1j * (KX * vh[1] - KY * vh[0])
    assert _k_cross(K, vh).tobytes() == want.tobytes()


# -- pointwise kernels against the stacked expressions they replaced ---------

def _stacked_cross(u, v):
    return np.stack([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def _kernel_inputs(grid, rng, case):
    """Two (3, N, N, N) inputs: random fields, or an all-zero or all -0.0
    first input against a random second one, or two all -0.0 inputs."""
    shape = (3,) + grid.shape
    b = rng.standard_normal(shape)
    if case == "random":
        return rng.standard_normal(shape), b
    if case == "zero":
        return np.zeros(shape), b
    if case == "negative_zero":
        return np.full(shape, -0.0), b
    return np.full(shape, -0.0), np.full(shape, -0.0)


KERNEL_CASES = ["random", "zero", "negative_zero", "both_negative_zero"]


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_pointwise_products_match_stacked_expressions_bitwise(grid32, rng, case):
    u, v = _kernel_inputs(grid32, rng, case)
    one_u, one_v = GridField(grid32, 1, u), GridField(grid32, 1, v)
    two_v = GridField(grid32, 2, v)
    assert cross(one_u, one_v).comps.tobytes() == _stacked_cross(u, v).tobytes()
    assert dot(one_u, one_v).tobytes() == np.sum(u * v, axis=0).tobytes()
    # wedge 1^1 and 1^2 (and 2^1, which swaps its arguments with no sign)
    assert wedge(one_u, one_v).comps.tobytes() == _stacked_cross(u, v).tobytes()
    assert wedge(one_u, two_v).comps.tobytes() == np.sum(u * v, axis=0)[None].tobytes()
    assert wedge(two_v, one_u).comps.tobytes() == np.sum(u * v, axis=0)[None].tobytes()
    # contract of a 1-form and of a 2-form (iota_x beta = beta_vec x x)
    assert contract(one_u, one_v).comps.tobytes() == np.sum(u * v, axis=0)[None].tobytes()
    assert contract(one_u, two_v).comps.tobytes() == _stacked_cross(v, u).tobytes()


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_spectral_symbols_match_stacked_expressions_bitwise(grid32, rng, case):
    from vortexlink.operators import _div, _grad, _k_dot, _k_grad, _symbols

    K, _, _ = _symbols(grid32)
    KX, KY, KZ = K
    u, _ = _kernel_inputs(grid32, rng, case)
    fh = rfft3(u[0])
    want_grad = np.stack([1j * k * fh for k in K])
    assert _k_grad(K, fh).tobytes() == want_grad.tobytes()
    assert _grad(grid32, u[0]).tobytes() == irfft3(want_grad, grid32.shape).tobytes()
    vh = rfft3(u)
    want_div = 1j * (KX * vh[0] + KY * vh[1] + KZ * vh[2])
    assert _k_dot(K, vh).tobytes() == want_div.tobytes()
    # summed inside a spectrum it may spend, as ext_d of a 2-form does
    assert _k_dot(K, vh.copy(), overwrite=True).tobytes() == want_div.tobytes()
    assert _div(grid32, u).tobytes() == irfft3(want_div, grid32.shape).tobytes()


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_sup_norm_matches_max_abs_bitwise(grid32, rng, case):
    u, v = _kernel_inputs(grid32, rng, case)
    for f in (GridField(grid32, 1, u), GridField(grid32, 2, v), GridField(grid32, 3, u[:1])):
        want = float(np.max(np.abs(f.comps)))
        got = f.sup_norm()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if case != "random":
        # an all-zero or all -0.0 field has norm +0.0
        assert math.copysign(1.0, GridField(grid32, 1, u).sup_norm()) == 1.0


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_masked_rms_matches_stacked_expression_bitwise(grid32, rng, case):
    from vortexlink.massey import MaskedDomain

    mask = rng.uniform(0.0, 1.0, grid32.shape)
    mask[0] = 0.0
    # masked_rms reads the mask alone
    dom = MaskedDomain(grid32, mask, None, None, 0.0, 0.0)
    u, _ = _kernel_inputs(grid32, rng, case)
    for f in (GridField(grid32, 2, u), GridField(grid32, 3, u[:1])):
        t = mask[None] * f.comps
        t *= t
        want = float(np.sqrt(np.mean(np.sum(t, axis=0))))
        assert np.float64(dom.masked_rms(f)).tobytes() == np.float64(want).tobytes()


def test_leray_callers_keep_only_the_transverse_part(grid32, rng, monkeypatch):
    # random_solenoidal and solenoidal_part bind the transverse part of the
    # Leray split alone, so the longitudinal part is freed before the
    # inverse transform starts
    live = []
    inverse = operators.irfft3

    def recording(ah, shape):
        live.append(tracemalloc.get_traced_memory()[0])
        return inverse(ah, shape)

    monkeypatch.setattr(operators, "irfft3", recording)
    monkeypatch.setattr(random_fields, "irfft3", recording)
    x = random_vector_field(grid32, rng)
    random_solenoidal(grid32, rng)  # warm the symbol and band caches
    for run in (lambda: random_solenoidal(grid32, rng), lambda: solenoidal_part(x)):
        live.clear()
        _, base, peak = _traced(run)
        # one three-component half spectrum (1.02 fields) at the inverse
        # transform, 2.1 when the longitudinal part is kept as well
        assert _fields(live[0] - base, grid32) < 1.5
        # random_solenoidal peaked at 4.13 fields with it; solenoidal_part
        # peaks at 3.54 in the split itself, random_solenoidal at 2.63 in its
        # banded transform (3.54 when it split the whole spectrum)
        assert _fields(peak - base, grid32) < 3.7


# the reference recipe of the draws: the whole spectrum transformed, the
# modes outside the band set to zero, then the whole spectrum projected


def _full_grid_hat(grid, n_comps, rng, kmax, kmin):
    hat = rfft3(rng.standard_normal((n_comps,) + grid.shape))
    hat[..., ~random_fields._band_mask(grid, kmin, kmax)] = 0.0
    return hat


def _full_grid_normalized(comps):
    sup = np.max(np.abs(comps))
    if sup > 0:
        comps /= sup
    return comps


def _full_grid_solenoidal(grid, rng, kmax, kmin):
    K, K2, _ = operators._symbols(grid)
    vh = _full_grid_hat(grid, 3, rng, kmax, kmin)
    vh = operators._zero_k2(operators._leray(K, K2, vh)[0], K2)
    return _full_grid_normalized(irfft3(vh, grid.shape))


@pytest.mark.parametrize("n", [32, 33])
@pytest.mark.parametrize("seed", range(5))
def test_band_limited_draws_match_the_full_grid_recipe(n, seed):
    grid = Grid3(n, 2 * np.pi)
    for lo, hi in random_fields.TOWER_SHELLS:
        got = random_fields.shell_solenoidal(grid, np.random.default_rng(seed), (lo, hi))
        want = _full_grid_solenoidal(grid, np.random.default_rng(seed), hi, lo)
        assert got.comps.tobytes() == want.tobytes()
    got = random_solenoidal(grid, np.random.default_rng(seed))
    want = _full_grid_solenoidal(grid, np.random.default_rng(seed), 6.0, 1.0)
    assert got.comps.tobytes() == want.tobytes()
    for degree in range(4):
        got = random_form(grid, degree, np.random.default_rng(seed))
        want = _full_grid_hat(grid, got.comps.shape[0], np.random.default_rng(seed), 6.0, 1.0)
        assert got.comps.tobytes() == _full_grid_normalized(irfft3(want, grid.shape)).tobytes()
