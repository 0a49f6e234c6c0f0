"""Exterior-calculus operator identities on the periodic grid."""

import numpy as np
import pytest

from vortexlink.errors import (
    MixedGridError,
    NonzeroHarmonicPart,
    NotDivergenceFree,
)
from vortexlink.grid import Grid3, GridField, VectorField, cross, dot
from vortexlink.operators import (
    alpha,
    alpha_inv,
    codiff,
    contract,
    curl_inv,
    ext_d,
    harmonic_proj,
    hodge_star,
    integrate,
    irfft3,
    l2_inner,
    l2_inner_exact,
    laplace_inv,
    musical,
    musical_inv,
    rfft3,
    spectral_div,
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


def test_musical_roundtrip(grid32, rng):
    x = random_vector_field(grid32, rng)
    assert np.array_equal(musical_inv(musical(x)).comps, x.comps)
    const = VectorField.zeros(grid32)
    const.comps[0] = 1.0
    assert np.array_equal(musical(const).comps, const.comps)


def test_alpha_matches_star_flat(grid32, rng):
    x = random_vector_field(grid32, rng)
    assert np.array_equal(alpha(x).comps, hodge_star(musical(x)).comps)
    assert np.array_equal(alpha_inv(alpha(x)).comps, x.comps)
    zero = VectorField.zeros(grid32)
    assert alpha(zero).sup_norm() == 0.0


def test_alpha_coordinate_formula(grid32):
    x = VectorField.zeros(grid32)
    x.comps[0] = 1.0
    a = alpha(x)
    assert a.comps[0].min() == 1.0 and a.comps[1].max() == 0.0


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


def test_codiff_is_minus_div(grid32, rng):
    xi = random_vector_field(grid32, rng)
    lhs = codiff(musical(xi)).comps[0]
    rhs = -spectral_div(xi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


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
    ex = VectorField.zeros(grid32); ex.comps[0] = 1.0
    dx = GridField.zeros(grid32, 1); dx.comps[0] = 1.0
    assert np.all(contract(ex, dx).comps[0] == 1.0)
    xi = random_vector_field(grid32, rng)
    assert contract(xi, alpha(xi)).sup_norm() == 0.0


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


def test_harmonic_proj(grid32, rng):
    const = GridField.zeros(grid32, 1)
    const.comps[1] = 2.5
    assert np.array_equal(harmonic_proj(const).comps, const.comps)
    f = random_form(grid32, 0, rng)
    assert harmonic_proj(f).sup_norm() < 1e-13
    shifted = f + const if False else GridField(grid32, 0, f.comps + 3.0)
    assert abs(harmonic_proj(shifted).comps[0][0, 0, 0] - 3.0) < 1e-12


def test_curl_inv_abc_eigenfield(grid48):
    x, y, z = grid48.meshgrid()
    A = B = C = 1.0
    v = VectorField(grid48, np.stack([
        A * np.sin(z) + C * np.cos(y),
        B * np.sin(x) + A * np.cos(z),
        C * np.sin(y) + B * np.cos(x),
    ]))
    w = curl_inv(v)
    assert (w - v).sup_norm() < 1e-10 * v.sup_norm()


def test_curl_inv_roundtrip_and_gates(grid32, rng):
    b = random_solenoidal(grid32, rng)
    B = curl_inv(b)
    assert np.max(np.abs(spectral_div(B))) < 1e-10 * B.sup_norm()
    d1 = ext_d(musical(B))
    assert (alpha_inv(d1) - b).sup_norm() < 1e-8 * b.sup_norm()
    zero = VectorField.zeros(grid32)
    assert curl_inv(zero).sup_norm() == 0.0
    with pytest.raises(NotDivergenceFree):
        curl_inv(random_vector_field(grid32, rng))


def test_curl_grad_and_div_curl_vanish(grid32, rng):
    f = random_form(grid32, 0, rng)
    assert ext_d(ext_d(f)).sup_norm() < 1e-10
    x = random_vector_field(grid32, rng)
    curl_x = alpha_inv(ext_d(musical(x)))
    assert np.max(np.abs(spectral_div(curl_x))) < 1e-10 * max(curl_x.sup_norm(), 1)


def test_inner_product_translation_invariance(grid32, rng):
    f = random_form(grid32, 1, rng)
    g = random_form(grid32, 1, rng)
    before = l2_inner_exact(f, g)
    shift = (3, 7, 11)
    fs = GridField(grid32, 1, np.roll(f.comps, shift, axis=(1, 2, 3)))
    gs = GridField(grid32, 1, np.roll(g.comps, shift, axis=(1, 2, 3)))
    assert l2_inner_exact(fs, gs) == before
    # the fast path agrees to rounding
    assert abs(l2_inner(fs, gs) - before) < 1e-13 * max(abs(before), 1)


def test_mixed_grid_rejected(grid32, rng):
    other = Grid3(32, 4.0)
    f = random_form(grid32, 1, rng)
    g = GridField.zeros(other, 1)
    with pytest.raises(MixedGridError):
        l2_inner(f, g)


def test_integrate_volume(grid32):
    nu = volume_form(grid32)
    assert abs(integrate(nu) - grid32.box_length**3) < 1e-9


def test_batched_fft_matches_per_component_bitwise(grid32, rng):
    # one call over the last three axes gives the bits of one call per component
    comps = rng.standard_normal((3,) + grid32.shape)
    hats = rfft3(comps)
    assert hats.tobytes() == np.stack([rfft3(c) for c in comps]).tobytes()
    back = irfft3(hats, grid32.shape)
    assert back.tobytes() == np.stack([irfft3(h, grid32.shape) for h in hats]).tobytes()



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
