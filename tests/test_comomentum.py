"""The co-momentum tower: defining identities and bracket structure."""

import numpy as np
import pytest
from conftest import _fields, _LiveTimer, _traced

from vortexlink.comomentum import (
    abc_flow,
    equivariance_defect,
    euler_vorticity_rhs,
    f1,
    f2,
    hamiltonian_residual,
    hydro_bracket,
    kks_pairing,
    loop_2form,
    mu2,
    mu2_certificates,
    pair_contraction,
    pair_identities,
    rasetti_regge,
    comomentum_report,
    tower_bracket,
    triple_evaluation_residual,
)
from vortexlink.curves import circle
from vortexlink.errors import NotDivergenceFree
from vortexlink.grid import Grid3, GridField, cross, dot
from vortexlink.operators import codiff, ext_d
from vortexlink.random_fields import (
    random_vector_field,
    shell_solenoidal,
    tower_pair,
    tower_triple,
)
from vortexlink.reports import StageTimer


def test_hydro_bracket_antisymmetry(grid32, rng):
    b = shell_solenoidal(grid32, rng, (1, 3))
    c = shell_solenoidal(grid32, rng, (1, 3))
    assert hydro_bracket(b, b).sup_norm() == 0.0
    lhs = hydro_bracket(b, c)
    rhs = hydro_bracket(c, b)
    assert (lhs + rhs).sup_norm() == 0.0
    assert codiff(lhs).sup_norm() < 1e-10 * lhs.sup_norm()


def test_hydro_bracket_single_modes(grid48):
    # b = (0,0,sin x), c = (0,sin x,0): b x c = (-sin^2 x, 0, 0), curl = 0
    x, _, _ = grid48.meshgrid()
    zeros = np.zeros_like(x)
    b = GridField(grid48, 1, np.stack([zeros, zeros, np.sin(x)]))
    c = GridField(grid48, 1, np.stack([zeros, np.sin(x), zeros]))
    assert (cross(b, c).comps[0] + np.sin(x) ** 2).max() < 1e-14
    assert hydro_bracket(b, c).sup_norm() < 1e-12


def test_hydro_bracket_rejects_nonsolenoidal(grid32, rng):
    # every public tower function gates each field argument it takes, also
    # where the fields are checked once and the brackets not at all
    b = shell_solenoidal(grid32, rng, (1, 3))
    c = shell_solenoidal(grid32, rng, (3, 4))
    bad = random_vector_field(grid32, rng)
    calls = {
        "hydro_bracket": lambda: hydro_bracket(b, bad),
        "tower_bracket": lambda: tower_bracket(bad, b),
        "mu2": lambda: mu2(b, bad),
        "f2": lambda: f2(bad, b),
        "triple slot 1": lambda: triple_evaluation_residual(bad, b, c),
        "triple slot 2": lambda: triple_evaluation_residual(b, bad, c),
        "triple slot 3": lambda: triple_evaluation_residual(b, c, bad),
        "equivariance xi": lambda: equivariance_defect(bad, b),
        "equivariance b": lambda: equivariance_defect(b, bad),
    }
    for name, call in calls.items():
        with pytest.raises(NotDivergenceFree):
            call()
            pytest.fail(f"{name} accepted a non-solenoidal field")


def test_f1_abc_eigenfield(grid48):
    v = abc_flow(grid48)
    h = f1(v)
    assert (h + v).sup_norm() < 1e-10 * v.sup_norm()


def test_f1_zero_linear_and_hamiltonian(grid32, rng):
    assert f1(GridField.zeros(grid32, 1)).sup_norm() == 0.0
    b, c = tower_pair(grid32, rng)
    lin = f1(2.0 * b + c) - (2.0 * f1(b) + f1(c))
    assert lin.sup_norm() < 1e-12
    assert hamiltonian_residual(f1(b), b) < 1e-8


def test_mu2_certificates_and_antisymmetry(grid32, rng):
    b, c = tower_pair(grid32, rng)
    m = mu2(b, c)
    cert = mu2_certificates(m)
    assert cert["closedness"] < 1e-8
    assert cert["harmonic_part"] < 1e-10
    assert mu2(b, b).sup_norm() == 0.0
    assert (mu2(b, c) + mu2(c, b)).sup_norm() < 1e-13


def test_mu2_harmonic_part_is_the_largest_component_mean(grid32, rng):
    # the certificate reads max|component mean|, the sup norm of the
    # harmonic part on the flat torus (each component's mean, broadcast)
    b, c = tower_pair(grid32, rng)
    m = mu2(b, c)
    shifted = m + GridField(grid32, 1, np.broadcast_to(
        np.array([0.3, -0.7, 0.1])[:, None, None, None], m.comps.shape).copy())
    for form in (m, shifted):
        want = float(np.max(np.abs(form.mean()))) / form.sup_norm()
        assert mu2_certificates(form)["harmonic_part"] == want
    assert mu2_certificates(shifted)["harmonic_part"] > 0.1


def test_f2_identities(grid32, rng):
    b, c = tower_pair(grid32, rng)
    assert f2(b, b).sup_norm() == 0.0
    assert pair_identities(b, c)["eq26"] < 1e-6
    assert abs(float(f2(b, c).comps[0].mean())) < 1e-12


def _nonharmonic_residual(lhs, den):
    lhs = GridField(lhs.grid, lhs.degree, lhs.comps - lhs.mean()[:, None, None, None])
    return lhs.sup_norm() / den


def test_pair_identities_match_one_by_one_evaluation(grid32, rng):
    # the shared objects give the bits of mu2, f2 and f1 evaluated separately
    b, c = tower_pair(grid32, rng)
    got = pair_identities(b, c)
    m = mu2(b, c)
    eq26 = _nonharmonic_residual(ext_d(f2(b, c)) - m, m.sup_norm())
    pb = pair_contraction(b, c)
    eq29 = _nonharmonic_residual(pb - f1(tower_bracket(b, c)) + ext_d(f2(b, c)), pb.sup_norm())
    harm = mu2_certificates(mu2(b, c))["harmonic_part"]
    assert got == {"eq26": eq26, "eq29": eq29, "harmonic_part": harm}
    assert 0 < eq26 < 1e-6 and 0 < eq29 < 1e-6


def test_triple_evaluation(grid32, rng):
    x1, x2, x3 = tower_triple(grid32, rng)
    assert triple_evaluation_residual(x1, x2, x3) < 1e-5


def test_bracket_defect_identity(grid32, rng):
    b, c = tower_pair(grid32, rng)
    assert pair_identities(b, c)["eq29"] < 1e-6


def test_equivariance_defect_abc(grid48):
    from vortexlink.grid import GridField

    v = abc_flow(grid48)
    defect = equivariance_defect(v, v)
    assert np.array_equal(equivariance_defect(v, v, h=f1(v)).comps, defect.comps)
    # equals -d<B, b> = -d|v|^2 for the curl eigenfield
    dh = ext_d(GridField(grid48, 0, dot(v, v)[None]))
    assert (defect + dh).sup_norm() < 1e-10 * dh.sup_norm()
    assert defect.sup_norm() > 0.1 * float(np.max(dot(v, v)))


def test_equivariance_defect_zero_helicity_mode(grid48):
    x, _, _ = grid48.meshgrid()
    zeros = np.zeros_like(x)
    b = GridField(grid48, 1, np.stack([zeros, np.sin(x), zeros]))
    assert equivariance_defect(b, b).sup_norm() < 1e-8
    assert equivariance_defect(GridField.zeros(grid48, 1), b).sup_norm() == 0.0


def test_equivariance_defect_bilinear(grid32, rng):
    xi = shell_solenoidal(grid32, rng, (1, 2))
    b1 = shell_solenoidal(grid32, rng, (3, 4))
    b2 = shell_solenoidal(grid32, rng, (3, 4))
    lhs = equivariance_defect(xi, b1 + b2)
    rhs = equivariance_defect(xi, b1) + equivariance_defect(xi, b2)
    assert (lhs - rhs).sup_norm() < 1e-10 * max(rhs.sup_norm(), 1e-30)


def test_kks_pairing(grid32, rng):
    w = shell_solenoidal(grid32, rng, (1, 2))
    b = shell_solenoidal(grid32, rng, (3, 4))
    c = shell_solenoidal(grid32, rng, (3, 4))
    assert abs(kks_pairing(w, b, c) + kks_pairing(w, c, b)) < 1e-12
    # w orthogonal to b x c everywhere: pair w with b x w-ish degenerate case
    assert abs(kks_pairing(b, b, c)) < 1e-12


def test_kks_pairing_single_modes(grid48):
    # w = (0,0,sin x), b = (0, sin x, 0), c = (cos x, 0, 0):
    # det[w,b,c] = <w, b x c> ; b x c = (0,0,-sin x cos x)...
    x, _, _ = grid48.meshgrid()
    zeros = np.zeros_like(x)
    w = GridField(grid48, 1, np.stack([zeros, zeros, np.sin(x)]))
    b = GridField(grid48, 1, np.stack([zeros, np.sin(x), zeros]))
    c = GridField(grid48, 1, np.stack([np.cos(x), zeros, zeros]))
    # <w, b x c> = sin(x) * (-sin x cos x) integrates to 0 over the period
    assert abs(kks_pairing(w, b, c)) < 1e-10
    c2 = GridField(grid48, 1, np.stack([np.sin(x), zeros, zeros]))
    want = -(2 * np.pi) ** 3 / 2  # integral of -sin^2 x over the box... see below
    # b x c2 = (0, 0, -sin^2 x); <w, .> = -sin^3 x integrates to zero
    assert abs(kks_pairing(w, b, c2)) < 1e-10


def test_euler_vorticity_rhs(grid48, rng):
    v = abc_flow(grid48)
    assert euler_vorticity_rhs(v).sup_norm() < 1e-8
    assert euler_vorticity_rhs(GridField.zeros(grid48, 1)).sup_norm() == 0.0
    w = shell_solenoidal(grid48, rng, (1, 3))
    rhs = euler_vorticity_rhs(w)
    assert codiff(rhs).sup_norm() < 1e-10 * max(rhs.sup_norm(), 1e-30)


def test_rasetti_regge_zero_field_and_reversal(grid32, rng):
    gamma = circle((0, 0, 0), (0, 0, 1), 1.0, n_samples=64)
    assert rasetti_regge(GridField.zeros(grid32, 1), gamma.polygon()) == 0.0
    b = shell_solenoidal(grid32, rng, (1, 3))
    forward = rasetti_regge(b, gamma.polygon())
    backward = rasetti_regge(b, gamma.polygon().reversed())
    assert abs(forward + backward) < 1e-9 + 1e-6 * abs(forward)


def test_rasetti_regge_gauge_independence(grid32, rng):
    # adding an exact form to the potential cannot change a loop integral
    from vortexlink.interpolate import sample_form1_along
    from vortexlink.random_fields import random_form

    gamma = circle((0, 0, 0), (0, 0, 1), 1.2, n_samples=256).polygon()
    phi = random_form(grid32, 0, rng, kmax=3)
    dphi = ext_d(phi)
    loop = sample_form1_along(dphi, gamma, subdiv=64)
    assert abs(loop) < 1e-9 * max(dphi.sup_norm(), 1)


def test_loop_2form(grid32):
    # planar circle, u radial, v vertical: Omega = -2 pi R
    R = 1.5
    gamma = circle((0, 0, 0), (0, 0, 1), R, n_samples=512).polygon()
    verts = gamma.vertices
    u = verts / np.linalg.norm(verts, axis=1)[:, None]
    v = np.tile(np.array([0.0, 0.0, 1.0]), (len(verts), 1))
    val = loop_2form(gamma, u, v)
    assert abs(val + 2 * np.pi * R) < 1e-3 * 2 * np.pi * R
    assert loop_2form(gamma, u, u) == 0.0
    tangents = np.roll(verts, -1, axis=0) - verts
    assert abs(loop_2form(gamma, tangents, tangents)) == 0.0


def test_comomentum_report_passes(grid32, rng):
    # the command's suite at N = 32: every gated certificate passes
    section = comomentum_report(grid32, rng, 2, 1, StageTimer())
    gated = {k: v for k, v in section.items() if "pass" in v}
    assert set(gated) == {"eq25", "eq26", "eq27", "eq29", "gauge", "mu2_harmonic_part"}
    assert all(v["pass"] for v in gated.values()), gated
    # the suite pairs the first two tower shells; pairs with the third here
    a, b, c = tower_triple(grid32, rng)
    h = f1(c)
    assert hamiltonian_residual(h, c) < 1e-8
    assert codiff(h).sup_norm() < 1e-9 * h.sup_norm()
    for x in (a, b):
        ident = pair_identities(x, c)
        assert ident["eq26"] < 1e-6
        assert ident["eq29"] < 1e-6


# -- lifetimes, in units of one (3, N, N, N) float64 field -------------------

def test_no_suite_field_outlives_its_suite(grid32, rng):
    # warm the per-grid symbol cache outside the trace
    comomentum_report(grid32, np.random.default_rng(0), 1, 1, StageTimer())
    timer = _LiveTimer()
    _, base, peak = _traced(
        lambda: comomentum_report(grid32, rng, 1, 1, timer))
    for stage in ("eq25_suite", "eq26_eq29_suite", "eq27_suite"):
        assert _fields(timer.live[stage] - base, grid32) < 0.1, (stage, timer.live)
    # a pair's or a triple's working set, not the suites' leftovers (13.8
    # fields when each suite kept its last fields and eq. 27 built its three
    # brackets up front)
    assert _fields(peak - base, grid32) <= 9


def test_triple_evaluation_builds_one_bracket_at_a_time(grid32, rng):
    x = tower_triple(grid32, rng)
    triple_evaluation_residual(*x)  # warm the symbol cache
    value, base, peak = _traced(lambda: triple_evaluation_residual(*x))
    assert value < 1e-5
    # 7.8 fields with all three brackets alive, 5.8 when curl_inv kept its
    # input's spectrum through the inverse transform
    assert _fields(peak - base, grid32) <= 5.5


def test_pair_identities_hold_no_extra_field(grid32, rng):
    # one numerator serves eq. 26 and eq. 29, and its harmonic part is
    # removed in place: 6.3 fields with a sum temporary and a harmonic copy,
    # 5.4 with a second numerator for eq. 29, 4.65 now
    b, c = tower_pair(grid32, rng)
    pair_identities(b, c)  # warm the symbol cache
    _, base, peak = _traced(lambda: pair_identities(b, c))
    assert _fields(peak - base, grid32) <= 5.0
