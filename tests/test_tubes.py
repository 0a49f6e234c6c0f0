"""Tube 2-forms, disc duals and helicity."""

import numpy as np
import pytest
from conftest import borromean_venn

from vortexlink.curves import (
    PlanarCurve,
    TubeParams,
    circle,
    hopf_link,
    split_link,
)
from vortexlink.errors import TubeOverlap, TubeTooThin
from vortexlink.grid import Grid3, GridField
from vortexlink import tubes
from vortexlink.operators import curl_inv, ext_d, hodge_star, solenoidal_part
from vortexlink.tubes import (
    LinkFields,
    disc_dual_1form,
    disc_flux,
    helicity,
    link_helicity,
    meridian_period,
    tube_2form,
    validate_scene,
)


@pytest.fixture(scope="module")
def grid96():
    return Grid3(96, 2 * np.pi)


@pytest.fixture(scope="module")
def hopf_fields(grid96):
    link = hopf_link()
    return link, LinkFields.build(link, grid96)


def test_tube_cross_section_flux(grid96):
    c = circle((0, 0, 0), (0, 0, 1), 1.0)
    r = 6 * grid96.spacing
    om = tube_2form(c, TubeParams(r), grid96)
    cross_section = circle((1.0, 0, 0), (0, 1, 0), 2.5 * r)
    assert abs(disc_flux(om, cross_section) - 1.0) < 0.01


def tube_d_residual(om: GridField, radius: float) -> float:
    """Closedness defect of a constructed tube 2-form, nondimensionalized by
    the mollifier scale (gradients of omega are of order sup|omega|/radius)."""
    n = om.sup_norm()
    return ext_d(om).sup_norm() * radius / n if n > 0 else 0.0


def test_tube_d_residual(grid96):
    c = circle((0, 0, 0), (0, 0, 1), 1.0)
    r = 6 * grid96.spacing
    om = tube_2form(c, TubeParams(r), grid96)
    assert tube_d_residual(om, r) < 1e-3


def test_tube_flux_translation_invariance(grid96):
    r = 6 * grid96.spacing
    c = circle((0, 0, 0), (0, 0, 1), 1.0)
    om = tube_2form(c, TubeParams(r), grid96)
    f0 = disc_flux(om, circle((1.0, 0, 0), (0, 1, 0), 2.5 * r))
    shift = np.array([4, -7, 3]) * grid96.spacing
    om2 = tube_2form(c.translated(shift), TubeParams(r), grid96)
    f1 = disc_flux(om2, circle(np.array([1.0, 0, 0]) + shift, (0, 1, 0), 2.5 * r))
    assert abs(f1 - f0) < 1e-6 * abs(f0)


def test_tube_too_thin_and_overlap(grid96):
    thin = hopf_link(tube_radius=2 * grid96.spacing)
    with pytest.raises(TubeTooThin):
        validate_scene(thin, grid96)
    near = hopf_link(tube_radius=0.51)  # min distance 1.0 <= 2r
    with pytest.raises(TubeOverlap):
        validate_scene(near, grid96)


def test_borromean_venn_is_diagram_only(grid96):
    # its components come within 0.064: thin at the default r = 0.1 < 3h,
    # overlapping once the tube resolves
    with pytest.raises(TubeTooThin):
        validate_scene(borromean_venn(), grid96)
    with pytest.raises(TubeOverlap):
        validate_scene(borromean_venn(tube_radius=0.2), grid96)


def test_hopf_partner_flux_is_linking(grid96, hopf_fields):
    link, lf = hopf_fields
    # flux of omega_2 through the flat disc of component 1 = l(1,2)
    flux = disc_flux(lf.omegas[1], link.components[0])
    assert abs(abs(flux) - 1.0) < 0.02


def test_disc_dual_properties(grid96):
    r = 6 * grid96.spacing
    disc = circle((0, 0, 0), (0, 0, 1), 1.0)
    v = disc_dual_1form(disc, TubeParams(r), grid96)
    # only the normal component is populated
    assert np.max(np.abs(v.comps[:2])) == 0.0
    # vertical line integral through the center has unit bump mass
    zs = grid96.axis()
    col = v.comps[2][48, 48, :]
    assert abs(abs(np.sum(col) * grid96.spacing) - 1.0) < 0.01
    # compact support: vanishes identically away from the slab
    far = np.abs(zs) > r + 2 * grid96.spacing
    assert np.max(np.abs(v.comps[2][:, :, far])) == 0.0


def test_disc_dual_boundary_consistency(grid96, hopf_fields):
    link, lf = hopf_fields
    v = disc_dual_1form(link.components[0], link.tube, grid96)
    dv = ext_d(v)
    om = lf.omegas[0]
    # frozen sign: d(disc dual) = -omega(boundary)
    assert (dv + om).l2_norm() / om.l2_norm() < 0.05


def test_hamiltonian_form_identity(grid96, hopf_fields):
    # dv_L + iota_{xi_L} nu = 0 with xi_L = *omega_L
    link, lf = hopf_fields
    v_total = None
    for comp in link.components:
        v = disc_dual_1form(comp, link.tube, grid96)
        v_total = v if v_total is None else v_total + v
    # iota_{xi_L} nu = *xi_L is the total tube form itself
    lhs = ext_d(v_total) + lf.omega_total()
    rhs = lf.omega_total()
    assert lhs.l2_norm() / rhs.l2_norm() < 0.05


def test_abc_helicity_identity(grid96):
    x, y, z = grid96.meshgrid()
    A, B, C = 1.1, 0.7, 0.4
    v = GridField(grid96, 1, np.stack([
        A * np.sin(z) + C * np.cos(y),
        B * np.sin(x) + A * np.cos(z),
        C * np.sin(y) + B * np.cos(x),
    ]))
    H = helicity(v, ext_d(v))
    want = (2 * np.pi) ** 3 * (A**2 + B**2 + C**2)
    assert abs(H - want) < 1e-8 * want


def test_hopf_tube_helicity(grid96, hopf_fields):
    link, lf = hopf_fields
    H = link_helicity(link, grid96, lf)
    assert abs(abs(H) - 2.0) < 0.05 * 2.0
    # self-terms vanish for planar components
    M = lf.helicity_matrix()
    assert abs(M[0, 0]) < 0.01 and abs(M[1, 1]) < 0.01
    assert abs(M[0, 1] - M[1, 0]) < 0.01


def test_split_link_helicity(grid96):
    link = split_link()
    H = link_helicity(link, grid96)
    assert abs(H) < 0.02


def test_meridian_period_of_distant_tube(grid96, hopf_fields):
    link, lf = hopf_fields
    # omega_1 is supported away from the meridian torus of component 2
    per = meridian_period(lf.omegas[0], link.components[1], 1.5 * link.tube.radius)
    assert per == 0.0


def test_link_fields_build_primitives_on_first_use(monkeypatch):
    grid = Grid3(32, 2 * np.pi)
    link = split_link(tube_radius=0.6)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return curl_inv(*args, **kwargs)

    monkeypatch.setattr(tubes, "curl_inv", counting)
    lf = LinkFields.build(link, grid)
    assert calls == []
    # the eager primitives the build used to compute
    eager = [curl_inv(solenoidal_part(hodge_star(om)), eps_mean=1e-6)
             for om in lf.omegas]
    assert all(np.array_equal(p.comps, e.comps) for p, e in zip(lf.primitives, eager))
    assert len(calls) == len(link.components)
    assert lf.primitives is lf.primitives  # kept after the first use
    total = eager[0].copy() + eager[1]
    assert lf.primitive_total().comps.tobytes() == total.comps.tobytes()
    H = np.array([[helicity(p, om) for om in lf.omegas] for p in eager])
    assert lf.helicity_matrix().tobytes() == H.tobytes()
    assert len(calls) == len(link.components)
