"""Masked-domain machinery at unit-test scale.

The full Borromean pipeline at N = 96 lives in the acceptance suite; these
tests cover the solver contract, the gates and the algebraic identities on
cheap scenes.
"""

from pathlib import Path

import numpy as np
import pytest

from vortexlink.comomentum import pair_contraction
from vortexlink.curves import hopf_link, split_triple
from vortexlink.errors import MissingPrimitive, ObstructedClass
from vortexlink.grid import Grid3, GridField
from vortexlink.massey import (
    MaskedDomain,
    MasseyConfig,
    MasseyHierarchy,
    bianchi_residual,
    connection_curvature,
    involution_report,
    solve_primitive,
)
from vortexlink.operators import contract, ext_d, hodge_star, wedge
from vortexlink.random_fields import random_form
from vortexlink.scenes import load_scene

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def grid48():
    return Grid3(48, 2 * np.pi)


@pytest.fixture(scope="module")
def split_hierarchy(grid48):
    link = split_triple(tube_radius=0.42)
    h = MasseyHierarchy.from_scene(link, grid48)
    h.solve((1, 2))
    h.solve((2, 3))
    h.obstruction_form((1, 2, 3))
    return h


def test_mask_structure(grid48):
    link = split_triple(tube_radius=0.42)
    dom = MaskedDomain.build(link, grid48)
    assert dom.mask.min() == 0.0 and dom.mask.max() == 1.0
    # core lives strictly inside the mask-zero region
    assert float(np.max(dom.mask * dom.core)) == 0.0
    # mask is exactly one away from all tubes
    assert dom.mask[0, 0, 0] == 1.0


def test_manufactured_primitive(grid48, rng):
    # exact case: omega = d(beta) with the mask identically one
    link = split_triple(tube_radius=0.42)
    dom = MaskedDomain(
        grid48,
        np.ones(grid48.shape),
        np.zeros(grid48.shape),
        link,
        1.25 * 0.42,
        1.5 * 0.42,
    )
    beta = random_form(grid48, 1, rng, kmax=3)
    omega = ext_d(beta)
    v, info = solve_primitive(omega, dom)
    resid = (ext_d(v) + omega).l2_norm() / omega.l2_norm()
    assert resid < 1e-6
    assert info["masked_residual"] < 1e-6


def test_split_scene_trivial(split_hierarchy):
    h = split_hierarchy
    # disjoint disc slabs: the obstruction forms vanish identically
    assert h.omega[(1, 2)].sup_norm() == 0.0
    assert h.omega[(2, 3)].sup_norm() == 0.0
    assert h.v[(1, 2)].sup_norm() == 0.0
    assert h.omega[(1, 2, 3)].sup_norm() == 0.0
    assert h.dom.periods(h.omega[(1, 2, 3)])[3] == 0.0
    assert all(abs(p) < 1e-12 for p in h.dom.periods(h.omega[(1, 2)]).values())


def test_split_involution_trivial(split_hierarchy):
    rep = involution_report(split_hierarchy)
    assert rep == {"tube_support": {"value": 0.0, "tol": 0.0, "pass": True}}


def _tube_support(h):
    return involution_report(h)["tube_support"]


@pytest.mark.parametrize("scene", ["borromean", "hopf"])
def test_tube_fields_vanish_where_the_mask_does_not(scene):
    # every tube field lies within r of its curve and the mask vanishes within
    # MASK_FACTOR * r, so the certificate is exactly zero with no solve
    grid, link = load_scene(FIXTURES / f"{scene}.json")
    h = MasseyHierarchy.from_scene(link, grid)
    assert _tube_support(h) == {"value": 0.0, "tol": 0.0, "pass": True}
    # and so the masked terms linear in one xi_k, which the report leaves
    # out, are exactly zero: iota_{xi_k} v_i and the bracket with xi_12
    xi_12 = hodge_star(wedge(h.v[(1,)], h.v[(2,)]))
    for k in range(1, len(link.components) + 1):
        xi_k = hodge_star(h.tube_form(k))
        assert h.dom.masked_rms(contract(xi_k, h.v[(1,)])) == 0.0
        assert h.dom.masked_rms(pair_contraction(xi_k, xi_12)) == 0.0


def test_tube_support_sees_a_mask_that_covers_the_tubes(grid48):
    h = MasseyHierarchy.from_scene(split_triple(tube_radius=0.42), grid48)
    h.dom.mask = np.ones(grid48.shape)
    support = _tube_support(h)
    assert support["value"] == 1.0 and not support["pass"]


def test_hopf_obstruction_gate(grid48):
    # The default torus (minor radius 1.5r) cannot fit this scene: N = 48
    # needs r >= 3h = 0.393, a centred Hopf link of radius R fits the
    # half-box only for R <= 1.047, and the torus clears the partner's tube
    # only for R > 2.5r = 1.05.  At R = 1, r = 0.42 a 1.3r torus clears it
    # by 1 - 0.546 = 0.454 > r.
    link = hopf_link(tube_radius=0.42)
    h = MasseyHierarchy.from_scene(link, grid48, MasseyConfig(meridian_factor=1.3))
    periods = h.dom.periods(h.obstruction_form((1, 2)))
    # the pair is essentially linked: some meridian period is order one
    assert max(abs(p) for p in periods.values()) > 0.5
    with pytest.raises(ObstructedClass) as exc:
        h.solve((1, 2))
    assert exc.value.periods and exc.value.interval == (1, 2)


def test_missing_primitive(grid48):
    link = split_triple(tube_radius=0.42)
    h = MasseyHierarchy.from_scene(link, grid48)
    h.obstruction_form((1, 2))
    with pytest.raises(MissingPrimitive):
        h.obstruction_form((1, 2, 3))


def test_connection_curvature_matches_hierarchy(split_hierarchy):
    h = split_hierarchy
    lvl1 = {key: vI for key, vI in h.v.items() if len(key) == 1}
    w1 = connection_curvature(h, lvl1)
    # entries (1,3) and (2,4) of the paper's display, the intervals 12 and
    # 23: same arithmetic
    assert np.array_equal(w1[(1, 2)].comps, h.omega[(1, 2)].comps)
    assert np.array_equal(w1[(2, 3)].comps, h.omega[(2, 3)].comps)
    w2 = connection_curvature(h, h.v)
    assert np.array_equal(w2[(1, 2, 3)].comps, h.omega[(1, 2, 3)].comps)
    assert bianchi_residual(h, lvl1, w1) < 0.05
    assert bianchi_residual(h, h.v, w2) < 0.05


def test_solver_determinism(grid48, rng):
    link = split_triple(tube_radius=0.42)
    dom = MaskedDomain.build(link, grid48)
    beta = random_form(grid48, 1, rng, kmax=3)
    omega = ext_d(beta)
    v1, info1 = solve_primitive(omega, dom)
    v2, info2 = solve_primitive(omega, dom)
    assert np.array_equal(v1.comps, v2.comps)
    assert info1["iterations"] == info2["iterations"]


def test_flux_scaling_is_cubic(grid48):
    # all fields are linear in flux, so the triple form scales cubically
    from vortexlink.curves import Link, TubeParams

    base = split_triple(tube_radius=0.42)
    scaled = Link(base.components, TubeParams(0.42, flux=2.0))
    h1 = MasseyHierarchy.from_scene(base, grid48)
    h2 = MasseyHierarchy.from_scene(scaled, grid48)
    v1 = h1.v[(1,)]
    v2 = h2.v[(1,)]
    assert np.allclose(v2.comps, 2.0 * v1.comps, atol=1e-12)
