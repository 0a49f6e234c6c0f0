"""The combinatorial Milnor oracle: diagrams, Magnus series, mu-bar."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlink import linking
from vortexlink.curves import (
    Link,
    PolygonalCurve,
    borromean_rings,
    circle,
    hopf_link,
    split_link,
)
from vortexlink.diagrams import (
    diagram_from_curves,
    diagram_from_doc,
    diagram_to_doc,
    longitude_word,
    mu_bar,
)
from vortexlink.errors import (
    DegenerateProjection,
    InconsistentDiagram,
    IndeterminateInvariant,
)
from vortexlink.magnus import MagnusSeries, word_series

HOPF = hopf_link(centered=False)
BORROMEAN = borromean_rings()
DIR = (0.13, 0.21, 0.95)


# -- Magnus arithmetic ---------------------------------------------------------

def test_magnus_inverse_unit():
    g = MagnusSeries.generator(1, 3)
    ginv = MagnusSeries.generator(1, 3, inverse=True)
    assert (g * ginv).is_unit()
    assert (ginv * g).is_unit()


def test_magnus_truncation():
    g = MagnusSeries.generator(1, 2)
    prod = g * g * g
    assert prod.coefficient((1,)) == 3
    assert prod.coefficient((1, 1)) == 3
    assert prod.coefficient((1, 1, 1)) == 0  # beyond truncation


def test_magnus_word_commutator():
    # [g1, g2] = g1 g2 g1^-1 g2^-1 -> 1 + (X1 X2 - X2 X1) + higher
    s = word_series((1, 2, -1, -2), 2)
    assert s.coefficient(()) == 1
    assert s.coefficient((1,)) == 0 and s.coefficient((2,)) == 0
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8))
def test_magnus_word_times_inverse_is_unit(letters):
    word = tuple(letters) + tuple(-l for l in reversed(letters))
    assert word_series(word, 3).is_unit()


# -- diagrams from geometry ------------------------------------------------------

def test_split_pair_no_crossings():
    d = diagram_from_curves(split_link().components, DIR)
    assert len(d.crossings) == 0
    assert [len(a) for a in d.arcs] == [1, 1]


def test_hopf_diagram_structure():
    d = diagram_from_curves(HOPF.components, DIR)
    assert len(d.crossings) == 2
    signs = [x.sign for x in d.crossings]
    assert signs[0] == signs[1]  # equal-sign pair


def test_borromean_diagram_structure():
    # the classical Venn drawing projects to the minimal 6-crossing diagram
    from vortexlink.curves import borromean_venn

    d = diagram_from_curves(borromean_venn().components, (0.02, -0.03, 1.0))
    assert len(d.crossings) == 6
    assert [len(a) for a in d.arcs] == [2, 2, 2]
    # each pair of components crosses twice with opposite signs
    comp_of = {a: c for c, seq in enumerate(d.arcs) for a in seq}
    pair_signs = {}
    for x in d.crossings:
        pair = tuple(sorted((comp_of[x.over], comp_of[x.under_in])))
        pair_signs.setdefault(pair, []).append(x.sign)
    assert len(pair_signs) == 3
    for pair, signs in pair_signs.items():
        assert len(signs) == 2 and sum(signs) == 0, (pair, signs)
    # same invariants as the orthogonal-ellipse realization
    assert abs(mu_bar(d, (1, 2, 3))) == 1


def test_unknot_diagram():
    d = diagram_from_curves([circle((0, 0, 0), (0, 0, 1), 1.0)], DIR)
    assert len(d.crossings) == 0
    assert [len(a) for a in d.arcs] == [1]
    assert longitude_word(d, 0) == ()


# -- mu-bar ----------------------------------------------------------------------

def test_mu12_hopf_exact():
    d = diagram_from_curves(HOPF.components, DIR)
    assert mu_bar(d, (1, 2)) == d.linking_matrix()[0][1]
    assert abs(mu_bar(d, (1, 2))) == 1


def test_mu12_unlink_zero():
    d = diagram_from_curves(split_link().components, DIR)
    assert mu_bar(d, (1, 2)) == 0


def test_mu123_borromean():
    d = diagram_from_curves(BORROMEAN.components, (0.11, 0.23, 0.96))
    assert abs(mu_bar(d, (1, 2, 3))) == 1
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert mu_bar(d, pair) == 0


def test_mu123_direction_independent():
    rng = np.random.default_rng(17)
    values = set()
    done = 0
    while done < 20:
        direction = rng.standard_normal(3)
        try:
            d = diagram_from_curves(BORROMEAN.components, direction)
        except DegenerateProjection:
            continue
        done += 1
        values.add(mu_bar(d, (1, 2, 3)))
    assert len(values) == 1


def test_mu123_antisymmetry():
    d = diagram_from_curves(BORROMEAN.components, (0.11, 0.23, 0.96))
    assert mu_bar(d, (2, 1, 3)) == -mu_bar(d, (1, 2, 3))
    assert mu_bar(d, (1, 3, 2)) == -mu_bar(d, (1, 2, 3))


def test_mu123_flips_under_component_reversal():
    base = diagram_from_curves(BORROMEAN.components, (0.11, 0.23, 0.96))
    flipped_link = Link(
        [BORROMEAN.components[0].reversed()] + list(BORROMEAN.components[1:]),
        BORROMEAN.tube,
    )
    flipped = diagram_from_curves(flipped_link.components, (0.11, 0.23, 0.96))
    assert mu_bar(flipped, (1, 2, 3)) == -mu_bar(base, (1, 2, 3))


def test_indeterminate_gate():
    d = diagram_from_curves(HOPF.components, DIR)
    with pytest.raises(IndeterminateInvariant) as exc:
        mu_bar(d, (1, 2, 2))
    assert exc.value.sub_index == (1, 2)


def test_mu12_random_scenes_match_crossing(rng):
    made = 0
    while made < 10:
        center = rng.uniform(-0.9, 0.9, size=3)
        normal = rng.standard_normal(3)
        c1 = circle((0, 0, 0), (0, 0, 1), rng.uniform(0.7, 1.3), n_samples=96)
        c2 = circle(center, normal, rng.uniform(0.7, 1.3), n_samples=96)
        direction = rng.standard_normal(3)
        try:
            d = diagram_from_curves([c1, c2], direction)
        except DegenerateProjection:
            continue
        made += 1
        assert mu_bar(d, (1, 2)) == d.linking_matrix()[0][1]


def kinked_hopf():
    """Hopf pair with a Reidemeister-I kink spliced into component 1."""
    verts = HOPF.components[0].polygon(96).vertices
    k = 20
    p = verts[k]
    # small loop in a plane leaning out of the curve plane
    t = 2 * np.pi * (np.arange(14) + 0.5) / 14
    rho = 0.12
    loop = (
        p[None, :]
        + rho * (1 - np.cos(t))[:, None] * np.array([0.0, 0.0, 1.0])
        + rho * np.sin(t)[:, None] * np.array([1.0, 0.3, 0.0])
    )
    kinked = np.vstack([verts[: k + 1], loop, verts[k + 1:]])
    return [PolygonalCurve(kinked), HOPF.components[1]]


def test_reidemeister_one_stability():
    base = diagram_from_curves(HOPF.components, DIR)
    curves = kinked_hopf()
    rng = np.random.default_rng(3)
    for _ in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        direction = 0.85 * np.array([0.0, 0.0, 1.0]) + 0.15 * direction
        try:
            kinked = diagram_from_curves(curves, direction)
        except DegenerateProjection:
            continue
        if sum(len(a) for a in kinked.arcs) > sum(len(a) for a in base.arcs):
            assert mu_bar(kinked, (1, 2)) == mu_bar(base, (1, 2))
            return
    pytest.fail("kinked projection never produced an extra crossing")


def test_longitude_degree_one_self_coefficient():
    curves = kinked_hopf()
    rng = np.random.default_rng(3)
    for _ in range(20):
        direction = 0.85 * np.array([0.0, 0.0, 1.0]) + 0.15 * rng.standard_normal(3)
        try:
            d = diagram_from_curves(curves, direction)
        except DegenerateProjection:
            continue
        word = longitude_word(d, 0, depth=1)
        s = word_series(word, 1)
        assert s.coefficient((1,)) == 0
        return
    pytest.fail("no generic direction")


# -- JSON round trip ---------------------------------------------------------------

def test_diagram_json_roundtrip():
    d = diagram_from_curves(BORROMEAN.components, (0.11, 0.23, 0.96))
    d2 = diagram_from_doc(json.loads(json.dumps(diagram_to_doc(d))))
    assert d2.arcs == d.arcs
    assert d2.crossings == d.crossings
    assert mu_bar(d2, (1, 2, 3)) == mu_bar(d, (1, 2, 3))


def test_inconsistent_diagram_rejected():
    d = diagram_from_curves(HOPF.components, DIR)
    bad = [
        dict(over=x.over, under_in=x.under_in, under_out=x.under_out + 99,
             sign=x.sign)
        for x in d.crossings
    ]
    doc = diagram_to_doc(d)
    doc["crossings"] = bad
    with pytest.raises(InconsistentDiagram):
        diagram_from_doc(doc)


def test_odd_projection_is_degenerate(monkeypatch):
    # a projection that lost one of the Hopf pair's two crossings is retried,
    # not refused as an inconsistent diagram
    find_crossings = linking.find_crossings
    monkeypatch.setattr(linking, "find_crossings", lambda *a: find_crossings(*a)[1:])
    with pytest.raises(DegenerateProjection, match="cross an odd number"):
        diagram_from_curves(HOPF.components, DIR)
