"""The Massey report stages on non-zero data, bit for bit against the old code.

The curvature and the Bianchi residual now share one exterior derivative
per stored form, and the involution report takes the tube fields xi_k as
views of the tube forms.  The functions below are the previous
implementations, which differentiated every form afresh and copied every
xi_k; the new code must give the same bits.  The connections are keyed by
interval; the reference curvature and Bianchi residual keep the paper's
matrix form, entry (i, j) for the interval (i+1, ..., j), and take each
complete entry from the stored Omega_I, as the defining system defines it;
a random stored form makes that entry one that is not a product of the
v_I, which the Bianchi check must see too.  The hierarchy is
built at N = 24 from random band-limited fields, so every curvature and
Bianchi term is non-zero (the shipped split scenes have Omega = 0), on three
components and on four, where level 2 has the partial product
w_1234 = v_12 ^ v_34.  Its tube forms are random 2-forms too, handed out as
fresh copies the way `tube_form` deposits them; they fill the masked
complement, so the tube-support certificate reads > 0 and fails.
"""

import hashlib
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import _fields, _LiveTimer, _traced

from vortexlink import massey, operators
from vortexlink.constants import DEFAULT_TOLERANCES
from vortexlink.curves import Link, TubeParams, circle, split_triple
from vortexlink.errors import ObstructedClass
from vortexlink.grid import Grid3, GridField
from vortexlink.massey import (
    MaskedDomain,
    MasseyConfig,
    MasseyHierarchy,
    bianchi_residual,
    cartan_bianchi_report,
    connection_curvature,
    involution_report,
    massey_report,
)
from vortexlink.operators import _symbols, ext_d, wedge
from vortexlink.random_fields import random_form
from vortexlink.reports import StageTimer
from vortexlink.scenes import load_scene

PAIRS = ((1, 2), (1, 3), (2, 3))
SPLIT_TRIPLE_N48 = Path(__file__).parent / "golden" / "split_triple_n48_scene.json"


def _stacked_circles():
    """Four stacked radius-0.5 circles of tube radius 0.4."""
    return Link([circle((0, 0, z), (0, 0, 1.0), 0.5) for z in (-1.53, -0.51, 0.51, 1.53)],
                TubeParams(0.4))


def _intervals(n, lengths):
    return [tuple(range(i, i + length)) for length in lengths
            for i in range(1, n - length + 2)]


def _random_hierarchy(seed, config=None, n=3):
    """An n-component hierarchy (three or four) at N = 24 with random disc
    duals v_i and random tube forms, and the random generator for what comes
    next."""
    grid = Grid3(24, 2 * np.pi)
    rng = np.random.default_rng(seed)
    # the scene gives the mask, the meridian tori and the tube radius only
    link = split_triple(tube_radius=0.42) if n == 3 else _stacked_circles()
    h = MasseyHierarchy(MaskedDomain.build(link, grid), config or MasseyConfig())
    tubes = [random_form(grid, 2, rng) for _ in range(n)]
    h.tube_form = lambda k: tubes[k - 1].copy()
    for key in _intervals(n, [1]):
        h.v[key] = random_form(grid, 1, rng)
    return h, rng


def _hierarchy(seed, consistent, n=3):
    """An n-component hierarchy on random fields, with a v_I for every
    interval shorter than n.  With `consistent` the Omega_I are the
    hierarchy's own products of the random v_I (as in a run); otherwise they
    are random 2-forms as well, for every pair and every longer interval."""
    h, rng = _random_hierarchy(seed, n=n)
    grid = h.dom.grid
    for key in _intervals(n, range(2, n)):
        h.v[key] = random_form(grid, 1, rng)
    if consistent:
        for key in _intervals(n, range(2, n + 1)):
            h.obstruction_form(key)
    else:
        pairs = list(combinations(range(1, n + 1), 2))
        for key in pairs + _intervals(n, range(3, n + 1)):
            h.omega[key] = random_form(grid, 2, rng)
    return h


# -- the previous implementations ------------------------------------------------

def matrix_entries(h, level):
    """The paper's connection matrix of one level: entry (i, j) is the v_I
    with I = (i+1, ..., j) and |I| <= level."""
    return {(key[0] - 1, key[-1]): vI for key, vI in h.v.items() if len(key) <= level}


def _interval(ij):
    return tuple(range(ij[0] + 1, ij[1] + 1))


def reference_curvature(entries, size, omega=None):
    """The matrix-form curvature; with `omega`, a complete entry (i, j), one
    outside `entries` whose every (i, k), (k, j) is in them, is omega's
    Omega_I, as the defining system defines it."""
    out = {}
    for (i, j), vij in entries.items():
        out[(i, j)] = ext_d(vij)
    for i in range(size):
        for j in range(size):
            acc = None
            for k in range(size):
                if (i, k) in entries and (k, j) in entries:
                    term = wedge(entries[(i, k)], entries[(k, j)])
                    acc = term if acc is None else acc + term
            complete = (i, j) not in entries and j - i > 1 and all(
                (i, k) in entries and (k, j) in entries for k in range(i + 1, j))
            if omega is not None and complete:
                out[(i, j)] = omega[_interval((i, j))]
            elif acc is not None:
                out[(i, j)] = out[(i, j)] + acc if (i, j) in out else acc
    return out


def reference_bianchi(entries, size, dom, omega):
    w = reference_curvature(entries, size, omega)
    num2 = 0.0
    den2 = 0.0
    r = dom.link.tube.radius
    for i in range(size):
        for j in range(size):
            acc = None
            if (i, j) in w:
                acc = ext_d(w[(i, j)])
            for k in range(size):
                if (i, k) in entries and (k, j) in w:
                    t = wedge(entries[(i, k)], w[(k, j)])
                    acc = t if acc is None else acc + t
                if (i, k) in w and (k, j) in entries:
                    t = -1 * wedge(w[(i, k)], entries[(k, j)])
                    acc = t if acc is None else acc + t
            if acc is not None:
                num2 += dom.masked_rms(acc) ** 2
    for val in w.values():
        den2 += (dom.masked_rms(val) / r) ** 2
    return float(np.sqrt(num2 / den2)) if den2 > 0 else 0.0


def _xi_copy(om):
    return GridField(om.grid, 1, om.comps.copy())


def reference_involution(h):
    dom = h.dom
    xis = [_xi_copy(h.tube_form(k)) for k in range(1, len(dom.link.components) + 1)]
    support = max(float(np.max(np.abs(dom.mask * x.comps))) / x.sup_norm() for x in xis)
    return {"tube_support": {"value": support, "tol": 0.0, "pass": support == 0.0}}


def _bits(f):
    return f.comps.view(np.uint64)


# -- checks -------------------------------------------------------------------------

@pytest.mark.parametrize("consistent, n", [(True, 3), (False, 3), (True, 4), (False, 4)],
                         ids=["hierarchy_omega", "random_omega",
                              "hierarchy_omega-four", "random_omega-four"])
def test_report_stages_match_reference_bitwise(consistent, n):
    h = _hierarchy(7, consistent, n)
    levels = range(1, n)
    ref_w, ref_bianchi = {}, {}
    for level in levels:
        entries = matrix_entries(h, level)
        ref_w[level] = reference_curvature(entries, n + 1, h.omega)
        ref_bianchi[level] = reference_bianchi(entries, n + 1, h.dom, h.omega)
        if consistent:
            # a run's stored Omega_I is the matrix-form product, bit for bit
            products = reference_curvature(entries, n + 1)
            for key in _intervals(n, [level + 1]):
                ij = (key[0] - 1, key[-1])
                assert np.array_equal(_bits(h.omega[key]), _bits(products[ij])), key

    for level in levels:
        v = {key: vI for key, vI in h.v.items() if len(key) <= level}
        w = connection_curvature(h, v)
        assert list(w) == [_interval(ij) for ij in ref_w[level]]
        for (key, wI), ref in zip(w.items(), ref_w[level].values()):
            assert np.array_equal(_bits(wI), _bits(ref)), (level, key)
        assert bianchi_residual(h, v, w) == ref_bianchi[level]
        assert ref_bianchi[level] > 0

    cartan = cartan_bianchi_report(h)
    assert list(cartan) == [f"bianchi_level{level}" for level in levels]
    for level in levels:
        assert cartan[f"bianchi_level{level}"]["value"] == ref_bianchi[level]

    got = involution_report(h)
    assert got == reference_involution(h)
    # random tube forms do not vanish on the masked complement
    assert got["tube_support"]["value"] > 0 and not got["tube_support"]["pass"]


@pytest.mark.parametrize("n", [3, 4], ids=["three", "four"])
def test_cartan_bianchi_leaves_no_derivative_and_no_obstruction_form(n):
    """The last level is the last reader of every kept derivative and of
    the top Omega_{1..n}: nothing is held past the certificates."""
    h = _hierarchy(7, True, n)
    cartan_bianchi_report(h)
    assert h._derivatives == {} and h.omega == {} and h.curvature == {}


@pytest.mark.parametrize("n, counts", [
    (3, {"wedge": 16, "ext_d": 10, "bianchi_residual": 2}),
    (4, {"wedge": 50, "ext_d": 19, "bianchi_residual": 3}),
], ids=["three", "four"])
def test_cartan_bianchi_makes_one_curvature_per_level(n, counts, monkeypatch):
    """Each level's curvature is made once and read by its Bianchi check,
    and the Bianchi residual runs once per certified level (the span a
    traced run times).  The wedges are those of each solved entry w_I, made
    once, at level |I|, of the partial products, and of each level's
    Bianchi entries beyond the carried ones; the complete entries are the
    stored Omega_I and need none.  The derivatives are each d v_I, taken
    once, and the fresh d w_I of each new entry.

    With four components the curvature makes 8 wedges (w_12, w_23, w_34 at
    level 2, the partial w_1234 = v_12 ^ v_34, and two each for w_123 and
    w_234 at level 3) and the Bianchi checks 10 + 18 + 14; the 59 before
    rebuilt w_12, w_23 and w_34 at level 3 (3) and their Bianchi entries
    (6).  The derivatives are 4 d v_i and 4 d(d v_i) at level 1, 3 d v_I,
    3 d w_I and d w_1234 at level 2, and 2 d v_I and 2 d w_I at level 3: 19,
    where the 22 before took d w_12, d w_23 and d w_34 again at level 3.
    With three components the counts are as before: level 2 carries only
    the disc duals' entries, which make no wedge, and it read their
    d(d v_i) from the kept ones before."""
    h = _hierarchy(7, True, n)
    calls = dict.fromkeys(counts, 0)

    def counting(name):
        real = getattr(massey, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in counts:
        monkeypatch.setattr(massey, name, counting(name))
    cartan_bianchi_report(h)
    assert calls == counts


@pytest.mark.parametrize("n", [3, 4], ids=["three", "four"])
def test_solved_entries_and_bianchi_terms_are_carried(n, monkeypatch):
    """A solved interval's curvature entry is made once, in the array of
    the d v_I that the hierarchy kept, and is the same object at every level
    >= |I|; no d(d v_i) is kept after level 1; and the Bianchi terms carried
    from level to level are those a fresh call computes, bit for bit."""
    h = _hierarchy(7, True, n)
    # the derivatives a run's solves keep
    dv = {key: h.d(vI) for key, vI in h.v.items() if len(key) > 1}
    made, checked_levels = {}, []
    curvature, residual = massey.connection_curvature, massey.bianchi_residual

    def watched_curvature(h, v):
        level = max(map(len, v))
        if level > 1:
            assert not any(id(made[1][(i,)]) in h._derivatives for i in range(1, n + 1))
        made[level] = w = curvature(h, v)
        return w

    def watched_residual(h, v, w, carried):
        value = residual(h, v, w, carried)
        fresh = {}
        assert residual(h, v, w, fresh) == value
        assert {key: tuple(map(float.hex, t)) for key, t in carried.items()} == {
            key: tuple(map(float.hex, t)) for key, t in fresh.items()}
        assert set(carried) == set(v)
        checked_levels.append(max(map(len, v)))
        return value

    monkeypatch.setattr(massey, "connection_curvature", watched_curvature)
    monkeypatch.setattr(massey, "bianchi_residual", watched_residual)
    cartan_bianchi_report(h)
    assert checked_levels == list(range(1, n))
    for key, vI in h.v.items():
        levels = range(len(key), n)
        assert all(made[level][key] is made[len(key)][key] for level in levels), key
        if key in dv:
            assert made[len(key)][key] is dv[key], key
    assert h._derivatives == {}


@pytest.mark.parametrize("n", [3, 4], ids=["three", "four"])
def test_complete_entries_are_the_stored_obstruction_forms(n, monkeypatch):
    """At level l every interval of length l + 1 is complete: its curvature
    entry is the stored Omega_I itself, and no wedge of its splits is made.
    The partial entry w_1234 = v_12 ^ v_34 of level 2 of four stays a fresh
    product."""
    h = _hierarchy(7, True, n)
    made = []
    wedge_ = massey.wedge

    def tracked(a, b):
        made.append((id(a), id(b)))
        return wedge_(a, b)

    monkeypatch.setattr(massey, "wedge", tracked)
    for level in range(1, n):
        v = {key: vI for key, vI in h.v.items() if len(key) <= level}
        made.clear()
        w = connection_curvature(h, v)
        for key in _intervals(n, [level + 1]):
            assert w[key] is h.omega[key], key
            splits = {(id(v[head]), id(v[tail])) for head, tail in massey._splits(key)}
            assert not splits & set(made), key
        if n == 4 and level == 2:
            assert w[(1, 2, 3, 4)] is not h.omega[(1, 2, 3, 4)]
            assert (id(v[(1, 2)]), id(v[(3, 4)])) in made


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_each_exterior_derivative_is_computed_once(monkeypatch):
    """Across the closedness certificates, the primitive solves, both
    curvatures and both Bianchi residuals, no form is differentiated twice:
    the solves' d v_12 and d v_23 are the ones the level-2 curvature
    reads."""
    seen = []
    real = operators.ext_d

    def counting(f):
        seen.append(_sha(f.comps))
        return real(f)

    monkeypatch.setattr(operators, "ext_d", counting)
    monkeypatch.setattr(massey, "ext_d", counting)
    # random Omega_ij are neither closed nor period-free: no gate may stop
    # the solves, which need only a few CG iterations here
    cfg = MasseyConfig(eps_period=np.inf, eps_massey=np.inf, cg_tol=0.1)
    h, _ = _random_hierarchy(11, cfg)
    # the intervals' Omega_I are certified closed; Omega_13, which no
    # interval names, is made for its periods only and never differentiated
    for key in ((1, 2), (2, 3)):
        h.obstruction_form(key)
    h.product((1, 3))
    kept = [id(f) for f, _ in h._derivatives.values()]
    assert kept == [id(h.omega[(1, 2)]), id(h.omega[(2, 3)])]
    h.solve((1, 2))
    h.solve((2, 3))
    h.obstruction_form((1, 2, 3))
    cartan_bianchi_report(h)
    involution_report(h)
    assert len(seen) == len(set(seen))
    # 3 d Omega_I; the codifferentials of the 2 right-hand sides; 5 d v_I
    # (2 in the solves) and the Bianchi terms of 11 curvature entries, of
    # which 3 are shared between the levels (d d v_i) and 3 are d Omega_I
    assert len(seen) == 3 + 2 + 5 + (11 - 3 - 3)


def test_cartan_bianchi_keeps_one_connection_alive():
    """The connections are built, certified and dropped one level at a time,
    and curvature and Bianchi terms go into one accumulator per entry."""
    cartan_bianchi_report(_hierarchy(2, False))  # warm the symbol cache
    h = _hierarchy(7, False)
    _, base, peak = _traced(lambda: cartan_bianchi_report(h))
    # 14.9 fields above the hierarchy with both connections, every term list
    # and the stacked products alive at once; 11.9 with one accumulator per
    # entry; 9.8 with a fresh entry's Bianchi derivative as the accumulator
    # itself and ext_d of a 2-form summing inside its own spectrum; 6.9 now
    # that each w_I is made once, in its d v_I, and no d(d v_i) is kept
    assert _fields(peak - base, h.dom.grid) < 7.5


class _TubeTimer(_LiveTimer):
    """A live timer that also counts, when each stage stops, the tube forms
    made so far and those still alive, and lists the pairwise Omega_ij that
    the pairwise stage made and that are still alive."""

    def __init__(self):
        super().__init__()
        self.made = []  # (stage, weak reference to the array)
        self.tubes = {}
        self.pairs = {}  # (i, j) -> weak reference to the array of Omega_ij
        self.held = {}

    def alive_pairs(self):
        return sorted(key for key, ref in self.pairs.items() if ref() is not None)

    def stop(self):
        alive = sum(ref() is not None for _, ref in self.made)
        self.tubes[self._name] = (len(self.made), alive)
        self.held[self._name] = self.alive_pairs()
        super().stop()


def test_massey_report_holds_each_field_only_while_read(monkeypatch):
    """On the split_triple scene at N = 48, no tube form exists before the
    involution stage and none outlives it, each pairwise Omega_ij lives only
    while a stage reads it, the core weight does not outlive the solves, and
    the traced peak of the whole report stays bounded."""
    grid, link = load_scene(SPLIT_TRIPLE_N48)
    _symbols(grid)  # the cached symbols are not the report's fields
    timer = _TubeTimer()
    deposit = massey.tube_2form

    def tracked(*args):
        form = deposit(*args)
        timer.made.append((timer._name, weakref.ref(form.comps)))
        return form

    product = MasseyHierarchy.product

    def tracked_pair(h, key):
        om = product(h, key)
        if timer._name == "pairwise":
            # the solves read Omega_12 and Omega_23 again: the same arrays
            timer.pairs[key] = weakref.ref(om.comps)
            timer.core = weakref.ref(h.dom.core)
        return om

    curvature = massey.connection_curvature
    certified = {}

    def watched(h, v):
        certified[max(map(len, v))] = (timer.alive_pairs(), timer.core() is None)
        return curvature(h, v)

    monkeypatch.setattr(massey, "tube_2form", tracked)
    monkeypatch.setattr(MasseyHierarchy, "product", tracked_pair)
    monkeypatch.setattr(massey, "connection_curvature", watched)
    (section, obstruction), base, peak = _traced(lambda: massey_report(
        link, grid, dict(DEFAULT_TOLERANCES), np.random.default_rng(1), timer))
    assert obstruction is None and "involution" in section
    # one deposit per component, in the involution stage
    assert {stage for stage, _ in timer.made} == {"involution"}
    assert timer.tubes == {
        stage: ((3, 0) if stage == "involution" else (0, 0)) for stage in timer.stages
    }
    # Omega_13 is gone once its certificates are made; Omega_12 and Omega_23
    # live from the pairwise stage to the level-1 connection, and none is
    # alive while level 2 is certified; the core weight, after the solves
    assert list(timer.pairs) == list(PAIRS)
    solved = [(1, 2), (2, 3)]
    assert timer.held == {
        "scene_fields": [], "pairwise": solved, "solves": solved, "triple": solved,
        "oracle": solved, "cartan_bianchi": [], "involution": [],
    }
    assert certified == {1: (solved, True), 2: ([], True)}
    # the certificate stages leave no field behind
    assert _fields(timer.live["involution"] - timer.live["oracle"], grid) < 0.1
    # 23.4 fields with the tube forms kept from the first stage to the last
    # and the fresh level-2 Bianchi derivatives kept through the stage; 19.7
    # with the pairwise Omega_ij and the core weight kept to the end; 16.1
    # with a second w_I array beside each kept d v_I and d(d v_i) kept to
    # the last level; 12.9 now
    assert _fields(peak - base, grid) < 13.5


def test_an_obstructed_interval_is_named_in_full(monkeypatch):
    """A length-3 solve that the period gate stops names the whole interval
    (1, 2, 3), in the exception and in the report section.  The four disc
    duals are random 1-forms at N = 24, scaled by 100: a pair's periods grow
    as the square of the scale and the triple form's as its cube, so a gate
    at twice the largest pair period lets the pairs through and stops 123."""
    grid = Grid3(24, 2 * np.pi)
    rng = np.random.default_rng(0)
    # four stacked circles give the mask and the meridian tori only
    link = _stacked_circles()
    dom = MaskedDomain.build(link, grid)
    v = {(i,): random_form(grid, 1, rng) * 100.0 for i in range(1, 5)}

    def from_scene(cls, link, grid, config):
        h = cls(dom, config)
        h.v.update(v)
        return h

    probe = from_scene(MasseyHierarchy, link, grid, MasseyConfig())
    gate = 2 * max(abs(p) for key in ((1, 2), (2, 3), (3, 4))
                   for p in dom.periods(probe.product(key)).values())
    monkeypatch.setattr(MasseyHierarchy, "from_scene", classmethod(from_scene))
    # random Omega_ij are not closed: no masked-residual gate may stop a pair
    tolerances = {"eps_period": gate, "eps_massey": np.inf, "cg_tol": 0.1}
    timer = StageTimer()
    section, exc = massey_report(link, grid, tolerances, np.random.default_rng(1), timer)
    assert isinstance(exc, ObstructedClass) and exc.interval == (1, 2, 3)
    assert max(abs(p) for p in exc.periods.values()) > gate
    assert section["obstructed"] == {"pair": "1,2,3", "message": str(exc)}
    assert list(timer.solver) == ["12", "23", "34"]
