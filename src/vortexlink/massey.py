"""The Chen/Massey hierarchy on the grid.

A defining system of any length on an n-component link: the disc-dual
1-forms v_i, and for each interval I = (i, ..., j) of 1..n the obstruction
2-form Omega_I = sum of v_I' ^ v_I'' over the splits of I into a prefix I'
and a suffix I'' (v_i ^ v_j for a pair, v_1 ^ v_23 + v_12 ^ v_3 for 123),
with a masked least-squares primitive d v_I = -Omega_I on the link
complement for every interval shorter than n.  The period of the top form
Omega_{1..n} over a meridian torus is the grid's higher linking number.  The
connection of level l is the dict {I: v_I} of every v_I with |I| <= l, keyed
by interval as the defining system is (entry (i, j) of the paper's
nilpotent connection matrix is the interval (i+1, ..., j)), and its
curvature entry of an interval of length l + 1 is the stored Omega_I; the
Bianchi checks and the tube-support certificate of the first integrals
close the report.  `_splits` is the one enumeration of an interval's splits.

Complement geometry is realized by a smooth mask vanishing on the tubes
(never by remeshing); every certificate is a masked norm.  The solver is a
matrix-free preconditioned conjugate gradient on the normal equations of

    J(v) = || m (dv + Omega) ||^2  +  reg * || delta v ||^2,

whose exact spectral inverse away from the mask is used as preconditioner,
so iteration counts stay modest and runs are bitwise deterministic.

The CG state lives in rfft3 coefficients.  There d, delta and the
preconditioner are diagonal symbols, and only the products with m^2 and the
core weight go through physical space: two inverse and two forward
transforms of three components each per iteration.  `irfft3` overwrites the
spectrum it inverts, so the inverse of the search direction p, which the
iteration keeps, works on a copy.  Inner products are Parseval sums over the
half spectrum (the kz = 0 and Nyquist planes weighted once, the others
twice, over N^3), which make the coefficients an isometric image of the real
fields; the iterates are therefore those of the same CG run in physical
space, up to the order of rounding.

Where the forms live.  A field is dropped after its last read, except what
the hierarchy owns for its whole life: the mask, the v_I and the closedness
certificates.  The rules go by the length of an index range:

- A pair's Omega_ij is made for its periods.  An interval's Omega_I is
  stored with its closedness certificate, and any other pair's is dropped
  at once.
- A stored Omega_I of length l is read by its solve and by the level-(l-1)
  connection, whose curvature entry w_I it is, and is dropped once that
  level is certified.
- The hierarchy keeps in `MasseyHierarchy.d` the exterior derivative of each
  form that more than one step reads: d Omega_I from its closedness
  certificate to the Bianchi check of the level whose curvature entry
  Omega_I is, and d v_I from its solve's residual certificate to the first
  connection that holds v_I.  That connection takes d v_I over and adds the
  split products into its array, which is then the curvature entry w_I;
  `MasseyHierarchy.curvature` holds it to the last level.  A kept derivative
  holds its form too, so a dropped Omega_I is freed only once its derivative
  is released.
- The core weight, which only the CG reads, is dropped after the last
  solve.  The CG keeps its right-hand side and each preconditioned residual
  only until their last read.
- No tube form is kept: `involution_report`, their only reader, deposits
  each once.

The certificate stages own nothing that outlives them:
`cartan_bianchi_report` builds, certifies and drops one connection at a
time.  Each v_I's curvature entry is made once, in its d v_I (a disc dual's
is d v_i itself), and its Bianchi terms once, at the first level that holds
v_I; later levels read the entry and carry the terms as two floats, so no
d(d v_i) outlives level 1.  Every other curvature and Bianchi entry is
summed into one accumulator as its terms are made: the Bianchi accumulator
of an entry with no kept derivative is its own fresh derivative, and a kept
d Omega_I is added into the first product term's array, read and never
written, as a stored Omega_I is.  `cartan_bianchi_report` leaves no kept
derivative, no stored Omega_I and no curvature entry behind, so
`involution_report` holds only the tube forms it deposits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .constants import DEFAULT_TOLERANCES, TRIPLE_LINKING_SIGN
from .curves import Link, as_polygon
from .diagrams import mu_bar, scene_diagram
from .errors import MissingPrimitive, NoConvergence, ObstructedClass
from .grid import Grid3, GridField, sup_abs
from .operators import (
    _k_cross,
    _symbols,
    codiff,
    ext_d,
    hodge_star,
    irfft3,
    rfft3,
    wedge,
)
from .reports import checked, checked_window
from .tubes import (
    LocalBox,
    disc_dual_1form,
    meridian_period,
    tube_2form,
    validate_scene,
)


# the mask radius over the tube radius: r_mask = MASK_FACTOR * r
MASK_FACTOR = 1.25


@dataclass
class MasseyConfig:
    eps_period: float = DEFAULT_TOLERANCES["eps_period"]
    eps_massey: float = DEFAULT_TOLERANCES["eps_massey"]
    cg_tol: float = DEFAULT_TOLERANCES["cg_tol"]
    cg_maxiter: int = DEFAULT_TOLERANCES["cg_maxiter"]
    reg: float = 1.0
    # zero-order gauge energy inside the mask-zero core, in units of
    # 1/r_mask^2; removes the objective's flat directions (hole-supported
    # co-exact fields) without touching the masked fit, so CG converges
    core_shift: float = 1.0
    meridian_factor: float = 1.5   # minor radius of dT_k over tube radius


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def distance_to_curve_field(grid: Grid3, curve, reach: float) -> np.ndarray:
    """Distance to the sampled curve, exact inside `reach`, clipped beyond."""
    poly = as_polygon(curve).refined(grid.spacing / 2)
    d2 = np.full(grid.shape, (10 * reach) ** 2)
    flat = d2.reshape(-1)
    box = LocalBox(grid, reach)
    for _, idx, dist2 in box.batches(poly.vertices):
        # cells only decrease, so a distance no smaller than the cell's value
        # before this chunk cannot be its minimum: skipping it is exact
        closer = dist2 < flat[idx]
        np.minimum.at(flat, idx[closer], dist2[closer])
    return np.sqrt(d2)


def _mask_profile(t):
    """0 at t <= 0, rising like 2t, 1 at t >= 1 with zero slope (C^1 ramp).

    The transition must be NARROW (the builder uses a couple of grid cells):
    a wide, weakly weighted shell acts as a cheap dumping ground where the
    least-squares solve can hide the circulation flux of the primitive
    instead of carrying it around the tubes, which silently corrupts every
    downstream period pairing.  A thin steep ramp makes dumped flux
    expensive; the genuinely unconstrained region is then only the tube
    core, which complement cycles never cross.
    """
    tc = np.clip(t, 0.0, 1.0)
    return tc * (2.0 - tc)


@dataclass
class MaskedDomain:
    """Smooth indicator of the link complement plus the meridian 2-cycles.

    `core` is a weight supported strictly inside the mask-zero region
    (mask * core = 0 identically); it carries the gauge energy of the
    primitive solves.  The CG is its only reader, so `massey_report` sets it
    to None after the last solve.
    """

    grid: Grid3
    mask: np.ndarray
    core: np.ndarray | None
    link: Link
    r_mask: float
    meridian_minor: float

    @classmethod
    def build(cls, link: Link, grid: Grid3, config: MasseyConfig | None = None):
        """The mask of a scene that passed validate_scene with this config."""
        cfg = config or MasseyConfig()
        r = link.tube.radius
        r_mask = MASK_FACTOR * r
        mask = np.ones(grid.shape)
        core = np.zeros(grid.shape)
        for comp in link.components:
            d = distance_to_curve_field(grid, comp, 2 * r_mask + 2 * grid.spacing)
            mask *= _mask_profile((d - r_mask) / r_mask)
            core = np.maximum(
                core, 1.0 - _smoothstep((d - 0.8 * r_mask) / (0.2 * r_mask))
            )
        return cls(grid, mask, core, link, r_mask, cfg.meridian_factor * r)

    def masked_rms(self, f: GridField) -> float:
        """RMS of the masked form (volume-normalized L2).  One masked
        component at a time is squared into one scalar buffer and added to
        the sum in component order, the order of np.sum(..., axis=0)."""
        acc = np.multiply(self.mask, f.comps[0])
        acc *= acc
        sq = np.empty_like(acc)
        for c in f.comps[1:]:
            np.multiply(self.mask, c, out=sq)
            sq *= sq
            acc += sq
        return float(np.sqrt(np.mean(acc)))

    def masked_sup(self, f: GridField) -> float:
        """sup |m f|, one masked component at a time in one scalar buffer."""
        buf = np.empty_like(self.mask)
        return max(sup_abs(np.multiply(self.mask, c, out=buf)) for c in f.comps)

    def periods(self, form2: GridField) -> dict:
        out = {}
        for k, comp in enumerate(self.link.components):
            out[k + 1] = meridian_period(form2, comp, self.meridian_minor)
        return out


# -- masked least-squares primitive solve --------------------------------------

def _parseval_weights(n: int) -> np.ndarray:
    """Weights along the rfft axis that turn the half spectrum into a full
    one: the kz = 0 plane and (even n) the Nyquist plane once, every other
    plane twice, all over n^3 (the unnormalized forward transform)."""
    w = np.full(n // 2 + 1, 2.0 / n**3)
    w[0] = 1.0 / n**3
    if n % 2 == 0:
        w[-1] = 1.0 / n**3
    return w


def _spectral_dot(ah, bh, w) -> float:
    """np.sum(a * b) of two real 1-forms, from their rfft3 coefficients."""
    # (real, imag) float pairs, summed per plane: one pass, no temporaries
    planes = np.einsum("ijkl,ijkl->l", ah.view(np.float64), bh.view(np.float64))
    return float(np.sum(planes.reshape(-1, 2) * w[:, None]))


def _precondition_symbols(grid, reg, shift):
    """Diagonal symbols of the spectral inverse of delta d + reg d delta +
    shift on 1-forms: (K, tra, lon) with z = tra r + lon K (K . r).

    tra = 1/(K2 + shift) inverts the transverse part and lon corrects the
    longitudinal one to 1/(reg K2 + shift); lon is None when it vanishes
    (reg = 1).  Modes with K2 = 0 count as transverse, and with shift = 0
    they are zeroed.
    """
    K, K2, _ = _symbols(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        tra = 1.0 / (K2 + shift)
        lon = (1.0 / (reg * K2 + shift) - tra) / K2
    lon[K2 == 0] = 0.0
    if shift == 0.0:
        tra[K2 == 0] = 0.0
    return K, tra, (lon if np.any(lon) else None)


def _precondition(rh, symbols):
    """Apply the diagonal preconditioner to rfft3 coefficients of a 1-form."""
    K, tra, lon = symbols
    zh = tra * rh
    if lon is not None:
        klon = lon * (K[0] * rh[0] + K[1] * rh[1] + K[2] * rh[2])
        for i, k in enumerate(K):
            zh[i] += k * klon
    return zh


def solve_primitive(omega: GridField, dom: MaskedDomain,
                    config: MasseyConfig | None = None,
                    gate_periods: bool = True, d=None):
    """Masked primitive of a 2-form: minimizes
    ||m(dv + omega)||^2 + reg ||delta v||^2 over 1-forms by preconditioned CG
    (zero initial guess, fixed iteration order: bitwise deterministic).

    The CG state (v, r, p, z) is held as rfft3 coefficients, as the module
    docstring describes; the right-hand side and z live only until their
    last read.  `d`, ext_d when None, takes the exterior derivative of the
    solution for the masked-residual certificate: MasseyHierarchy.solve
    passes its kept derivative, so the curvature reads the same d v.

    Raises ObstructedClass when a meridian period of omega exceeds the gate
    (the cohomology class is nonzero, the Massey step is undefined), and
    NoConvergence at the iteration cap.

    Returns (v, info) with info holding the masked residual certificate,
    the gate periods, the iteration count and, under "telemetry", the wall
    time, the transform count and the residual every 16 iterations.
    """
    t_start = time.perf_counter()
    cfg = config or MasseyConfig()
    grid = omega.grid
    periods = dom.periods(omega)
    if gate_periods:
        bad = {k: p for k, p in periods.items() if abs(p) > cfg.eps_period}
        if bad:
            raise ObstructedClass(
                f"meridian periods exceed {cfg.eps_period}: "
                + ", ".join(f"dT{k}: {p:+.3f}" for k, p in bad.items()),
                periods=periods,
            )
    m2 = dom.mask**2
    shift = cfg.core_shift / dom.r_mask**2
    rhs = -codiff(GridField(grid, 2, m2[None] * omega.comps)).comps
    rhs_norm = float(np.sqrt(np.sum(rhs**2)))
    if rhs_norm == 0.0:
        info = {"iterations": 0, "residual": 0.0, "periods": periods,
                "masked_residual": 0.0,
                "telemetry": _telemetry(t_start, 0, 0.0, [])}
        return GridField(grid, 1, np.zeros_like(rhs)), info

    K, _, _ = _symbols(grid)
    weights = _parseval_weights(grid.n_points)
    symbols = _precondition_symbols(grid, cfg.reg, shift)
    shift_core = shift * dom.core

    # three-component transforms: a six-component stack is past glibc's mmap
    # threshold, so each call would fault in a fresh 42 MB result
    def apply_A(ph):
        phys = irfft3(_k_cross(K, ph), grid.shape)
        phys *= m2
        out = _k_cross(K, rfft3(phys))
        del phys  # dead before the core term's field is made
        phys = irfft3(ph.copy(), grid.shape)
        phys *= shift_core
        out += rfft3(phys)
        # reg d delta p is reg K (K . p): delta = -div on 1-forms (CODIFF_SIGN)
        kdot = cfg.reg * (K[0] * ph[0] + K[1] * ph[1] + K[2] * ph[2])
        for i, k in enumerate(K):
            out[i] += k * kdot
        return out

    t_loop = time.perf_counter()
    r = rfft3(rhs)
    del rhs
    vh = np.zeros_like(r)
    # the first search direction is the preconditioned residual itself
    p = _precondition(r, symbols)
    rz = _spectral_dot(r, p, weights)
    history = []
    niter = 0
    for niter in range(1, cfg.cg_maxiter + 1):
        Ap = apply_A(p)
        alpha_step = rz / _spectral_dot(p, Ap, weights)
        vh += alpha_step * p
        r -= alpha_step * Ap
        res = float(np.sqrt(_spectral_dot(r, r, weights))) / rhs_norm
        if niter % 16 == 0:
            history.append(res)
        if res <= cfg.cg_tol:
            break
        z = _precondition(r, symbols)
        rz_new = _spectral_dot(r, z, weights)
        p *= rz_new / rz
        p += z
        del z  # not alive through the next apply_A
        rz = rz_new
    else:
        raise NoConvergence(
            f"CG hit {cfg.cg_maxiter} iterations at residual {res:.2e}"
        )
    vf = GridField(grid, 1, irfft3(vh, grid.shape))
    loop_s = time.perf_counter() - t_loop
    dv = ext_d(vf) if d is None else d(vf)
    num = dom.masked_rms(dv + omega)
    den = dom.masked_rms(omega)
    info = {
        "iterations": niter,
        "residual": res,
        "periods": periods,
        "masked_residual": num / den if den > 0 else num,
        "telemetry": _telemetry(t_start, niter, loop_s, history),
    }
    return vf, info


def _telemetry(t_start, niter, loop_s, history) -> dict:
    """Wall-clock figures of one solve, for the timings sidecar (never the
    report): the loop's transforms are the rhs in, four per apply_A and v out."""
    return {
        "iterations": niter,
        "wall_s": time.perf_counter() - t_start,
        "ms_per_iteration": 1e3 * loop_s / niter if niter else 0.0,
        "fft_calls": 4 * niter + 2 if niter else 0,
        "residual_every_16": history,
    }


# -- the hierarchy --------------------------------------------------------------

def _intervals(n: int, length: int | None = None) -> list:
    """The index ranges (i, ..., j) within 1..n, by first index, then last:
    every one, or those of the given length."""
    spans = [tuple(range(i, j + 1)) for i in range(1, n + 1) for j in range(i, n + 1)]
    return spans if length is None else [key for key in spans if len(key) == length]


def _splits(key) -> list:
    """The splits (I', I'') of an interval I into a prefix I' and a suffix
    I'', by the length of the prefix: ((1,), (2, 3)), ((1, 2), (3,)) for 123."""
    return [(key[:s], key[s:]) for s in range(1, len(key))]


def _key_name(key) -> str:
    return "".join(str(i) for i in key)


def _add_term(acc, term: GridField, sign: int = 1) -> GridField:
    """acc + sign * term, added into acc in place; the first term (acc None)
    is the fresh `term` itself, negated in place when sign < 0."""
    if acc is None:
        if sign < 0:
            term.comps *= -1.0
        return term
    if sign < 0:
        acc.comps -= term.comps
    else:
        acc.comps += term.comps
    return acc


@dataclass
class MasseyHierarchy:
    """Disc duals v_i, obstruction forms Omega_I, solved primitives v_I and
    the closedness certificates of the Omega_I, over one masked link scene.

    `v` and `omega` are keyed by index tuples: (i,) for a disc dual and an
    interval I = (i, ..., j) for a solved v_I and a stored Omega_I.  `omega`
    holds each interval's Omega_I from obstruction_form until the last
    connection that reads it is certified (see cartan_bianchi_report).
    `curvature` holds the curvature entry w_I of each v_I from the first
    connection that holds v_I, which makes it in the array of d v_I, to the
    last (see connection_curvature).  The tube 2-forms are not kept:
    involution_report deposits each once (see tube_form)."""

    dom: MaskedDomain
    config: MasseyConfig
    v: dict = field(default_factory=dict)
    omega: dict = field(default_factory=dict)
    closedness: dict = field(default_factory=dict)
    curvature: dict = field(default_factory=dict)
    # id(form) -> (form, ext_d(form)); see d()
    _derivatives: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_scene(cls, link: Link, grid: Grid3, config: MasseyConfig | None = None):
        """Gate the scene with validate_scene, Massey checks included, before
        any field is built; then build the mask and the disc duals v_i.  No
        tube form is deposited here: involution_report, their only reader,
        deposits each once with tube_form."""
        cfg = config or MasseyConfig()
        validate_scene(link, grid, cfg)
        h = cls(MaskedDomain.build(link, grid, cfg), cfg)
        for i, comp in enumerate(link.components):
            h.v[(i + 1,)] = disc_dual_1form(comp, link.tube, grid)
        return h

    def tube_form(self, k: int) -> GridField:
        """The tube 2-form omega_k of component k (from 1), deposited afresh
        on every call (once per component in a massey run): the caller owns
        it and may write into it."""
        link = self.dom.link
        return tube_2form(link.components[k - 1], link.tube, self.dom.grid)

    def d(self, form: GridField) -> GridField:
        """ext_d(form), computed once per form object and kept with the form
        until release_derivatives or take_d; neither may be mutated while
        kept."""
        hit = self._derivatives.get(id(form))
        if hit is None:
            hit = self._derivatives[id(form)] = (form, ext_d(form))
        return hit[1]

    def kept_d(self, form: GridField) -> GridField | None:
        """The kept ext_d(form), or None when there is none; never made here."""
        hit = self._derivatives.get(id(form))
        return None if hit is None else hit[1]

    def take_d(self, form: GridField) -> GridField:
        """ext_d(form), the kept one when there is one: it is kept no longer,
        and the caller owns it and may write into it."""
        hit = self._derivatives.pop(id(form), None)
        return ext_d(form) if hit is None else hit[1]

    def release_derivatives(self, keep=()):
        """Drop the kept derivatives, except those of the forms in `keep`."""
        kept = {id(f) for f in keep}
        self._derivatives = {k: v for k, v in self._derivatives.items() if k in kept}

    def product(self, key) -> GridField:
        """Omega_I = sum of v_I' ^ v_I'' over the splits of I into a prefix I'
        and a suffix I'', added in split order: v_i ^ v_j for a pair (any
        two components), v_1 ^ v_23 + v_12 ^ v_3 for 123.  The stored form
        when there is one, else a fresh one that the caller owns; also each
        complete curvature entry (see connection_curvature)."""
        if key in self.omega:
            return self.omega[key]
        try:
            splits = [(self.v[head], self.v[tail]) for head, tail in _splits(key)]
        except KeyError as missing:
            raise MissingPrimitive(f"primitive {missing} not solved") from None
        om = None
        for head, tail in splits:
            om = _add_term(om, wedge(head, tail))
        return om

    def obstruction_form(self, interval: tuple) -> GridField:
        """The interval's Omega_I, stored with its masked-closedness
        certificate on first use (its derivative is kept: the Bianchi check
        of the connection whose curvature entry it is reads d Omega_I
        again)."""
        if interval in self.omega:
            return self.omega[interval]
        om = self.omega[interval] = self.product(interval)
        den = self.dom.masked_rms(om)
        r = self.dom.link.tube.radius
        closed = self.dom.masked_rms(self.d(om)) * r / den if den > 0 else 0.0
        self.closedness[interval] = closed
        return om

    def solve(self, interval: tuple):
        """Solve d v_I = -Omega_I on the masked complement."""
        om = self.obstruction_form(interval)
        try:
            v, info = solve_primitive(om, self.dom, self.config, d=self.d)
        except ObstructedClass as exc:
            exc.interval = interval
            raise
        if info["masked_residual"] > self.config.eps_massey:
            raise NoConvergence(
                f"masked residual {info['masked_residual']:.3f} exceeds "
                f"{self.config.eps_massey}"
            )
        self.v[interval] = v
        return v, info


# -- connections ---------------------------------------------------------------

def connection_curvature(h: MasseyHierarchy, v: dict) -> dict:
    """Entrywise Cartan structure equation of the connection v = {I: v_I}:
    w_I = d v_I + sum of v_I' ^ v_I'' over the splits of I whose parts are
    both in v.  Entry (i, j) of the paper's connection matrix is the
    interval I = (i+1, ..., j).

    The entry of an interval I in v has every split in v, so it is the same
    at every level >= |I|: the first connection that holds v_I makes it and
    stores it in `h.curvature`, and every later one reads it there.  It is
    made in the array of d v_I, which the hierarchy then keeps no longer
    (take_d): the products are added into one accumulator as they are made,
    and that is added into d v_I (the bits of (sum of products) + d v).  A
    disc dual's entry is d v_i itself.  Only an interval in v reads a stored
    entry: outside v, the same interval's entry is another form.

    An interval outside v whose every split has both parts in v (at level
    l, those of length l + 1) is complete: its entry is Omega_I by the
    definition of the defining system, so it is `h.product(key)`, the
    stored form when the hierarchy holds it, with no wedge made.  Any other
    interval that some split puts in reach is a fresh partial product, made
    by first index, then last.  The result holds v's entries first, in v's
    order, then the product-only entries, in the order the Bianchi
    denominator sums them; callers must not modify its forms.
    """
    out = dict.fromkeys(v)
    for key in _intervals(len(h.dom.link.components)):
        if key in v and key in h.curvature:
            out[key] = h.curvature[key]
            continue
        splits = [(head, tail) for head, tail in _splits(key) if head in v and tail in v]
        if key not in v and splits and len(splits) == len(key) - 1:
            out[key] = h.product(key)
            continue
        # d v_I first: its transforms run with fewer fields alive
        dv = h.take_d(v[key]) if key in v else None
        acc = None
        for head, tail in splits:
            acc = _add_term(acc, wedge(v[head], v[tail]))
        if dv is not None:
            if acc is not None:
                dv.comps += acc.comps
                acc = None  # not alive while the next d v_I is made
            out[key] = h.curvature[key] = dv
        elif acc is not None:
            out[key] = acc
    return out


def _bianchi_entry(h: MasseyHierarchy, v: dict, w: dict, key) -> GridField | None:
    """The Bianchi entry d w_I + sum over the splits of I of +v_I' ^ w_I''
    and then -w_I' ^ v_I'', added into one 3-form accumulator in that order
    as the terms are made; None when it has no term.

    A kept derivative (a stored Omega_I's closedness certificate) is read
    and never written: the first product term's fresh array takes it, since
    (+-t) + d w has the bits of d w +- t.  Any other d w_I has no other
    reader, so it is made here and is the accumulator."""
    wI = w.get(key)
    kept = None if wI is None else h.kept_d(wI)
    acc = None if wI is None or kept is not None else ext_d(wI)
    for head, tail in _splits(key):
        for sign, a, b in ((1, v.get(head), w.get(tail)), (-1, w.get(head), v.get(tail))):
            if a is not None and b is not None:
                acc = _add_term(acc, wedge(a, b), sign)
                if kept is not None:
                    acc, kept = _add_term(acc, kept), None
    return acc if kept is None else kept


def bianchi_residual(h: MasseyHierarchy, v: dict, w: dict, carried=None) -> float:
    """Masked norm of d w + v ^ w - w ^ v relative to ||w||, for the
    connection v and its curvature w.

    The numerator sums each interval's masked rms^2 (see _bianchi_entry),
    by first index, then last; the denominator sums (masked rms(w_I) / r)^2
    in w's order.  Each entry's accumulator is dropped once its norm is
    read.  An interval I in v reads only forms that are the same at every
    level >= |I|, so its two terms are too: `carried`, when given, maps
    intervals of v to their (numerator, denominator) terms, read where
    present and stored where made.  The sums then add the floats of a fresh
    call in its order, which gives its bits."""
    dom = h.dom
    r = dom.link.tube.radius
    carried = {} if carried is None else carried
    num2 = 0.0
    for key in _intervals(len(dom.link.components)):
        if key in carried:
            num2 += carried[key][0]
            continue
        acc = _bianchi_entry(h, v, w, key)
        if acc is None:
            continue
        num = dom.masked_rms(acc) ** 2
        acc = None  # not alive while the next entry's terms are made
        if key in v:
            carried[key] = (num, (dom.masked_rms(w[key]) / r) ** 2)
        num2 += num
    den2 = sum(carried[key][1] if key in carried else (dom.masked_rms(val) / r) ** 2
               for key, val in w.items())
    return float(np.sqrt(num2 / den2)) if den2 > 0 else 0.0


def cartan_bianchi_report(h: MasseyHierarchy) -> dict:
    """The Bianchi residual of each connection of levels 1 .. n-1 of an
    n-component hierarchy.

    One connection is built, certified and dropped at a time.  Level l's
    curvature is the stored w_I of each v_I with |I| < l, a w_I made in
    the array of d v_I for each |I| = l (see connection_curvature), the
    stored Omega_I of length l + 1 (its complete entries) and, with four or
    more components, a fresh partial product for each longer interval that
    two of the v_I split (at level 2 of four, w_1234 = v_12 ^ v_34); a
    fresh entry lives only in the Bianchi call.  The Bianchi terms of the
    intervals of v are carried from level to level, so each level computes
    those of its new intervals and of the longer ones alone, and d(d v_i)
    is made once, at level 1.  The Omega_I of length l + 1 have no later
    reader, so each is dropped with its derivative once level l is
    certified; the kept derivatives of the unread v_I and of the longer
    Omega_I carry over.  On return the hierarchy keeps no derivative, no
    Omega_I and no curvature entry.
    """
    eps = h.config.eps_massey
    n = len(h.dom.link.components)
    report = {}
    carried = {}
    for level in range(1, n):
        v = {key: vI for key, vI in h.v.items() if len(key) <= level}
        bianchi = bianchi_residual(h, v, connection_curvature(h, v), carried)
        report[f"bianchi_level{level}"] = checked(bianchi, eps)
        h.omega = {key: om for key, om in h.omega.items() if len(key) > level + 1}
        h.release_derivatives(keep=[*h.v.values(), *h.omega.values()])
    h.curvature = {}
    return report


# -- first integrals in involution ------------------------------------------------

def involution_report(h: MasseyHierarchy) -> dict:
    """The certificate that each v_I is a first integral of the vorticity
    xi_L = *(omega_1 + omega_2 + ...) on the link complement.

    By Cartan's formula L_{xi_L} v_I = d iota_{xi_L} v_I + iota_{xi_L} d v_I,
    which vanishes on every open set where xi_L vanishes.  So the claim
    that each v_I is a first integral of xi_L on the complement reduces to
    xi_L vanishing there: `tube_support`, max_k sup |m xi_k| / sup |xi_k|
    over the tube fields xi_k = *omega_k, gated at exactly 0.  Each xi_k lies within r of
    its curve and the mask vanishes within MASK_FACTOR * r, so it reads 0
    unless the mask fails to cover the tubes.  The same zero makes every
    masked term pointwise linear in one xi_k (iota_{xi_L} v_I, the bracket
    of a xi_k with any field) exactly 0.

    Each tube form is deposited once; no form of the hierarchy is read.
    """
    dom = h.dom
    support = 0.0
    for k in range(1, len(dom.link.components) + 1):
        xi_k = hodge_star(h.tube_form(k))
        support = max(support, dom.masked_sup(xi_k) / xi_k.sup_norm())
        del xi_k  # not alive beside the next deposit
    return {"tube_support": checked(support, 0.0)}


# -- the report -------------------------------------------------------------------

def massey_report(link: Link, grid: Grid3, tolerances: dict, rng, timer):
    """The `massey` report section of an n-component scene: the meridian
    periods of every pair's Omega_ij, one loop over the interval lengths
    that solves v_I for every interval shorter than n (and, with two
    components, the pair), and then the period of the top form
    Omega_{1..n} on dT_n against the oracle's mu-bar(1..n), the closedness
    and Cartan/Bianchi certificates and the involution section's tube
    support (see involution_report).

    Stages "scene_fields", "pairwise", "solves", "triple", "oracle",
    "cartan_bianchi" and "involution" are timed on `timer`: "solves" covers
    every solve and the Omega_I it needs beyond the pairs, "triple" the top
    form.  Each solve's telemetry goes to `timer.solver`.  The oracle's
    projection direction comes from `rng`.

    `tolerances` overrides constants.DEFAULT_TOLERANCES (scenes.tolerance_config).

    Returns (section, obstruction).  When a solve is obstructed the section
    holds the periods and, under "pair", the obstructed interval, and
    `obstruction` is the ObstructedClass raised; otherwise it is None.
    """
    cfg = MasseyConfig(**tolerances)
    timer.start("scene_fields")
    h = MasseyHierarchy.from_scene(link, grid, cfg)
    timer.stop()
    n = len(link.components)
    periods = {}
    timer.start("pairwise")
    for pair in combinations(range(1, n + 1), 2):
        # an interval's Omega_ij is stored for its solve; any other pair's is
        # made for its periods only
        make = h.obstruction_form if pair in _intervals(n, 2) else h.product
        periods[_key_name(pair)] = {str(k): p for k, p in h.dom.periods(make(pair)).items()}
    timer.stop()
    prim_res = {}
    try:
        timer.start("solves")
        # every interval shorter than n, and with n = 2 the pair itself,
        # whose gate stops a linked pair
        for length in range(2, max(n, 3)):
            for key in _intervals(n, length):
                _, info = h.solve(key)
                prim_res[_key_name(key)] = {
                    "masked_residual": checked(info["masked_residual"], cfg.eps_massey),
                    "iterations": info["iterations"],
                }
                timer.solver[_key_name(key)] = info["telemetry"]
        h.dom.core = None  # the CG is its only reader
        timer.stop()
    except ObstructedClass as exc:
        timer.stop()
        obstructed = {"pair": ",".join(map(str, exc.interval)), "message": str(exc)}
        return {"periods": periods, "obstructed": obstructed}, exc

    section = {"periods": periods, "primitive_residuals": prim_res}
    if n < 3:
        return section, None
    top = tuple(range(1, n + 1))
    timer.start("triple")
    mu_grid = meridian_period(h.obstruction_form(top), link.components[-1], h.dom.meridian_minor)
    timer.stop()
    timer.start("oracle")
    mu_oracle = mu_bar(scene_diagram(link, rng), top)
    timer.stop()
    timer.start("cartan_bianchi")
    cartan = cartan_bianchi_report(h)
    timer.stop()
    timer.start("involution")
    invol = involution_report(h)
    timer.stop()
    name = _key_name(top)
    section.update(
        {
            "closedness": {
                _key_name(key): checked(c, cfg.eps_massey) for key, c in h.closedness.items()
            },
            f"mu{name}_grid": mu_grid,
            f"mu{name}_grid_calibrated": TRIPLE_LINKING_SIGN * mu_grid,
            f"mu{name}_oracle": int(mu_oracle),
            "calibrated_sign": TRIPLE_LINKING_SIGN,
            # a zero oracle value has no ratio: the grid period must
            # then pass the meridian-period gate for a vanishing class
            "agreement": (
                checked_window(abs(mu_grid) / abs(mu_oracle), 0.85, 1.15)
                if mu_oracle
                else checked(abs(mu_grid), cfg.eps_period)
            ),
            "cartan_bianchi": cartan,
            "involution": invol,
        }
    )
    return section, None
