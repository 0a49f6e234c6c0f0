"""The Chen/Massey hierarchy on the grid.

Obstruction 2-forms Omega_ij = v_i ^ v_j of disc-dual 1-forms, masked
least-squares primitive solves d v_ij = -Omega_ij on the link complement,
the triple form Omega_123 = v_1 ^ v_23 + v_12 ^ v_3, meridian-torus
periods, nilpotent-connection curvature/Bianchi checks, and the
first-integrals-in-involution residuals.

Complement geometry is realized by a smooth mask vanishing on the tubes
(never by remeshing); every certificate is a masked norm.  The solver is a
matrix-free preconditioned conjugate gradient on the normal equations of

    J(v) = || m (dv + Omega) ||^2  +  reg * || delta v ||^2,

whose exact spectral inverse away from the mask is used as preconditioner,
so iteration counts stay modest and runs are bitwise deterministic.

The CG state lives in rfft3 coefficients.  There d, delta and the
preconditioner are diagonal symbols, and only the products with m^2 and the
core weight go through physical space: two inverse and two forward
transforms of three components each per iteration.  Inner products are
Parseval sums over the half spectrum (the kz = 0 and Nyquist planes weighted
once, the others twice, over N^3), which make the coefficients an isometric
image of the real fields; the iterates are therefore those of the same CG
run in physical space, up to the order of rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from operator import add

import numpy as np

from .comomentum import pair_contraction
from .constants import DEFAULT_TOLERANCES, MERIDIAN_PANELS
from .curves import Link, as_polygon
from .errors import MissingPrimitive, NoConvergence, ObstructedClass
from .grid import Grid3, GridField, VectorField
from .operators import (
    _k_cross,
    _symbols,
    alpha_inv,
    codiff,
    contract,
    ext_d,
    irfft3,
    lie_derivative,
    musical_inv,
    rfft3,
    wedge,
)
from .reports import checked
from .tubes import LinkFields, LocalBox, disc_dual_1form, meridian_period


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
    mask_factor: float = 1.25      # r_mask = mask_factor * tube radius
    meridian_factor: float = 1.5   # minor radius of dT_k over tube radius
    panels: tuple = MERIDIAN_PANELS


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
    primitive solves.
    """

    grid: Grid3
    mask: np.ndarray
    core: np.ndarray
    link: Link
    r_mask: float
    meridian_minor: float
    panels: tuple = MERIDIAN_PANELS

    @classmethod
    def build(cls, link: Link, grid: Grid3, config: MasseyConfig | None = None):
        """The mask of a scene that passed validate_scene with this config."""
        cfg = config or MasseyConfig()
        r = link.tube.radius
        r_mask = cfg.mask_factor * r
        mask = np.ones(grid.shape)
        core = np.zeros(grid.shape)
        for comp in link.components:
            d = distance_to_curve_field(grid, comp, 2 * r_mask + 2 * grid.spacing)
            mask *= _mask_profile((d - r_mask) / r_mask)
            core = np.maximum(
                core, 1.0 - _smoothstep((d - 0.8 * r_mask) / (0.2 * r_mask))
            )
        return cls(grid, mask, core, link, r_mask, cfg.meridian_factor * r,
                   cfg.panels)

    def masked_rms(self, f: GridField) -> float:
        """RMS of the masked form (volume-normalized L2)."""
        return float(
            np.sqrt(np.mean(np.sum((self.mask[None] * f.comps) ** 2, axis=0)))
        )

    def periods(self, form2: GridField) -> dict:
        out = {}
        for k, comp in enumerate(self.link.components):
            out[k + 1] = meridian_period(
                form2, comp, self.meridian_minor, self.panels
            )
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
                    gate_periods: bool = True):
    """Masked primitive of a 2-form: minimizes
    ||m(dv + omega)||^2 + reg ||delta v||^2 over 1-forms by preconditioned CG
    (zero initial guess, fixed iteration order: bitwise deterministic).

    The CG state (v, r, p, z) is held as rfft3 coefficients, as the module
    docstring describes.

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
        phys = irfft3(ph, grid.shape)
        phys *= shift_core
        out += rfft3(phys)
        # reg d delta p is reg K (K . p): delta = -div on 1-forms (CODIFF_SIGN)
        kdot = cfg.reg * (K[0] * ph[0] + K[1] * ph[1] + K[2] * ph[2])
        for i, k in enumerate(K):
            out[i] += k * kdot
        return out

    t_loop = time.perf_counter()
    r = rfft3(rhs)
    vh = np.zeros_like(r)
    z = _precondition(r, symbols)
    p = z.copy()
    rz = _spectral_dot(r, z, weights)
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
        rz = rz_new
    else:
        raise NoConvergence(
            f"CG hit {cfg.cg_maxiter} iterations at residual {res:.2e}"
        )
    vf = GridField(grid, 1, irfft3(vh, grid.shape))
    loop_s = time.perf_counter() - t_loop
    dv = ext_d(vf)
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

@dataclass
class MasseyHierarchy:
    """Disc duals v_i, obstruction forms Omega_I, solved primitives v_I and
    their certificates, over one masked link scene."""

    dom: MaskedDomain
    fields: LinkFields
    config: MasseyConfig
    v: dict = field(default_factory=dict)
    omega: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    # id(form) -> (form, ext_d(form)); see d()
    _derivatives: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_scene(cls, link: Link, grid: Grid3, config: MasseyConfig | None = None):
        cfg = config or MasseyConfig()
        # the tube forms come first: their build runs the scene gate
        lf = LinkFields.build(link, grid, cfg)
        h = cls(MaskedDomain.build(link, grid, cfg), lf, cfg)
        for i, comp in enumerate(link.components):
            h.v[(i + 1,)] = disc_dual_1form(comp, link.tube, grid)
        return h

    def d(self, form: GridField) -> GridField:
        """ext_d(form), computed once per form object and kept with the form
        until release_derivatives; neither may be mutated while kept."""
        hit = self._derivatives.get(id(form))
        if hit is None:
            hit = self._derivatives[id(form)] = (form, ext_d(form))
        return hit[1]

    def release_derivatives(self, keep=()):
        """Drop the kept derivatives, except those of the forms in `keep`."""
        kept = {id(f) for f in keep}
        self._derivatives = {k: v for k, v in self._derivatives.items() if k in kept}

    def _certify_closed(self, key, om):
        den = self.dom.masked_rms(om)
        r = self.dom.link.tube.radius
        closed = self.dom.masked_rms(self.d(om)) * r / den if den > 0 else 0.0
        self.certificates[("closedness", key)] = closed

    def obstruction_form(self, i: int, j: int) -> GridField:
        """Omega_ij = v_i ^ v_j with masked-closedness and period certificates."""
        key = (i, j)
        if key in self.omega:
            return self.omega[key]
        vi, vj = self.v[(i,)], self.v[(j,)]
        om = wedge(vi, vj)
        self.omega[key] = om
        self._certify_closed(key, om)
        self.certificates[("periods", key)] = self.dom.periods(om)
        return om

    def solve(self, i: int, j: int):
        """Solve d v_ij = -Omega_ij on the masked complement."""
        om = self.obstruction_form(i, j)
        v, info = solve_primitive(om, self.dom, self.config)
        if info["masked_residual"] > self.config.eps_massey:
            raise NoConvergence(
                f"masked residual {info['masked_residual']:.3f} exceeds "
                f"{self.config.eps_massey}"
            )
        self.v[(i, j)] = v
        self.certificates[("primitive", (i, j))] = info
        return v, info

    def massey_triple(self, i=1, j=2, k=3) -> GridField:
        """Omega_ijk = v_i ^ v_jk + v_ij ^ v_k, with its masked-closedness
        certificate (direct check)."""
        key = (i, j, k)
        if key in self.omega:
            return self.omega[key]
        try:
            vjk = self.v[(j, k)]
            vij = self.v[(i, j)]
        except KeyError as missing:
            raise MissingPrimitive(f"primitive {missing} not solved") from None
        om = wedge(self.v[(i,)], vjk) + wedge(vij, self.v[(k,)])
        self.omega[key] = om
        self._certify_closed(key, om)
        return om

    def triple_linking(self, k: int = 3, i=1, j=2, m=3) -> float:
        """Period of the triple Massey form over the meridian torus dT_k."""
        om = self.massey_triple(i, j, m)
        return meridian_period(
            om, self.dom.link.components[k - 1],
            self.dom.meridian_minor, self.dom.panels,
        )


# -- nilpotent connections -------------------------------------------------------

@dataclass
class NilpotentConnection:
    """Strictly upper-triangular matrix of 1-forms (structural nilpotency).

    Entry (i, j) is the hierarchy's v_I with I = (i+1, ..., j); derivatives
    go through the hierarchy's shared d."""

    size: int
    entries: dict  # (row, col) -> GridField(1)
    level: int
    hierarchy: MasseyHierarchy
    # set by connection_curvature on first use
    _curvature: dict | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @classmethod
    def from_hierarchy(cls, h: MasseyHierarchy, level: int):
        """Level 1 places v_i on the superdiagonal; level 2 adds the solved
        v_ij one diagonal further out (the paper's 4x4 displays)."""
        n = len(h.dom.link.components) + 1
        entries = {}
        for i in range(n - 1):
            entries[(i, i + 1)] = h.v[(i + 1,)]
        if level >= 2:
            for key, vv in h.v.items():
                if len(key) == 2:
                    i, j = key
                    entries[(i - 1, j)] = vv
        return cls(n, entries, level, h)


def connection_curvature(c: NilpotentConnection) -> dict:
    """Entrywise Cartan structure equation: w = d v + v ^ v.

    Computed once per connection and kept on it, so the report's exactness
    checks and bianchi_residual share one evaluation; the entries must not
    change afterwards, and callers must not modify the returned forms.  A
    pure product entry w_ij = sum_k v_ik ^ v_kj is replaced by the stored
    Omega_I of the same index range when their bits agree, so it shares that
    form's derivative.
    """
    if c._curvature is not None:
        return c._curvature
    h, v = c.hierarchy, c.entries
    out = {ij: h.d(vij) for ij, vij in v.items()}
    for i, j in product(range(c.size), repeat=2):
        terms = [wedge(v[(i, k)], v[(k, j)]) for k in range(c.size)
                 if (i, k) in v and (k, j) in v]
        if not terms:
            continue
        acc = reduce(add, terms)
        if (i, j) in out:
            out[(i, j)] = out[(i, j)] + acc
            continue
        stored = h.omega.get(tuple(range(i + 1, j + 1)))
        same = stored is not None and np.array_equal(stored.comps, acc.comps)
        out[(i, j)] = stored if same else acc
    c._curvature = out
    return out


def bianchi_residual(c: NilpotentConnection, dom: MaskedDomain) -> float:
    """Masked norm of d w + v ^ w - w ^ v relative to ||w||."""
    w, v = connection_curvature(c), c.entries
    num2 = 0.0
    r = dom.link.tube.radius
    for i, j in product(range(c.size), repeat=2):
        terms = [c.hierarchy.d(w[(i, j)])] if (i, j) in w else []
        for k in range(c.size):
            if (i, k) in v and (k, j) in w:
                terms.append(wedge(v[(i, k)], w[(k, j)]))
            if (i, k) in w and (k, j) in v:
                terms.append(-1 * wedge(w[(i, k)], v[(k, j)]))
        if terms:
            num2 += dom.masked_rms(reduce(add, terms)) ** 2
    den2 = sum((dom.masked_rms(val) / r) ** 2 for val in w.values())
    return float(np.sqrt(num2 / den2)) if den2 > 0 else 0.0


def cartan_bianchi_report(h: MasseyHierarchy) -> dict:
    """Certificates of the level-1 and level-2 connections: the curvature
    entries that must equal Omega_12 and Omega_123 bit for bit, and both
    Bianchi residuals.

    The connections live only here.  On return the hierarchy keeps the
    derivatives d v_I alone, for the Lie derivatives of involution_report.
    """
    lvl1 = NilpotentConnection.from_hierarchy(h, 1)
    lvl2 = NilpotentConnection.from_hierarchy(h, 2)
    exact1 = float(np.max(np.abs(
        connection_curvature(lvl1)[(0, 2)].comps - h.omega[(1, 2)].comps)))
    exact2 = float(np.max(np.abs(
        connection_curvature(lvl2)[(0, 3)].comps - h.omega[(1, 2, 3)].comps)))
    eps = h.config.eps_massey
    out = {
        "level1_matches_obstruction": checked(exact1, 0.0, exact1 == 0.0),
        "level2_matches_triple": checked(exact2, 0.0, exact2 == 0.0),
        "bianchi_level1": checked(bianchi_residual(lvl1, h.dom), eps),
        "bianchi_level2": checked(bianchi_residual(lvl2, h.dom), eps),
    }
    h.release_derivatives(keep=h.v.values())
    return out


# -- first integrals in involution ------------------------------------------------

def involution_report(h: MasseyHierarchy, xi_L: VectorField | None = None) -> dict:
    """Masked residuals of iota_{xi_L} v_I, L_{xi_L} v_I, and the Poisson
    brackets {v_I, v_J} = nu(xi_I, xi_J, .) with xi_I = alpha^{-1}(Omega_I).

    Numerators are masked RMS norms; denominators are products of input sup
    norms (with the tube radius as the length scale where a derivative is
    involved), so structurally vanishing overlaps report as zero.

    The xi_I are views of the Omega_I and the Lie derivatives read the
    hierarchy's shared d v_I, so nothing here may mutate them.  The shared
    derivatives are released once the Lie derivatives are done.
    """
    dom = h.dom
    if xi_L is None:
        xi_L = h.fields.xi_total()
    r = dom.link.tube.radius
    sup_xi = xi_L.sup_norm()
    report = {"iota": {}, "lie": {}, "pb": {}, "pb_certificates": {}}

    def key_name(key):
        return "".join(str(i) for i in key)

    for key, vI in h.v.items():
        sup_v = vI.sup_norm()
        den_i = sup_xi * sup_v
        den_l = sup_xi * sup_v / r
        iota = dom.masked_rms(contract(xi_L, vI))
        lie = dom.masked_rms(lie_derivative(xi_L, vI, h.d(vI)))
        report["iota"][key_name(key)] = iota / den_i if den_i > 0 else 0.0
        report["lie"][key_name(key)] = lie / den_l if den_l > 0 else 0.0
    h.release_derivatives()

    # vector fields of the stored classes: singles use the tube forms
    xi_of = {(idx + 1,): alpha_inv(om) for idx, om in enumerate(h.fields.omegas)}
    xi_of.update((key, alpha_inv(om)) for key, om in h.omega.items())
    sup = {key: x.sup_norm() for key, x in xi_of.items()}

    keys = sorted(xi_of, key=lambda k: (len(k), k))
    for ka, kb in combinations(keys, 2):
        den = sup[ka] * sup[kb]
        pb = pair_contraction(xi_of[ka], xi_of[kb])  # nu(xi_a, xi_b, .)
        name = f"{key_name(ka)},{key_name(kb)}"
        report["pb"][name] = dom.masked_rms(pb) / den if den > 0 else 0.0
        sup_pb = pb.sup_norm()
        if sup_pb > 0:
            closed = ext_d(pb).sup_norm() * r / sup_pb
            # the harmonic part on the flat torus is the componentwise mean
            harm = float(np.max(np.abs(musical_inv(pb).mean()))) / sup_pb
        else:
            closed = harm = 0.0
        report["pb_certificates"][name] = {"closedness": closed, "harmonic_part": harm}
    return report
